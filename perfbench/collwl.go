package main

import (
	"bytes"
	"fmt"

	"xemem"
	"xemem/internal/coll"
	"xemem/internal/core"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
)

// coll: hierarchical broadcast and allreduce on six ranks (four Kitten
// co-kernels, two VMs) at depth 3, with message sizes on both sides of
// the 32 KB CICO/zero-copy switchover and a warm registration cache.
const (
	collBuf      = 64 << 10
	collVariants = 4 // seeded input sets per rank
	collBucket   = 64
)

// collOp is one collective: broadcast from root, or allreduce (root<0),
// of size bytes over input variant v.
type collOp struct {
	root int
	size uint64
	v    int
}

// collOps returns the warm-up operations (a zero-copy broadcast from
// every root and an allreduce, so every window the timed phase uses is
// registered) and then cycles of eight collectives in seeded order: a
// broadcast (seeded root) and an allreduce at each of two sizes below
// the switchover (a and 32 KB − a) and two above it (b and 97 KB − b),
// seeded in 1 KB steps and stratified across the round (see strata).
// The antithetic pairs keep every cycle's bytes equal.
func collOps(seed uint64, ranks, cycles int) (warm, timed []collOp) {
	for root := 0; root < ranks; root++ {
		warm = append(warm, collOp{root: root, size: collBuf})
	}
	warm = append(warm, collOp{root: -1, size: collBuf})
	rng := newStream(seed, "coll-ops")
	as, bs := strata(rng, cycles, 31), strata(rng, cycles, 32)
	for c := 0; c < cycles; c++ {
		a := uint64(1+as[c]) << 10  // 1–31 KB
		b := uint64(33+bs[c]) << 10 // 33–64 KB
		var cyc []collOp
		for _, size := range []uint64{a, 32<<10 - a, b, 97<<10 - b} {
			cyc = append(cyc,
				collOp{root: rng.intn(ranks), size: size, v: rng.intn(collVariants)},
				collOp{root: -1, size: size, v: rng.intn(collVariants)})
		}
		rng.shuffle(len(cyc), func(i, j int) { cyc[i], cyc[j] = cyc[j], cyc[i] })
		timed = append(timed, cyc...)
	}
	return warm, timed
}

func buildColl(seed uint64, cycles int, wrongSum bool) (*world, func(r *recorder), error) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 8 << 30})
	w := &world{node: node, mods: []*core.Module{node.LinuxModule()},
		mgmtCore: &node.Linux().KernelCore().Resource, bucket: collBucket}
	topo, err := xemem.ParseTopology("kitten,kitten,kitten,kitten,vm,vm")
	if err != nil {
		return nil, nil, err
	}
	topo.KittenBytes = 128 << 20
	topo.VMBytes = 128 << 20
	encl, err := topo.Build(node)
	if err != nil {
		return nil, nil, err
	}
	levels := xemem.DefaultLevels
	scratch := uint64(64 << 10 * len(encl) * len(levels))
	members := make([]coll.Member, len(encl))
	for i, e := range encl {
		w.mods = append(w.mods, e.Module)
		name := fmt.Sprintf("rank%d", i)
		m := coll.Member{Loc: e.Loc}
		if e.Kitten != nil {
			s, heap, err := node.KittenProcess(e.Kitten, name, collBuf+scratch)
			if err != nil {
				return nil, nil, err
			}
			m.Sess, m.Buf = s, heap.Base
		} else {
			s, p := node.GuestProcess(e.VM, name, 0)
			region, err := xemem.AllocLinux(e.VM.Guest, p, name+"-buf", collBuf+scratch, true)
			if err != nil {
				return nil, nil, err
			}
			m.Sess, m.Buf = s, region.Base
		}
		m.Scratch = m.Buf + pagetable.VA(collBuf)
		members[i] = m
		w.sessions = append(w.sessions, m.Sess)
	}
	comm, err := coll.New(members, collBuf, coll.Opts{Levels: levels})
	if err != nil {
		return nil, nil, err
	}

	// Seeded inputs and the byte-wise sums the benchmark computes
	// serially, apart from the program.
	nr := len(members)
	inputs := make([][][]byte, nr)
	for r := range inputs {
		for v := 0; v < collVariants; v++ {
			b := make([]byte, collBuf)
			fillPattern(b, derive(seed, "coll-input", uint64(r), uint64(v)))
			inputs[r] = append(inputs[r], b)
		}
	}
	sums := make([][]byte, collVariants)
	for v := range sums {
		sums[v] = make([]byte, collBuf)
		for r := 0; r < nr; r++ {
			for k, x := range inputs[r][v] {
				sums[v][k] += x
			}
		}
	}
	if wrongSum {
		sums[0][5]++ // test hook: the allreduce check must reject this
	}

	warm, timed := collOps(seed, nr, cycles)
	body := func(rec *recorder) {
		dur := make([]sim.Time, len(timed)) // slowest rank per timed op
		done := make([]int, len(timed))
		for r := 0; r < nr; r++ {
			r := r
			sess, buf := members[r].Sess, members[r].Buf
			node.Spawn(fmt.Sprintf("rank%d", r), func(a *sim.Actor) {
				got := make([]byte, collBuf)
				// A rank that fails a check keeps taking part, so its peers
				// never wait on it forever; the round reports the first
				// failure.
				run := func(i int, op collOp, timedOp bool) {
					// Inputs: the root's (or every rank's) variant; other
					// ranks start a broadcast from a different variant so
					// a missing delivery shows.
					in := inputs[r][op.v]
					if op.root >= 0 && r != op.root {
						in = inputs[r][(op.v+1)%collVariants]
					}
					if _, err := sess.Write(buf, in[:op.size]); err != nil {
						rec.fail("rank %d op %d: write input: %v", r, i, err)
					}
					if err := comm.Barrier(a, r); err != nil {
						rec.fail("rank %d op %d: barrier: %v", r, i, err)
					}
					t0 := a.Now()
					if timedOp {
						rec.opStart(t0)
					}
					var err error
					want := sums[op.v][:op.size]
					if op.root >= 0 {
						err = comm.Bcast(a, r, op.root, op.size)
						want = inputs[op.root][op.v][:op.size]
					} else {
						err = comm.Allreduce(a, r, op.size)
					}
					if err != nil {
						rec.fail("rank %d op %d: %v", r, i, err)
					}
					d := a.Now() - t0
					if _, err := sess.Read(buf, got[:op.size]); err != nil {
						rec.fail("rank %d op %d: read result: %v", r, i, err)
					}
					if !bytes.Equal(got[:op.size], want) {
						kind := "allreduce result differs from the serial byte-wise sum"
						if op.root >= 0 {
							kind = fmt.Sprintf("broadcast result differs from root %d's buffer", op.root)
						}
						rec.fail("rank %d op %d (%d bytes): %s", r, i, op.size, kind)
					}
					if timedOp {
						dur[i] = max(dur[i], d)
						if done[i]++; done[i] == nr {
							rec.opDone(a.Now(), dur[i], false)
						}
					}
				}
				for i, op := range warm {
					run(i, op, false)
				}
				for i, op := range timed {
					run(i, op, true)
				}
				if err := comm.Close(a, r); err != nil {
					rec.fail("rank %d: close: %v", r, err)
				}
			})
		}
	}
	return w, body, nil
}
