package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// attach-bulk: one workload actor runs recurring large attachments over
// the four enclave pairings of the paper. Each window starts one page
// into its exporter's 2 MB-aligned buffer, as the composed application's
// data window does, so every attach maps 4 KB PTEs.
const (
	bulkMinBytes = 128 << 20
	bulkMaxBytes = 1 << 30
	bulkStep     = 2 << 20
	bulkBufBytes = bulkMaxBytes + bulkStep
	bulkCycles   = 40 // cycles per round: 1040 lifecycles
	bulkSampled  = 64 // verified pages per exporter buffer
	rw           = xpmem.PermRead | xpmem.PermWrite
)

// bulkPairing is one exporter→attacher enclave pairing.
type bulkPairing struct {
	name     string
	exp, att *xpmem.Session
	base     pagetable.VA // exporter buffer (2 MB-aligned)
	buffer   uint64       // pattern id of the exporter buffer
	sampled  []uint64     // verified page indices of the buffer
	expect   [][]byte     // seeded contents of each sampled page
}

// bulkOp is one lifecycle: pairing index and window size.
type bulkOp struct {
	pair int
	size uint64
}

// bulkPairsPerCycle is how many antithetic size pairs each pairing
// runs per cycle. The Kitten→VM guest attach inserts every page into the
// guest memory map (§5.4) and costs the host about five times what the
// others do, so it runs one pair per cycle to keep a round near 20 s of
// host time on a 2-vCPU machine.
var bulkPairsPerCycle = []int{4, 4, 1, 4}

// bulkOps returns the round's operation list: cycles cycles, each holding
// for pairing p bulkPairsPerCycle[p] antithetic size pairs (s and
// 1152 MB − s, both within 128 MB–1 GB), shuffled within the cycle. The
// smaller members are stratified over 128–576 MB (see strata), so the
// size distribution, and with it the latency percentiles, barely moves
// between seeds. Every cycle maps the same bytes per pairing, and the
// Linux→Kitten pairing maps 4.5 GB per cycle: over a 40-cycle round
// 180 GB, enough to cross the Kitten attacher's stack exactly once (see
// README).
func bulkOps(seed uint64, cycles int) []bulkOp {
	rng := newStream(seed, "bulk-ops")
	half := uint64((bulkMaxBytes+bulkMinBytes)/2-bulkMinBytes) / bulkStep
	small := make([][]uint64, len(bulkPairsPerCycle))
	for p, pairs := range bulkPairsPerCycle {
		for _, step := range strata(rng, cycles*pairs, half) {
			small[p] = append(small[p], bulkMinBytes+step*bulkStep)
		}
	}
	var ops []bulkOp
	for c := 0; c < cycles; c++ {
		var cyc []bulkOp
		for p, pairs := range bulkPairsPerCycle {
			for _, s := range small[p][c*pairs : (c+1)*pairs] {
				cyc = append(cyc, bulkOp{p, s}, bulkOp{p, bulkMinBytes + bulkMaxBytes - s})
			}
		}
		rng.shuffle(len(cyc), func(i, j int) { cyc[i], cyc[j] = cyc[j], cyc[i] })
		ops = append(ops, cyc...)
	}
	return ops
}

// isStackCrossing reports the known Kitten attach-address fault: the
// bump-pointer attach area (proc.AddressSpace.ReserveVA) is never
// rewound by detach, so the reservation that reaches the stack fails
// with an untyped overlap error.
func isStackCrossing(err error) bool {
	var op *core.OpError
	return !errors.As(err, &op) && strings.Contains(err.Error(), `overlaps "stack"`)
}

func buildBulk(seed uint64, cycles int, corrupt bool) (*world, func(r *recorder), error) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 32 << 30})
	perCycle := 0
	for _, n := range bulkPairsPerCycle {
		perCycle += 2 * n
	}
	w := &world{node: node, mods: []*core.Module{node.LinuxModule()},
		mgmtCore: &node.Linux().KernelCore().Resource, bucket: perCycle}

	kExp, err := node.BootCoKernel("kitten-exp", 2<<30)
	if err != nil {
		return nil, nil, err
	}
	kHost, err := node.BootCoKernel("kitten-vmhost", 3<<30)
	if err != nil {
		return nil, nil, err
	}
	kAtt, err := node.BootCoKernel("kitten-att", 512<<20)
	if err != nil {
		return nil, nil, err
	}
	vmk, err := node.BootVMOnCoKernel("vm-on-kitten", kHost, 2<<30, 1)
	if err != nil {
		return nil, nil, err
	}
	vml, err := node.BootVM("vm-on-linux", 2<<30, 1)
	if err != nil {
		return nil, nil, err
	}
	w.mods = append(w.mods, kExp.Module, kHost.Module, kAtt.Module, vmk.Module, vml.Module)

	// Exporters: a Kitten process (Fig. 5, Table 2), a guest process in
	// the VM hosted on Kitten (Fig. 8/9) and a native Linux process
	// (§4.3 heap extension).
	kSess, kHeap, err := node.KittenProcess(kExp, "exp", bulkBufBytes)
	if err != nil {
		return nil, nil, err
	}
	gSess, gProc := node.GuestProcess(vmk, "exp", 0)
	gBuf, err := xemem.AllocLinux(vmk.Guest, gProc, "buf", bulkBufBytes, true)
	if err != nil {
		return nil, nil, err
	}
	lSess, lProc := node.LinuxProcess("exp", 1)
	lBuf, err := xemem.AllocLinux(node.Linux(), lProc, "buf", bulkBufBytes, true)
	if err != nil {
		return nil, nil, err
	}
	// Attachers, one process per pairing.
	l1, _ := node.LinuxProcess("att-kitten", 2)
	l2, _ := node.LinuxProcess("att-vm", 3)
	gAtt, _ := node.GuestProcess(vml, "att", 0)
	kAttSess, _, err := node.KittenProcess(kAtt, "att", 1<<20)
	if err != nil {
		return nil, nil, err
	}

	pairs := []*bulkPairing{
		{name: "kitten->linux", exp: kSess, att: l1, base: kHeap.Base, buffer: 0},
		{name: "vm-on-kitten->linux", exp: gSess, att: l2, base: gBuf.Base, buffer: 1},
		{name: "kitten->vm", exp: kSess, att: gAtt, base: kHeap.Base, buffer: 0},
		{name: "linux->kitten", exp: lSess, att: kAttSess, base: lBuf.Base, buffer: 2},
	}
	w.sessions = []*xpmem.Session{kSess, gSess, lSess, l1, l2, gAtt, kAttSess}

	// Seeded patterns on sampled pages of each exporter buffer: a quarter
	// inside the smallest window, the rest anywhere in the largest. Page 1
	// (every window's first page) is the write-check mailbox.
	smallest := uint64(1 + bulkMinBytes/pageSize)
	largest := uint64(1 + bulkMaxBytes/pageSize)
	byBuffer := map[uint64]*bulkPairing{}
	for _, p := range pairs {
		if q, ok := byBuffer[p.buffer]; ok {
			p.sampled, p.expect = q.sampled, q.expect
			continue
		}
		byBuffer[p.buffer] = p
		rng := newStream(seed, "bulk-samples", p.buffer)
		p.sampled = append(samplePages(rng, 2, smallest, bulkSampled/4),
			samplePages(rng, smallest, largest, bulkSampled-bulkSampled/4)...)
		for _, pg := range p.sampled {
			want := pagePattern(seed, p.buffer, pg)
			if _, err := p.exp.Write(p.base+pagetable.VA(pg*pageSize), want); err != nil {
				return nil, nil, err
			}
			p.expect = append(p.expect, want)
		}
	}
	if corrupt {
		// Test hook: flip one byte of one sampled page behind the
		// benchmark's back; the page check must catch it.
		p := pairs[0]
		va := p.base + pagetable.VA(p.sampled[0]*pageSize+17)
		var b [1]byte
		if _, err := p.exp.Read(va, b[:]); err != nil {
			return nil, nil, err
		}
		b[0] ^= 0x5a
		if _, err := p.exp.Write(va, b[:]); err != nil {
			return nil, nil, err
		}
	}

	ops := bulkOps(seed, cycles)
	body := func(r *recorder) {
		node.Spawn("bulk", func(a *sim.Actor) {
			buf := make([]byte, pageSize)
			for i, op := range ops {
				p := pairs[op.pair]
				r.opStart(a.Now())
				lat, failed := bulkLifecycle(a, r, p, op, seed, i, buf)
				if r.checkErr != nil {
					return
				}
				r.opDone(a.Now(), lat, failed)
			}
		})
	}
	return w, body, nil
}

// bulkLifecycle runs make → get → attach → verify → detach → release →
// remove → lookup for one window and returns the attach call's virtual
// latency. failed reports the known stack-crossing attach fault; any
// other error or wrong byte is recorded as a check failure.
func bulkLifecycle(a *sim.Actor, r *recorder, p *bulkPairing, op bulkOp, seed uint64, i int, buf []byte) (lat sim.Time, failed bool) {
	name := fmt.Sprintf("bulk-%d", i)
	win := p.base + pageSize
	var (
		seg  xpmem.Segid
		apid xpmem.Apid
		va   pagetable.VA
		err  error
	)
	r.call(a, "make", func() { seg, err = p.exp.Make(a, win, op.size, rw, name) })
	if err != nil {
		r.fail("%s op %d: make: %v", p.name, i, err)
		return 0, false
	}
	r.call(a, "get", func() { apid, err = p.att.GetWith(a, seg, xpmem.GetOpts{Perm: rw}) })
	if err != nil {
		r.fail("%s op %d: get: %v", p.name, i, err)
		return 0, false
	}
	t0 := a.Now()
	r.call(a, "attach", func() {
		va, err = p.att.AttachWith(a, seg, apid, xpmem.AttachOpts{Bytes: op.size, Perm: rw})
	})
	lat = a.Now() - t0
	switch {
	case err != nil && isStackCrossing(err):
		failed = true
	case err != nil:
		r.fail("%s op %d: attach %d bytes: %v", p.name, i, op.size, err)
		return 0, false
	default:
		// Sampled pages inside the window read back the seeded pattern.
		limit := 1 + op.size/pageSize
		for k, pg := range p.sampled {
			if pg >= limit {
				continue
			}
			if _, err := p.att.Read(va+pagetable.VA((pg-1)*pageSize), buf); err != nil {
				r.fail("%s op %d: read page %d: %v", p.name, i, pg, err)
				return 0, false
			}
			if !bytes.Equal(buf, p.expect[k]) {
				r.fail("%s op %d: page %d differs from its seeded pattern", p.name, i, pg)
				return 0, false
			}
		}
		// A write through the read-write attachment is visible to the
		// exporter.
		var tok, back [8]byte
		binary.LittleEndian.PutUint64(tok[:], derive(seed, "token", uint64(i)))
		if _, err := p.att.Write(va, tok[:]); err != nil {
			r.fail("%s op %d: write: %v", p.name, i, err)
			return 0, false
		}
		if _, err := p.exp.Read(win, back[:]); err != nil || back != tok {
			r.fail("%s op %d: exporter does not see the attacher's write (%v)", p.name, i, err)
			return 0, false
		}
		r.call(a, "detach", func() { err = p.att.Detach(a, va) })
		if err != nil {
			r.fail("%s op %d: detach: %v", p.name, i, err)
			return 0, false
		}
	}
	r.call(a, "release", func() { err = p.att.Release(a, seg, apid) })
	if err != nil {
		r.fail("%s op %d: release: %v", p.name, i, err)
		return 0, false
	}
	r.call(a, "remove", func() { err = p.exp.Remove(a, seg) })
	if err != nil {
		r.fail("%s op %d: remove: %v", p.name, i, err)
		return 0, false
	}
	// After remove, the name stops resolving. The exporter asks: its
	// remove notice and this lookup travel the same ordered channel to the
	// name server (see README for a lookup from elsewhere).
	r.call(a, "lookup", func() { _, err = p.exp.Lookup(a, name) })
	if !errors.Is(err, xpmem.ErrNoSuchSegid) {
		r.fail("%s op %d: lookup after remove: got %v, want ErrNoSuchSegid", p.name, i, err)
		return 0, false
	}
	return lat, failed
}
