package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/fault"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// attach-churn and attach-lossy: many concurrent small-window lifecycles.
// Exporters in three Kitten co-kernels and a VM publish named segments;
// attachers in every other enclave look each one up by name, then get,
// attach, verify, detach and release it, and the exporter removes it.
// Every message crosses the management enclave's core 0.
const (
	churnSlotPages = 32 // exporter buffer stride per stream (128 KB)
	churnMaxPages  = 16 // windows are 1–16 pages (4–64 KB)
	churnBucket    = 64
	churnJitter    = 50 * sim.Microsecond
)

// lossyPlan drops and delays a small share of messages, with no
// crashes. Every request still completes within the default retry
// budget (four attempts).
var lossyPlan = fault.Plan{DropProb: 0.00005, DelayProb: 0.01, DelayMax: 10 * sim.Microsecond}

// churnStream is one exporter→attacher pairing running lifecycles back
// to back in a closed loop.
type churnStream struct {
	id       int
	exp, att *xpmem.Session
	slot     pagetable.VA // window base in the exporter's buffer
	expect   [][]byte     // seeded contents of pages 1..churnMaxPages
	pages    []uint64     // window sizes in pages, one per lifecycle
}

func buildChurn(seed uint64, lifecycles int, lossy bool) (*world, func(r *recorder), error) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 8 << 30})
	w := &world{node: node, mods: []*core.Module{node.LinuxModule()},
		mgmtCore: &node.Linux().KernelCore().Resource, bucket: churnBucket}

	type enclave struct {
		exp, att *xpmem.Session
		base     pagetable.VA // exporter buffer
	}
	var encl []enclave
	const expBytes = 4 * churnSlotPages * pageSize
	for i := 0; i < 3; i++ {
		ck, err := node.BootCoKernel(fmt.Sprintf("kitten%d", i), 128<<20)
		if err != nil {
			return nil, nil, err
		}
		exp, heap, err := node.KittenProcess(ck, "exp", expBytes)
		if err != nil {
			return nil, nil, err
		}
		att, _, err := node.KittenProcess(ck, "att", 64<<10)
		if err != nil {
			return nil, nil, err
		}
		w.mods = append(w.mods, ck.Module)
		encl = append(encl, enclave{exp, att, heap.Base})
	}
	vm, err := node.BootVM("vm0", 256<<20, 1)
	if err != nil {
		return nil, nil, err
	}
	w.mods = append(w.mods, vm.Module)
	vExp, vProc := node.GuestProcess(vm, "exp", 0)
	vBuf, err := xemem.AllocLinux(vm.Guest, vProc, "buf", expBytes, true)
	if err != nil {
		return nil, nil, err
	}
	vAtt, _ := node.GuestProcess(vm, "att", 0)
	encl = append(encl, enclave{vExp, vAtt, vBuf.Base})
	linuxAtt, _ := node.LinuxProcess("att", 1)

	// Streams: every exporter paired with the attacher of every other
	// enclave, the management enclave's included.
	var streams []*churnStream
	for e, ex := range encl {
		slot := 0
		for f := 0; f <= len(encl); f++ {
			if f == e {
				continue
			}
			att := linuxAtt
			if f < len(encl) {
				att = encl[f].att
			}
			s := &churnStream{id: len(streams), exp: ex.exp, att: att,
				slot: ex.base + pagetable.VA(slot*churnSlotPages*pageSize)}
			slot++
			for pg := uint64(1); pg <= churnMaxPages; pg++ {
				want := pagePattern(seed, uint64(s.id), pg)
				if _, err := s.exp.Write(s.slot+pagetable.VA(pg*pageSize), want); err != nil {
					return nil, nil, err
				}
				s.expect = append(s.expect, want)
			}
			// Antithetic window sizes (n, 17−n pages) keep every stream's
			// mapped bytes per pair of lifecycles constant.
			rng := newStream(seed, "churn-sizes", uint64(s.id))
			for k := 0; k < lifecycles/2; k++ {
				n := 1 + rng.uint64n(churnMaxPages)
				s.pages = append(s.pages, n, churnMaxPages+1-n)
			}
			w.sessions = append(w.sessions, s.exp, s.att)
			streams = append(streams, s)
		}
	}
	w.sessions = append(w.sessions, linuxAtt)
	w.streams = len(streams)
	if lossy {
		w.inj = fault.New(node.World(), lossyPlan)
		w.checkEnd = func() error {
			if w.inj.Stats().Drops == 0 {
				return errors.New("attach-lossy: the injector dropped no messages")
			}
			return nil
		}
	}

	body := func(r *recorder) {
		for _, s := range streams {
			s := s
			start := sim.Time(newStream(seed, "churn-start", uint64(s.id)).uint64n(uint64(churnJitter)))
			node.Spawn(fmt.Sprintf("stream%d", s.id), func(a *sim.Actor) {
				a.Sleep(start)
				buf := make([]byte, pageSize)
				for j, n := range s.pages {
					t0 := a.Now()
					r.opStart(t0)
					if !churnLifecycle(a, r, s, j, n, seed, buf, !lossy) {
						return
					}
					r.opDone(a.Now(), a.Now()-t0, false)
				}
			})
		}
	}
	return w, body, nil
}

// churnLifecycle runs one named-segment lifecycle of n pages. It reports
// false after recording a check failure.
func churnLifecycle(a *sim.Actor, r *recorder, s *churnStream, j int, n uint64, seed uint64, buf []byte, checkRemoved bool) bool {
	name := fmt.Sprintf("churn-%d-%d", s.id, j)
	var (
		seg, found xpmem.Segid
		apid       xpmem.Apid
		va         pagetable.VA
		err        error
	)
	r.call(a, "make", func() { seg, err = s.exp.Make(a, s.slot, n*pageSize, rw, name) })
	if err != nil {
		r.fail("stream %d lifecycle %d: make: %v", s.id, j, err)
		return false
	}
	r.call(a, "lookup", func() { found, err = s.att.Lookup(a, name) })
	if err != nil || found != seg {
		r.fail("stream %d lifecycle %d: lookup %q: got segid %d (%v), want %d", s.id, j, name, found, err, seg)
		return false
	}
	r.call(a, "get", func() { apid, err = s.att.GetWith(a, seg, xpmem.GetOpts{Perm: rw}) })
	if err != nil {
		r.fail("stream %d lifecycle %d: get: %v", s.id, j, err)
		return false
	}
	r.call(a, "attach", func() {
		va, err = s.att.AttachWith(a, seg, apid, xpmem.AttachOpts{Bytes: n * pageSize, Perm: rw})
	})
	if err != nil {
		r.fail("stream %d lifecycle %d: attach: %v", s.id, j, err)
		return false
	}
	// The first and last patterned pages of the window read back their
	// seeded contents; page 0 is the write-check mailbox.
	for _, pg := range []uint64{1, n - 1} {
		if pg == 0 || pg >= n {
			continue
		}
		if _, err := s.att.Read(va+pagetable.VA(pg*pageSize), buf); err != nil {
			r.fail("stream %d lifecycle %d: read page %d: %v", s.id, j, pg, err)
			return false
		}
		if !bytes.Equal(buf, s.expect[pg-1]) {
			r.fail("stream %d lifecycle %d: page %d differs from its seeded pattern", s.id, j, pg)
			return false
		}
	}
	var tok, back [8]byte
	binary.LittleEndian.PutUint64(tok[:], derive(seed, "churn-token", uint64(s.id), uint64(j)))
	if _, err := s.att.Write(va, tok[:]); err != nil {
		r.fail("stream %d lifecycle %d: write: %v", s.id, j, err)
		return false
	}
	if _, err := s.exp.Read(s.slot, back[:]); err != nil || back != tok {
		r.fail("stream %d lifecycle %d: exporter does not see the attacher's write (%v)", s.id, j, err)
		return false
	}
	r.call(a, "detach", func() { err = s.att.Detach(a, va) })
	if err != nil {
		r.fail("stream %d lifecycle %d: detach: %v", s.id, j, err)
		return false
	}
	r.call(a, "release", func() { err = s.att.Release(a, seg, apid) })
	if err != nil {
		r.fail("stream %d lifecycle %d: release: %v", s.id, j, err)
		return false
	}
	r.call(a, "remove", func() { err = s.exp.Remove(a, seg) })
	if err != nil {
		r.fail("stream %d lifecycle %d: remove: %v", s.id, j, err)
		return false
	}
	if checkRemoved {
		r.call(a, "lookup", func() { _, err = s.exp.Lookup(a, name) })
		if !errors.Is(err, xpmem.ErrNoSuchSegid) {
			r.fail("stream %d lifecycle %d: lookup after remove: got %v, want ErrNoSuchSegid", s.id, j, err)
			return false
		}
	}
	return true
}
