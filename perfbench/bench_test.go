package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// small builds short versions of every workload: the same worlds and
// checks, fewer operations.
var small = map[string]builder{
	"attach-bulk":  func(s uint64) (*world, func(*recorder), error) { return buildBulk(s, 1, false) },
	"attach-churn": func(s uint64) (*world, func(*recorder), error) { return buildChurn(s, 4, false) },
	"attach-lossy": func(s uint64) (*world, func(*recorder), error) { return buildChurn(s, 32, true) },
	"coll":         func(s uint64) (*world, func(*recorder), error) { return buildColl(s, 4, false) },
}

// A short run of every workload passes its checks, and its virtual-time
// results are identical untraced, traced, and on a second run of the
// same seed — but not on another seed.
func TestShortRunsPassChecks(t *testing.T) {
	for _, name := range []string{"attach-bulk", "attach-churn", "attach-lossy", "coll"} {
		t.Run(name, func(t *testing.T) {
			const seed = 20261018
			var sims []simResult
			for _, traced := range []bool{false, true, false} {
				rr, err := runRound(small[name], seed, traced)
				if err != nil {
					t.Fatal(err)
				}
				if rr.checkErr != nil {
					t.Fatalf("traced=%v: %v", traced, rr.checkErr)
				}
				if rr.sim.Attempted == 0 || rr.sim.Failed != 0 {
					t.Fatalf("traced=%v: attempted %d failed %d", traced, rr.sim.Attempted, rr.sim.Failed)
				}
				sims = append(sims, rr.sim)
			}
			if sims[1] != sims[0] || sims[2] != sims[0] {
				t.Fatalf("virtual results differ between runs of one seed: %+v", sims)
			}
			other, err := runRound(small[name], seed+1, false)
			if err != nil {
				t.Fatal(err)
			}
			if other.sim.Digest == sims[0].Digest {
				t.Fatalf("seeds %d and %d gave identical latencies", seed, seed+1)
			}
		})
	}
}

func TestCorruptedPageFails(t *testing.T) {
	rr, err := runRound(func(s uint64) (*world, func(*recorder), error) { return buildBulk(s, 1, true) }, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if rr.checkErr == nil || !strings.Contains(rr.checkErr.Error(), "differs from its seeded pattern") {
		t.Fatalf("corrupted page not caught: %v", rr.checkErr)
	}
}

func TestWrongAllreduceSumFails(t *testing.T) {
	rr, err := runRound(func(s uint64) (*world, func(*recorder), error) { return buildColl(s, 2, true) }, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if rr.checkErr == nil || !strings.Contains(rr.checkErr.Error(), "serial byte-wise sum") {
		t.Fatalf("wrong allreduce sum not caught: %v", rr.checkErr)
	}
}

// The traced mode's per-package figures partition the profile total.
func TestLayerCPUAddsUp(t *testing.T) {
	var rounds []*roundResult
	for _, traced := range []bool{false, true} {
		rr, err := runRound(small["attach-churn"], 3, traced)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, rr)
	}
	m := map[string]metric{}
	layerMetrics(m, rounds)
	sum := 0.0
	for k, v := range m {
		if strings.HasSuffix(k, "cpu_us") && k != "profile.cpu_us" {
			sum += v.Value
		}
	}
	if total := m["profile.cpu_us"].Value; fmt.Sprintf("%.6g", sum) != fmt.Sprintf("%.6g", total) {
		t.Fatalf("package CPU sums to %v, profile total %v", sum, total)
	}
	if m["sim.dispatches_per_op"].Value == 0 || m["core.msgs_per_op"].Value == 0 || m["core.vt_syscall_us"].Value == 0 {
		t.Fatalf("traced counters empty: %v", m)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "xemem/internal/pagetable.(*Table).MapList", "xemem/internal/linuxos.(*Linux).MapRemote"}, "pagetable"},
		{[]string{"xemem/internal/sim/trace.(*Tracer).Span", "xemem/internal/sim.(*Actor).Charge"}, "other"},
		{[]string{"sort.Slice", "main.bulkOps"}, "bench"},
		{[]string{"xemem.(*Node).BootVM"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// quartiles transcribes Python's statistics.quantiles(n=4); these are
// its outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestStackCrossingIsRecognised(t *testing.T) {
	if !isStackCrossing(errors.New(`proc: region "xemem-remote" overlaps "stack"`)) {
		t.Fatal("stack crossing not recognised")
	}
	if isStackCrossing(errors.New("xemem: no such segid")) {
		t.Fatal("unrelated error taken for the stack crossing")
	}
}
