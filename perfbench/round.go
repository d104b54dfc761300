package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/fault"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// world is one built workload world: the node, the handles the traced
// mode reads counters from, and the body that drives the timed
// operations when the node runs.
type world struct {
	node     *xemem.Node
	mods     []*core.Module
	sessions []*xpmem.Session
	inj      *fault.Injector
	// mgmtCore is the management enclave's kernel core: every
	// cross-enclave IPI is handled there (§5.3).
	mgmtCore *sim.Resource
	// bucket is the number of completed operations per host-CPU sample.
	bucket int
	// streams is the closed loop's client count for workloads that run
	// concurrent operation streams; 0 for sequential workloads.
	streams int
	// checkEnd runs after the node's world has finished: whole-world
	// output checks (e.g. that the lossy injector really dropped
	// messages).
	checkEnd func() error
}

// recorder collects one round's operation accounting, virtual-time
// latencies and per-bucket host figures. Workload bodies call opDone once
// per attempted operation; the serial engine runs one actor at a time, so
// no locking is needed.
type recorder struct {
	bucket  int
	streams int        // closed-loop client count, 0 when sequential
	calls   *callTimer // non-nil in traced rounds
	lossy   bool       // the world has a fault injector
	backoff sim.Time   // virtual time lost to timed-out attempts

	attempted, failed int
	lat               []int64  // virtual ns per successful operation
	first, last       sim.Time // virtual span of the timed operations
	started           bool
	checkErr          error

	cpuMark  time.Duration
	heapMark heapCounters
	inBucket int
	cpuPerOp []float64 // µs per operation, one per bucket
	kbPerOp  []float64 // heap KB allocated per operation, one per bucket
}

// begin marks the start of the timed phase in host terms.
func (r *recorder) begin() {
	r.cpuMark = cpuNow()
	r.heapMark = readHeap()
}

// opStart records the virtual start of an operation (for the round's
// virtual span).
func (r *recorder) opStart(t sim.Time) {
	if !r.started || t < r.first {
		r.first = t
		r.started = true
	}
}

// opDone accounts one attempted operation that ended at virtual time
// end. A failed operation contributes no latency sample.
func (r *recorder) opDone(end sim.Time, lat sim.Time, failed bool) {
	r.attempted++
	if failed {
		r.failed++
	} else {
		r.lat = append(r.lat, int64(lat))
	}
	if end > r.last {
		r.last = end
	}
	r.inBucket++
	if r.inBucket == r.bucket {
		now, heap := cpuNow(), readHeap()
		n := float64(r.inBucket)
		r.cpuPerOp = append(r.cpuPerOp, float64(now-r.cpuMark)/1e3/n)
		r.kbPerOp = append(r.kbPerOp, float64(heap.allocBytes-r.heapMark.allocBytes)/1024/n)
		r.cpuMark, r.heapMark, r.inBucket = now, heap, 0
	}
}

// fail records the first output-check failure of the round.
func (r *recorder) fail(format string, args ...any) {
	if r.checkErr == nil {
		r.checkErr = fmt.Errorf(format, args...)
	}
}

// simResult is the virtual-time outcome of one round: a pure function
// of the workload and seed.
type simResult struct {
	Attempted, Failed int
	P50Us, P99Us      float64
	OpsPerS           float64
	Digest            string // over every latency sample and the accounting
	Samples           int
}

func (r *recorder) sim() simResult {
	s := append([]int64(nil), r.lat...)
	h := sha256.New()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "%d/%d/%d/%d", r.attempted, r.failed, r.first, r.last)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	res := simResult{
		Attempted: r.attempted, Failed: r.failed, Samples: len(s),
		P50Us:  float64(percentile(s, 50)) / 1e3,
		P99Us:  float64(percentile(s, 99)) / 1e3,
		Digest: fmt.Sprintf("%x", h.Sum(nil)),
	}
	// A closed loop of N streams completes N / E[latency] operations per
	// second (Little's law), which a straggling stream's tail does not
	// distort; a sequential workload's rate is its count over its span.
	var sum int64
	for _, v := range s {
		sum += v
	}
	switch span := r.last - r.first; {
	case r.streams > 0 && sum > 0:
		res.OpsPerS = float64(r.streams) * float64(len(s)) / (float64(sum) / 1e9)
	case span > 0:
		res.OpsPerS = float64(len(s)) / (float64(span) / 1e9)
	}
	return res
}

// callTimer measures host wall time around each public xpmem call in a
// traced round.
type callTimer struct {
	total map[string]time.Duration
	count map[string]int
}

func newCallTimer() *callTimer {
	return &callTimer{total: map[string]time.Duration{}, count: map[string]int{}}
}

// call runs one public xpmem call made by actor a. In a traced round
// it charges the call's host wall time to name; in a world with a fault
// injector it also accounts the virtual time the call lost to timed-out
// attempts.
func (r *recorder) call(a *sim.Actor, name string, fn func()) {
	v0 := a.Now()
	if r.calls == nil {
		fn()
	} else {
		t0 := time.Now() //xemem:wallclock -- host-side benchmark timer
		fn()
		r.calls.total[name] += time.Since(t0) //xemem:wallclock -- host-side benchmark timer
		r.calls.count[name]++
	}
	if r.lossy {
		r.backoff += timedOut(a.Now() - v0)
	}
}

// timedOut infers how much of a call's virtual duration d went to
// attempts abandoned at their deadline under the default retry policy
// (timeouts T, 2T, 4T, …): the largest sum of consecutive timeouts that
// fits in d. The first timeout (50 ms) dwarfs any answered request in
// the lossy workload, so the inference is exact unless two requests of
// one call both time out.
func timedOut(d sim.Time) sim.Time {
	var lost sim.Time
	t := core.DefaultRPCTimeout
	for lost+t <= d {
		lost += t
		t = sim.Time(float64(t) * core.DefaultRPCBackoff)
	}
	return lost
}
