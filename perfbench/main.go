// Command perfbench is the repository benchmark: it drives four XEMEM
// workloads from outside the program, through the public node, xpmem,
// coll and fault APIs, and prints end-to-end metrics (tracing off) or
// per-layer metrics (--trace 1). See README.md.
//
//	perfbench --workload attach-churn --seed 1 --seconds 20 --trace 0
//	perfbench --workload coll --seed 1 --seconds 20 --repeat 5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// Round sizes: every round attempts the same operations, at least 1000
// of them so that ten latency samples lie above the p99.
const (
	churnLifecycles = 64   // per stream; 16 streams
	lossyLifecycles = 1024 // per stream; 16 streams
	collCycles      = 128  // of 8 collectives
	minSetups       = 5    // worlds built per run for setup_s
)

// builder builds one workload world for a seed and returns the body that
// runs its timed operations.
type builder func(seed uint64) (*world, func(*recorder), error)

var workloads = map[string]builder{
	"attach-bulk":  func(s uint64) (*world, func(*recorder), error) { return buildBulk(s, bulkCycles, false) },
	"attach-churn": func(s uint64) (*world, func(*recorder), error) { return buildChurn(s, churnLifecycles, false) },
	"attach-lossy": func(s uint64) (*world, func(*recorder), error) { return buildChurn(s, lossyLifecycles, true) },
	"coll":         func(s uint64) (*world, func(*recorder), error) { return buildColl(s, collCycles, false) },
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "attach-bulk, attach-churn, attach-lossy or coll")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, …) and print each end-to-end metric's median, quartiles and spread")
	flag.Parse()
	build, ok := workloads[*wl]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload attach-bulk|attach-churn|attach-lossy|coll, --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	// The serial engine runs one actor at a time. A second P only bounces
	// actor hand-offs between threads and runs idle-time GC workers, so
	// CPU per operation would follow host timing (coll measured 700–770 µs
	// at two Ps against 520–550 µs at one, on one seed).
	runtime.GOMAXPROCS(1)
	if *repeat > 0 {
		if err := repeatRuns(*wl, *seed, *seconds, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(build, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res != nil {
		printResult(res)
	}
	if err != nil || res == nil || !res.Correct {
		os.Exit(1)
	}
}

// printResult prints every metric by name and unit, then the result as
// the last line of standard output.
func printResult(res *result) {
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Printf("%-34s %16.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, _ := json.Marshal(res) // a map of plain numbers always marshals
	fmt.Println(string(line))
}

// roundResult is one round: one world built and run to its end.
type roundResult struct {
	sim      simResult
	setup    time.Duration // host CPU to build the world
	wall     time.Duration // host wall time of build + run
	runCPU   time.Duration
	runWall  time.Duration
	heap     heapCounters // deltas over the run phase
	rec      *recorder
	counter  *counter
	cpu      map[string]int64 // profile CPU ns per bucket (traced rounds)
	counts   worldCounts      // program counters read after the run (traced rounds)
	checkErr error
}

// buildWorld builds one world and measures its set-up CPU time.
func buildWorld(build builder, seed uint64) (*world, func(*recorder), time.Duration, error) {
	runtime.GC()
	c0 := cpuNow()
	w, body, err := build(seed)
	return w, body, cpuNow() - c0, err
}

// runRound builds a world and runs it; traced rounds install the
// counting observer, time every public call and take a CPU profile.
func runRound(build builder, seed uint64, traced bool) (*roundResult, error) {
	t0 := time.Now() //xemem:wallclock -- host-side benchmark timer
	w, body, setup, err := buildWorld(build, seed)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	rr := &roundResult{setup: setup}
	var calls *callTimer
	var prof bytes.Buffer
	if traced {
		calls = newCallTimer()
		rr.counter = newCounter(w)
		w.node.World().SetObserver(rr.counter)
	}
	rec := &recorder{bucket: w.bucket, streams: w.streams, calls: calls, lossy: w.inj != nil}
	rr.rec = rec
	body(rec)
	runtime.GC()
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	h0, c0, w0 := readHeap(), cpuNow(), time.Now() //xemem:wallclock -- host-side benchmark timer
	rec.begin()
	runErr := w.node.Run()
	rr.runCPU, rr.runWall = cpuNow()-c0, time.Since(w0) //xemem:wallclock -- host-side benchmark timer
	h1 := readHeap()
	if traced {
		pprof.StopCPUProfile()
	}
	if runErr != nil {
		return nil, fmt.Errorf("run: %w", runErr)
	}
	if traced {
		if rr.cpu, err = cpuByBucket(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	rr.heap = heapCounters{h1.allocBytes - h0.allocBytes, h1.allocObjects - h0.allocObjects, h1.gcCycles - h0.gcCycles}
	if traced {
		rr.counts = w.counts()
	}
	rr.wall = time.Since(t0) //xemem:wallclock -- host-side benchmark timer
	rr.sim = rec.sim()
	rr.checkErr = rec.checkErr
	if rr.checkErr == nil && w.checkEnd != nil {
		rr.checkErr = w.checkEnd()
	}
	if rr.checkErr == nil && rec.attempted == 0 {
		rr.checkErr = fmt.Errorf("no operation attempted")
	}
	return rr, nil
}

// run measures one workload: whole rounds of the same seed until the
// time is spent (traced runs alternate untraced and traced rounds), then
// extra world builds until setup_s has minSetups samples.
func run(build builder, seed uint64, budget time.Duration, traced bool) (*result, error) {
	start := time.Now() //xemem:wallclock -- host-side benchmark timer
	var rounds []*roundResult
	var setups []float64
	for i := 0; ; i++ {
		rr, err := runRound(build, seed, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
		setups = append(setups, rr.setup.Seconds())
		need := 1
		if traced {
			need = 2
		}
		elapsed := time.Since(start) //xemem:wallclock -- host-side benchmark timer
		if rr.checkErr != nil || (i+1 >= need && elapsed+rr.wall > budget) {
			break
		}
	}
	for len(setups) < minSetups {
		_, _, setup, err := buildWorld(build, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	ref := rounds[0].sim
	for i, rr := range rounds {
		res.Attempted += rr.sim.Attempted
		res.Failed += rr.sim.Failed
		if rr.checkErr != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: check failed in round %d: %v\n", i, rr.checkErr)
		} else if rr.sim != ref {
			// Every round replays the same seed; a traced round must also
			// leave the schedule untouched.
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: round %d (traced %v) virtual results %+v differ from round 0 %+v\n",
				i, rr.counter != nil, rr.sim, ref)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d latency samples, sim digest %s\n", len(rounds), ref.Samples, ref.Digest[:16])
	if ref.Samples < 1000 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: only %d latency samples per round; the p99 needs 1000\n", ref.Samples)
	}
	if traced {
		layerMetrics(res.Metrics, rounds)
		return res, nil
	}

	// Host figures: the median over every round's buckets, the run's very
	// first bucket excluded as warm-up.
	var cpu, kb []float64
	for i, rr := range rounds {
		skip := 0
		if i == 0 {
			skip = 1
		}
		if len(rr.rec.cpuPerOp) > skip {
			cpu = append(cpu, rr.rec.cpuPerOp[skip:]...)
			kb = append(kb, rr.rec.kbPerOp[skip:]...)
		}
	}
	m := res.Metrics
	m["host_cpu_us_per_op"] = metric{median(cpu), "us"}
	m["host_alloc_kb_per_op"] = metric{median(kb), "KB"}
	m["host_peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["setup_s"] = metric{median(setups), "s"}
	m["sim_op_p50_us"] = metric{ref.P50Us, "us"}
	m["sim_op_p99_us"] = metric{ref.P99Us, "us"}
	m["sim_ops_per_s"] = metric{ref.OpsPerS, "1/s"}
	return res, nil
}
