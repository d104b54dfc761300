package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"xemem/internal/sim"
)

// callNames are the public xpmem calls timed from outside in traced
// rounds, each reported as "xpmem.<call>_host_us".
var callNames = []string{"make", "get", "attach", "detach", "release", "remove", "lookup"}

// layerMetrics fills m with the per-layer metrics of a traced run: the
// odd rounds are traced, the even ones are the untraced reference.
func layerMetrics(m map[string]metric, rounds []*roundResult) {
	var (
		tOps, uOps        int
		tCPU, uCPU, tWall time.Duration
		uObjects, uGC     uint64
		cpu               = map[string]int64{}
		vt                = map[string]sim.Time{}
		calls             = newCallTimer()
		backoff           sim.Time
		dispatches, msgs  int
		retries, drops    int
		frame, reg        sim.CacheStats
	)
	for _, rr := range rounds {
		ops := rr.sim.Attempted
		if rr.counter == nil {
			uOps += ops
			uCPU += rr.runCPU
			uObjects += rr.heap.allocObjects
			uGC += rr.heap.gcCycles
			continue
		}
		tOps += ops
		tCPU += rr.runCPU
		tWall += rr.runWall
		for b, ns := range rr.cpu {
			cpu[b] += ns
		}
		for k, v := range rr.counter.vt {
			vt[k] += v
		}
		for k, v := range rr.rec.calls.total {
			calls.total[k] += v
			calls.count[k] += rr.rec.calls.count[k]
		}
		backoff += rr.rec.backoff
		dispatches += rr.counter.dispatches
		c := rr.counts
		msgs += c.msgs
		retries += c.retries
		drops += c.drops
		frame.Hits += c.frame.Hits
		frame.Misses += c.frame.Misses
		reg.Hits += c.reg.Hits
		reg.Misses += c.reg.Misses
	}
	perT := func(x float64) float64 { return x / float64(tOps) }
	perU := func(x float64) float64 { return x / float64(uOps) }

	var total int64
	for _, b := range cpuBuckets {
		name := b + ".cpu_us"
		if strings.HasPrefix(b, "runtime.") {
			name = b + "_cpu_us"
		}
		m[name] = metric{perT(float64(cpu[b]) / 1e3), "us"}
		total += cpu[b]
	}
	m["profile.cpu_us"] = metric{perT(float64(total) / 1e3), "us"}
	for _, c := range callNames {
		v := 0.0
		if n := calls.count[c]; n > 0 {
			v = float64(calls.total[c].Nanoseconds()) / 1e3 / float64(n)
		}
		m["xpmem."+c+"_host_us"] = metric{v, "us"}
	}
	m["host.wall_us_per_op"] = metric{perT(float64(tWall.Nanoseconds()) / 1e3), "us"}
	m["runtime.mallocs_per_op"] = metric{perU(float64(uObjects)), "count"}
	m["runtime.gc_cycles_per_kop"] = metric{perU(float64(uGC)) * 1000, "count"}
	untraced := perU(float64(uCPU))
	m["trace.overhead_pct"] = metric{(perT(float64(tCPU)) - untraced) / untraced * 100, "%"}
	for _, name := range vtMetrics {
		m[name] = metric{perT(float64(vt[name]) / 1e3), "us"}
	}
	m["fault.vt_backoff_us"] = metric{perT(float64(backoff) / 1e3), "us"}
	m["sim.dispatches_per_op"] = metric{perT(float64(dispatches)), "count"}
	m["core.msgs_per_op"] = metric{perT(float64(msgs)), "count"}
	m["core.retries_per_op"] = metric{perT(float64(retries)), "count"}
	m["fault.drops_per_op"] = metric{perT(float64(drops)), "count"}
	m["core.frame_cache_hit_ratio"] = metric{frame.HitRate(), "ratio"}
	m["xpmem.regcache_hit_ratio"] = metric{reg.HitRate(), "ratio"}
}

// worldCounts are the program's own counters of one world.
type worldCounts struct {
	msgs, retries, drops int
	frame, reg           sim.CacheStats
}

// counts reads the world's module, session and injector counters.
func (w *world) counts() worldCounts {
	var c worldCounts
	for _, mod := range w.mods {
		c.msgs += mod.Stats.MsgsSent
		c.retries += mod.Stats.Retries
		c.frame.Hits += mod.Stats.FrameCache.Hits
		c.frame.Misses += mod.Stats.FrameCache.Misses
	}
	for _, s := range w.sessions {
		st := s.RegCacheStats()
		c.reg.Hits += st.Hits
		c.reg.Misses += st.Misses
	}
	if w.inj != nil {
		c.drops = w.inj.Stats().Drops
	}
	return c
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// repeatRuns runs the workload n times as child processes, one after
// another with seeds seed … seed+n−1, and prints every end-to-end
// metric's median, quartiles and spread (interquartile distance over the
// median), plus each run's failed share.
func repeatRuns(wl string, seed uint64, seconds, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: checks failed", s)
		}
		fmt.Printf("seed %d: attempted %d failed %d (share %.6f)\n", s, res.Attempted, res.Failed,
			float64(res.Failed)/float64(res.Attempted))
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	fmt.Printf("%-22s %14s %14s %14s %8s %-6s %s\n", "metric", "q1", "median", "q3", "spread", "unit", "values")
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q1, q2, q3 := quartiles(values[k])
		fmt.Printf("%-22s %14.4f %14.4f %14.4f %8.4f %-6s %v\n", k, q1, q2, q3, (q3-q1)/q2, units[k], values[k])
	}
	return nil
}
