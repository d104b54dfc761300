package main

import (
	"strings"

	"xemem/internal/sim"
)

// vtMetrics are the virtual-time per-layer metrics, in output order.
var vtMetrics = []string{
	"core.vt_syscall_us", "router.vt_route_us", "pisces.vt_msg_us", "pisces.vt_ipi_us",
	"pisces.vt_kernel_wait_us", "nameserver.vt_ns_us", "core.vt_walk_us", "core.vt_map_us",
	"core.vt_unmap_us", "palacios.vt_guest_map_us", "linuxos.vt_coherence_us",
	"xpmem.vt_regcache_probe_us", "coll.vt_copy_us", "coll.vt_sync_us",
	"fault.vt_delay_us",
}

// spanMetric maps a program cost label (Actor.Charge, Count) to its
// per-layer metric. Labels with a level suffix ("coll-copy:L0-numa")
// map by their prefix.
var spanMetric = map[string]string{
	"syscall":         "core.vt_syscall_us",
	"route-lookup":    "router.vt_route_us",
	"route":           "router.vt_route_us",
	"msg-send":        "pisces.vt_msg_us",
	"pci-copy":        "pisces.vt_msg_us",
	"ipi":             "pisces.vt_ipi_us",
	"irq-inject":      "pisces.vt_ipi_us",
	"hypercall":       "pisces.vt_ipi_us",
	"ns-op":           "nameserver.vt_ns_us",
	"mmap-setup":      "core.vt_map_us",
	"smartmap-attach": "core.vt_map_us",
	"smartmap-detach": "core.vt_unmap_us",
	"gpa-xlate":       "palacios.vt_guest_map_us",
	"map-insert":      "palacios.vt_guest_map_us",
	"map-remove":      "palacios.vt_guest_map_us",
	"mm-coherence":    "linuxos.vt_coherence_us",
	"reg-cache-probe": "xpmem.vt_regcache_probe_us",
	"coll-copy":       "coll.vt_copy_us",
	"coll-cico-in":    "coll.vt_copy_us",
	"coll-cico-out":   "coll.vt_copy_us",
	"coll-reduce":     "coll.vt_copy_us",
	"coll-sync":       "coll.vt_sync_us",
	"fault-delay":     "fault.vt_delay_us",
}

// resMetric maps a labelled resource occupancy (Resource.AcquireOp,
// Core.Exec) to its per-layer metric; the occupancy's duration counts.
var resMetric = map[string]string{
	"chan-copy":    "pisces.vt_msg_us",
	"xemem-msg":    "pisces.vt_ipi_us",
	"xemem-serve":  "core.vt_walk_us",
	"xemem-attach": "core.vt_map_us",
	"xemem-detach": "core.vt_unmap_us",
}

// counter is the traced rounds' sim.Observer: it sums virtual time per
// per-layer metric and counts dispatches. It only reads the events, so
// the schedule — and every sim_* result — is unchanged.
type counter struct {
	mgmt       *sim.Resource // the management enclave's kernel core
	mgmtInbox  string        // its module's receive queue
	vt         map[string]sim.Time
	dispatches int
}

func newCounter(w *world) *counter {
	return &counter{mgmt: w.mgmtCore, mgmtInbox: "inbox:" + w.node.LinuxModule().Name(), vt: map[string]sim.Time{}}
}

func labelMetric(op string) (string, bool) {
	if i := strings.IndexByte(op, ':'); i >= 0 {
		op = op[:i]
	}
	m, ok := spanMetric[op]
	return m, ok
}

func (c *counter) Span(_ *sim.Actor, op string, _, dur sim.Time) {
	if m, ok := labelMetric(op); ok {
		c.vt[m] += dur
	}
}

func (c *counter) AcquireRes(r *sim.Resource, _ *sim.Actor, op string, arrival, start, dur sim.Time, _ int) {
	if m, ok := resMetric[op]; ok {
		c.vt[m] += dur
	}
	if r == c.mgmt {
		c.vt["pisces.vt_kernel_wait_us"] += start - arrival
	}
}

// QueueWait counts the time messages wait in the management module's
// inbox for its kernel loop: the core-0 funnel of §5.3.
func (c *counter) QueueWait(queue string, _ *sim.Actor, enqueued, dequeued sim.Time, _ int) {
	if queue == c.mgmtInbox {
		c.vt["pisces.vt_kernel_wait_us"] += dequeued - enqueued
	}
}

func (c *counter) Count(name string, _ *sim.Actor, d sim.Time) {
	if m, ok := labelMetric(name); ok {
		c.vt[m] += d
	}
}

func (c *counter) Dispatch(*sim.Actor, sim.Time) { c.dispatches++ }
