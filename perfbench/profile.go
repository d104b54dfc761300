package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the repository packages whose self time the traced
// mode reports, each as "<pkg>.cpu_us".
var cpuPackages = []string{
	"pagetable", "proc", "mem", "extent", "linuxos", "kitten", "palacios", "rbtree",
	"pisces", "core", "xproto", "router", "nameserver", "xpmem", "coll", "fault", "sim",
}

// cpuBuckets are every bucket a profile sample can be charged to: the
// packages above, the benchmark itself, any other repository package,
// and samples with no repository frame at all.
var cpuBuckets = append(append([]string(nil), cpuPackages...),
	"bench", "other", "runtime.gc", "runtime.sched")

// bucketOf charges one sample, given its function names innermost
// first: to the innermost frame in a repository package (so runtime and
// standard-library helpers count toward their caller), else to the
// garbage collector or the scheduler.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if b, ok := repoBucket(f); ok {
			return b
		}
	}
	for _, f := range frames {
		for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.sweepone"} {
			if strings.HasPrefix(f, p) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

func repoBucket(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench", true
	case strings.HasPrefix(fn, "xemem/internal/"):
		rest := fn[len("xemem/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 && rest[i] == '.' {
			for _, p := range cpuPackages {
				if p == rest[:i] {
					return p, true
				}
			}
		}
		return "other", true
	case strings.HasPrefix(fn, "xemem."):
		return "other", true
	}
	return "", false
}

// cpuByBucket decodes a gzipped pprof CPU profile and returns CPU
// nanoseconds per bucket. The buckets partition the samples, so they sum
// to the profile's total.
func cpuByBucket(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if p.cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		out[bucketOf(frames)] += s.values[p.cpuIdx]
	}
	return out, nil
}

// The subset of profile.proto the aggregation needs.
type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string-table index
	strings  []string
	cpuIdx   int
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var sampleTypes [][]byte
	err := walk(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1:
			sampleTypes = append(sampleTypes, msg)
		case 2:
			var s profSample
			err := walk(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return each(v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return each(v, m, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walk(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.cpuIdx = -1
	for i, st := range sampleTypes {
		var typ uint64
		if err := walk(st, func(f int, v uint64, _ []byte) error {
			if f == 1 {
				typ = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if int(typ) < len(p.strings) && p.strings[typ] == "cpu" {
			p.cpuIdx = i
		}
	}
	if p.cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	return p, nil
}

// walk visits every field of one protobuf message: varint fields with
// their value, length-delimited fields with their bytes.
func walk(b []byte, visit func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := visit(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := visit(field, 0, msg); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// each yields a repeated scalar field's values, packed (msg != nil) or
// not.
func each(v uint64, msg []byte, yield func(uint64)) error {
	if msg == nil {
		yield(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		msg = msg[n:]
		yield(x)
	}
	return nil
}
