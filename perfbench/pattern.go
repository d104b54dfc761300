package main

import "encoding/binary"

const pageSize = 4096

// splitmix is the SplitMix64 finaliser: a cheap, well-mixed hash used to
// derive independent streams from (seed, purpose, index) tuples.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive mixes a seed with a purpose tag and indices into a sub-seed.
func derive(seed uint64, tag string, idx ...uint64) uint64 {
	h := splitmix(seed)
	for i := 0; i < len(tag); i++ {
		h = splitmix(h ^ uint64(tag[i]))
	}
	for _, v := range idx {
		h = splitmix(h ^ v)
	}
	return h
}

// stream is the benchmark's own deterministic generator (SplitMix64),
// independent of the program's RNG so the inputs stay fixed for a seed
// whatever the program under test changes.
type stream struct{ s uint64 }

// newStream returns the generator for one purpose of one seed.
func newStream(seed uint64, tag string, idx ...uint64) *stream {
	return &stream{derive(seed, tag, idx...)}
}

func (r *stream) next() uint64 {
	r.s++
	return splitmix(r.s)
}

// uint64n returns a value in [0, n); the modulo bias is below 2^-40 for
// the small n used here.
func (r *stream) uint64n(n uint64) uint64 { return r.next() % n }

func (r *stream) intn(n int) int { return int(r.uint64n(uint64(n))) }

// shuffle permutes n elements (Fisher–Yates).
func (r *stream) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// fillPattern fills buf with the byte stream of one sub-seed. The
// benchmark computes every expected page from this function alone,
// apart from the program under test.
func fillPattern(buf []byte, sub uint64) {
	x := sub | 1
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// pagePattern returns the expected contents of one sampled page.
func pagePattern(seed uint64, buffer, page uint64) []byte {
	b := make([]byte, pageSize)
	fillPattern(b, derive(seed, "page", buffer, page))
	return b
}

// samplePages picks n distinct page indices in [lo, hi) for verification.
func samplePages(rng *stream, lo, hi uint64, n int) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, n)
	for len(out) < n {
		p := lo + rng.uint64n(hi-lo)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// strata returns n values in [0, m), one seeded draw from each of n
// equal slices of the range, in seeded order: a stratified sample whose
// distribution barely moves between seeds.
func strata(rng *stream, n int, m uint64) []uint64 {
	out := make([]uint64, n)
	for k := range out {
		out[k] = (uint64(k)*m + rng.uint64n(m)) / uint64(n)
	}
	rng.shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
