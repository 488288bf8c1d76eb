package bitset

import (
	"math/rand"
	"strings"
	"testing"
)

// fillPattern materialises one named adversarial word pattern into b.
func fillPattern(b *Bitset, name string, rng *rand.Rand) {
	switch name {
	case "zero":
		// leave all bits clear
	case "ones":
		for i := uint64(0); i < b.Len(); i++ {
			b.Set(i)
		}
	case "alternating":
		for i := uint64(0); i < b.Len(); i += 2 {
			b.Set(i)
		}
	case "tail-only":
		// only bits in the final (possibly partial) word
		for i := b.Len() &^ 63; i < b.Len(); i++ {
			b.Set(i)
		}
	case "random":
		for i := uint64(0); i < b.Len(); i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
	default:
		panic("unknown pattern " + name)
	}
}

var kernelPatterns = []string{"zero", "ones", "alternating", "tail-only", "random"}

// Index shapes: random probes, duplicate-heavy probes, boundary probes
// (first and last bit), and a sequential sweep. Sizes cross the 64-block
// boundary both exactly and with tails.
func kernelIndexSets(n uint64, size int, rng *rand.Rand) map[string][]uint64 {
	random := make([]uint64, size)
	for i := range random {
		random[i] = uint64(rng.Int63n(int64(n)))
	}
	dup := make([]uint64, size)
	for i := range dup {
		dup[i] = uint64(i%3) * (n - 1) / 2
	}
	boundary := make([]uint64, size)
	for i := range boundary {
		if i%2 == 0 {
			boundary[i] = 0
		} else {
			boundary[i] = n - 1
		}
	}
	seq := make([]uint64, size)
	for i := range seq {
		seq[i] = uint64(i) % n
	}
	return map[string][]uint64{"random": random, "dup": dup, "boundary": boundary, "seq": seq}
}

// The dispatched kernels, the blocked kernels, and the portable reference
// must agree bit for bit on every pattern × index-shape × size, including
// the maintained ones counts.
func TestKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{1, 3, 63, 64, 65, 127, 128, 200, 6400}
	for _, nBits := range []uint64{64, 1000, 1 << 16} {
		src := New(nBits)
		for _, pat := range kernelPatterns {
			src.Reset()
			fillPattern(src, pat, rng)
			for _, size := range sizes {
				for shape, idx := range kernelIndexSets(nBits, size, rng) {
					gotB := src.Gather(idx)
					gotBlocked := New(uint64(size))
					gotBlocked.ones = gatherWordsBlocked(gotBlocked.words, src.words, src.n, idx)
					want := src.GatherRef(idx)
					if !gotB.Equal(want) || gotB.Count() != want.Count() {
						t.Fatalf("gather mismatch: n=%d pat=%s shape=%s size=%d", nBits, pat, shape, size)
					}
					if !gotBlocked.Equal(want) || gotBlocked.Count() != want.Count() {
						t.Fatalf("blocked gather mismatch: n=%d pat=%s shape=%s size=%d", nBits, pat, shape, size)
					}

					other := New(uint64(size))
					fillPattern(other, kernelPatterns[size%len(kernelPatterns)], rng)
					if got, want := src.GatherXorCount(idx, other), src.GatherXorCountRef(idx, other); got != want {
						t.Fatalf("gatherxor mismatch: n=%d pat=%s shape=%s size=%d: %d != %d",
							nBits, pat, shape, size, got, want)
					}
					if got, want := gatherXorCountBlocked(src.words, src.n, idx, other.words), src.GatherXorCountRef(idx, other); got != want {
						t.Fatalf("blocked gatherxor mismatch: n=%d pat=%s shape=%s size=%d: %d != %d",
							nBits, pat, shape, size, got, want)
					}
				}
			}
		}
	}
}

// Regather must bring a stale gather up to date exactly as a fresh Gather
// would: the words, the popcount delta, no write to the stale words, and
// no copy when nothing differs. The change bitmap flags
// every changed word plus unchanged ones, since a flag means "may have
// changed".
func TestRegatherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sizes := []int{1, 3, 63, 64, 65, 127, 128, 200, 6400}
	for _, nBits := range []uint64{64, 1000, 1 << 16} {
		src := New(nBits)
		for _, pat := range kernelPatterns {
			for _, size := range sizes {
				for shape, idx := range kernelIndexSets(nBits, size, rng) {
					src.Reset()
					fillPattern(src, pat, rng)
					stale := src.Gather(idx)
					ws := append([]uint64(nil), stale.UnsafeWords()...)
					changed := make([]uint64, (len(src.words)+63)/64)
					for f := rng.Intn(4); f >= 0; f-- {
						p := uint64(rng.Int63n(int64(nBits)))
						if rng.Intn(3) > 0 {
							src.Flip(p)
						}
						changed[p>>12] |= 1 << ((p >> 6) & 63)
					}
					if rng.Intn(4) == 0 {
						p := idx[rng.Intn(len(idx))] // a probed bit, so some slot differs
						src.Flip(p)
						changed[p>>12] |= 1 << ((p >> 6) & 63)
					}
					want := src.Gather(idx)
					out, delta := src.Regather(ws, idx, changed)
					got := FromWordsUnsafe(out, uint64(size))
					if !got.Equal(want) || int64(stale.Count())+delta != int64(want.Count()) {
						t.Fatalf("regather mismatch: n=%d pat=%s shape=%s size=%d", nBits, pat, shape, size)
					}
					if !FromWordsUnsafe(ws, uint64(size)).Equal(stale) {
						t.Fatalf("regather wrote the stale words: n=%d pat=%s shape=%s size=%d", nBits, pat, shape, size)
					}
					if aliased := &out[0] == &ws[0]; aliased != stale.Equal(want) {
						t.Fatalf("regather copied=%v with differences=%v: n=%d pat=%s shape=%s size=%d",
							!aliased, !stale.Equal(want), nBits, pat, shape, size)
					}
				}
			}
		}
	}
}

func TestXorCountWordsKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nBits := range []uint64{1, 63, 64, 65, 256, 6400} {
		for _, patA := range kernelPatterns {
			for _, patB := range kernelPatterns {
				a := New(nBits)
				b := New(nBits)
				fillPattern(a, patA, rng)
				fillPattern(b, patB, rng)
				want := a.XorCountWordsRef(b.UnsafeWords())
				if got := a.XorCountWords(b.UnsafeWords()); got != want {
					t.Fatalf("n=%d %s^%s: dispatch %d != ref %d", nBits, patA, patB, got, want)
				}
				if want != a.XorCount(b) {
					t.Fatalf("n=%d %s^%s: XorCount disagrees with words path", nBits, patA, patB)
				}
			}
		}
	}
}

// Out-of-range indices must panic with the identical message from every
// kernel, at every offset within a block (the blocked kernel checks four
// at a time and must still report the first bad index).
func TestKernelRangePanics(t *testing.T) {
	src := New(100)
	other64 := New(64)
	for _, badAt := range []int{0, 1, 2, 3, 31, 62, 63} {
		idx := make([]uint64, 64)
		idx[badAt] = 100 // == n, out of range
		wantMsg := "bitset: index 100 out of range [0, 100)"
		for name, fn := range map[string]func(){
			"Gather":            func() { src.Gather(idx) },
			"GatherRef":         func() { src.GatherRef(idx) },
			"blocked gather":    func() { gatherWordsBlocked(make([]uint64, 1), src.words, src.n, idx) },
			"GatherXorCount":    func() { src.GatherXorCount(idx, other64) },
			"GatherXorCountRef": func() { src.GatherXorCountRef(idx, other64) },
			"blocked gatherxor": func() { gatherXorCountBlocked(src.words, src.n, idx, other64.words) },
			"Regather":          func() { src.Regather(make([]uint64, 1), idx, make([]uint64, 1)) },
		} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s badAt=%d: no panic", name, badAt)
					}
					if msg, ok := r.(string); !ok || !strings.Contains(msg, wantMsg) {
						t.Fatalf("%s badAt=%d: panic %v, want %q", name, badAt, r, wantMsg)
					}
				}()
				fn()
			}()
		}
	}
}

// A short tail (under one block) with a bad index must also panic from the
// tail loops.
func TestKernelRangePanicsTail(t *testing.T) {
	src := New(50)
	idx := []uint64{1, 2, 50}
	for name, fn := range map[string]func(){
		"blocked gather":    func() { gatherWordsBlocked(make([]uint64, 1), src.words, src.n, idx) },
		"blocked gatherxor": func() { gatherXorCountBlocked(src.words, src.n, idx, New(3).words) },
		"ref gather":        func() { src.GatherRef(idx) },
		"Regather":          func() { src.Regather(make([]uint64, 1), idx, make([]uint64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic for tail out-of-range", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkGatherScalar(b *testing.B) {
	benchGather(b, func(src *Bitset, idx []uint64) uint64 { return src.GatherRef(idx).Count() })
}

func BenchmarkGatherBlocked(b *testing.B) {
	out := make([]uint64, 100)
	benchGather(b, func(src *Bitset, idx []uint64) uint64 {
		return gatherWordsBlocked(out, src.words, src.n, idx)
	})
}

func BenchmarkGatherXorCountScalar(b *testing.B) {
	o := New(6400)
	benchGather(b, func(src *Bitset, idx []uint64) uint64 { return src.GatherXorCountRef(idx, o) })
}

func BenchmarkGatherXorCountBlocked(b *testing.B) {
	o := New(6400)
	benchGather(b, func(src *Bitset, idx []uint64) uint64 {
		return gatherXorCountBlocked(src.words, src.n, idx, o.words)
	})
}

// BenchmarkRegather times the regather shape after a 64-edge write at
// paper scale: 64 flagged words of 2^18, so a 6400-slot table has about
// one flagged slot.
func BenchmarkRegather(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := New(1 << 24)
	idx := make([]uint64, 6400)
	for i := range idx {
		idx[i] = uint64(rng.Int63n(1 << 24))
	}
	ws := src.Gather(idx).UnsafeWords()
	changed := make([]uint64, (1<<18)/64)
	for i := 0; i < 64; i++ {
		w := rng.Int63n(1 << 18)
		changed[w>>6] |= 1 << (w & 63)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d := src.Regather(ws, idx, changed)
		benchOnes += uint64(d)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/slot")
}

var benchOnes uint64

// benchGather times fn over k=6400 random probes into a 2 MiB array — the
// paper-scale compare shape.
func benchGather(b *testing.B, fn func(*Bitset, []uint64) uint64) {
	rng := rand.New(rand.NewSource(1))
	src := New(1 << 24)
	for i := 0; i < 1<<20; i++ {
		src.Set(uint64(rng.Int63n(1 << 24)))
	}
	idx := make([]uint64, 6400)
	for i := range idx {
		idx[i] = uint64(rng.Int63n(1 << 24))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOnes += fn(src, idx)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/probe")
}
