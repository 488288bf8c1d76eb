package poscache

import (
	"sync"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

func table(v uint64) []uint64 { return []uint64{v, v + 1, v + 2} }

func TestGetPutHitMiss(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(1, table(10))
	pos, ok := c.Get(1)
	if !ok || pos[0] != 10 {
		t.Fatalf("Get(1) = %v, %v", pos, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Len != 1 || st.Cap != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	c := New(3)
	c.Put(1, table(1))
	c.Put(2, table(2))
	c.Put(3, table(3))
	// Touch 1 so 2 becomes the least recently used.
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 should be cached")
	}
	c.Put(4, table(4)) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted (LRU)")
	}
	for _, u := range []stream.User{1, 3, 4} {
		if _, ok := c.Get(u); !ok {
			t.Fatalf("%d should be cached", u)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Len != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRePutRefreshesRecency(t *testing.T) {
	c := New(2)
	c.Put(1, table(1))
	c.Put(2, table(2))
	c.Put(1, table(100)) // refresh 1: now 2 is LRU
	c.Put(3, table(3))   // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	pos, ok := c.Get(1)
	if !ok || pos[0] != 100 {
		t.Fatalf("re-Put did not replace the table: %v, %v", pos, ok)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New(8)
	for u := stream.User(0); u < 100; u++ {
		c.Put(u, table(uint64(u)))
		if c.Len() > 8 {
			t.Fatalf("len %d exceeds cap 8", c.Len())
		}
	}
	if st := c.Stats(); st.Len != 8 || st.Evictions != 92 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	New(0)
}

// TestConcurrentAccess races readers and writers; run under -race it pins
// the thread-safety contract the parallel top-K path relies on.
func TestConcurrentAccess(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				u := stream.User((g*31 + i) % 64)
				if pos, ok := c.Get(u); ok {
					if pos[0] != uint64(u) {
						t.Errorf("user %d got table %v", u, pos)
						return
					}
				} else {
					c.Put(u, table(uint64(u)))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len %d exceeds cap", c.Len())
	}
}

func TestVersionedEntriesInvalidateOnStamp(t *testing.T) {
	c := New(4)
	c.PutVersioned(1, 7, table(70), 7000)
	// An older stamp than the caller's version is returned with its stamp,
	// so the caller can bring it up to date, but counts as a miss.
	pos, aux, stamp, ok := c.GetStamped(1, 8)
	if !ok || stamp != 7 || pos[0] != 70 || aux != 7000 {
		t.Fatalf("stale stamp: %v, aux=%d, stamp=%d, %v", pos, aux, stamp, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stale stamp counted as %+v, want one miss", st)
	}
	if _, _, stamp, ok := c.GetStamped(1, 7); !ok || stamp != 7 {
		t.Fatalf("matching stamp: stamp=%d, %v", stamp, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("matching stamp counted as %+v, want one hit", st)
	}
	// Re-put under a newer stamp replaces table, stamp, and aux in place.
	c.PutVersioned(1, 8, table(80), 8000)
	if pos, aux, stamp, ok := c.GetStamped(1, 8); !ok || stamp != 8 || pos[0] != 80 || aux != 8000 {
		t.Fatalf("new stamp: %v, aux=%d, stamp=%d, %v", pos, aux, stamp, ok)
	}
	if _, _, _, ok := c.GetStamped(2, 8); ok {
		t.Fatal("absent user reported an entry")
	}
	if c.Len() != 1 {
		t.Fatalf("re-put duplicated the entry: len=%d", c.Len())
	}
}

func TestVersionedAndPlainEntriesCoexist(t *testing.T) {
	// Plain Get/Put is stamp 0; a versioned store for the same user in a
	// DIFFERENT cache is the normal usage, but within one cache the stamp
	// namespace is shared — last put wins.
	c := New(2)
	c.Put(1, table(1))
	if pos, _, stamp, ok := c.GetStamped(1, 0); !ok || stamp != 0 || pos[0] != 1 {
		t.Fatalf("plain put invisible to stamp 0: %v %v", pos, ok)
	}
}
