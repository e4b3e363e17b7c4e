package cache

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func rec(v int64) seq.Record { return seq.Record{seq.Int(v)} }

// lookup finds pos among the live entries by ordered traversal, the way
// operators read their caches.
func lookup(c *FIFO, pos seq.Pos) (seq.Record, bool) {
	var got seq.Record
	found := false
	c.Ascend(func(e seq.Entry) bool {
		if e.Pos == pos {
			got, found = e.Rec, true
		}
		return e.Pos < pos
	})
	return got, found
}

func TestNewFIFORejectsNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFIFO(%d) did not panic", c)
				}
			}()
			NewFIFO(c)
		}()
	}
}

func TestPutGet(t *testing.T) {
	c := NewFIFO(4)
	c.Put(10, rec(1))
	c.Put(20, rec(2))
	if r, ok := lookup(c, 10); !ok || r[0].AsInt() != 1 {
		t.Errorf("lookup(10) = %v, %v", r, ok)
	}
	if r, ok := lookup(c, 20); !ok || r[0].AsInt() != 2 {
		t.Errorf("lookup(20) = %v, %v", r, ok)
	}
	if _, ok := lookup(c, 15); ok {
		t.Error("lookup(15) must miss")
	}
	if c.Puts() != 2 || c.Evictions() != 0 || c.Peak() != 2 {
		t.Errorf("counters: puts=%d evict=%d peak=%d", c.Puts(), c.Evictions(), c.Peak())
	}
}

func TestFIFOEviction(t *testing.T) {
	c := NewFIFO(2)
	c.Put(1, rec(1))
	c.Put(2, rec(2))
	c.Put(3, rec(3)) // evicts pos 1
	if _, ok := lookup(c, 1); ok {
		t.Error("oldest entry must have been evicted")
	}
	if _, ok := lookup(c, 2); !ok {
		t.Error("pos 2 must survive")
	}
	if _, ok := lookup(c, 3); !ok {
		t.Error("pos 3 must survive")
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions())
	}
	if c.Len() != 2 || c.Peak() != 2 {
		t.Errorf("len=%d peak=%d", c.Len(), c.Peak())
	}
}

func TestOutOfOrderPutPanics(t *testing.T) {
	c := NewFIFO(4)
	c.Put(5, rec(1))
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Put must panic")
		}
	}()
	c.Put(5, rec(2))
}

func TestNullRecordsAreCacheable(t *testing.T) {
	c := NewFIFO(2)
	c.Put(7, nil)
	r, ok := lookup(c, 7)
	if !ok {
		t.Error("Null record at known position must be a cache hit")
	}
	if !r.IsNull() {
		t.Error("cached record must be Null")
	}
}

func TestEvictBelow(t *testing.T) {
	c := NewFIFO(8)
	for p := seq.Pos(1); p <= 6; p++ {
		c.Put(p, rec(int64(p)))
	}
	c.EvictBelow(4)
	if c.Len() != 3 {
		t.Errorf("len after EvictBelow = %d, want 3", c.Len())
	}
	if _, ok := lookup(c, 3); ok {
		t.Error("pos 3 must be evicted")
	}
	if _, ok := lookup(c, 4); !ok {
		t.Error("pos 4 must survive")
	}
	old, ok := c.Oldest()
	if !ok || old.Pos != 4 {
		t.Errorf("Oldest = %v, %v", old, ok)
	}
	nw, ok := c.Newest()
	if !ok || nw.Pos != 6 {
		t.Errorf("Newest = %v, %v", nw, ok)
	}
}

func TestOldestNewestEmpty(t *testing.T) {
	c := NewFIFO(2)
	if _, ok := c.Oldest(); ok {
		t.Error("empty Oldest must report false")
	}
	if _, ok := c.Newest(); ok {
		t.Error("empty Newest must report false")
	}
}

func TestAscend(t *testing.T) {
	c := NewFIFO(3)
	for p := seq.Pos(1); p <= 5; p++ { // wraps the ring
		c.Put(p, rec(int64(p)))
	}
	var got []seq.Pos
	c.Ascend(func(e seq.Entry) bool {
		got = append(got, e.Pos)
		return true
	})
	want := []seq.Pos{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Ascend = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Ascend = %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	c.Ascend(func(seq.Entry) bool { count++; return false })
	if count != 1 {
		t.Errorf("early-stop Ascend visited %d", count)
	}
}

func TestReset(t *testing.T) {
	c := NewFIFO(2)
	c.Put(1, rec(1))
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset must empty the cache")
	}
	c.Put(1, rec(2)) // re-inserting the same position after Reset is legal
	if r, ok := lookup(c, 1); !ok || r[0].AsInt() != 2 {
		t.Errorf("lookup after Reset = %v, %v", r, ok)
	}
	if c.Peak() != 1 {
		t.Errorf("peak = %d", c.Peak())
	}
}

// Property: after any in-order insertion sequence into a cache of capacity
// k, the cache holds exactly the last min(n, k) insertions, in order.
func TestFIFORetentionProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		posSet := make(map[seq.Pos]bool)
		for i := 0; i < n; i++ {
			posSet[seq.Pos(rng.Intn(200))] = true
		}
		var positions []seq.Pos
		for p := range posSet {
			positions = append(positions, p)
		}
		sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
		c := NewFIFO(capacity)
		for _, p := range positions {
			c.Put(p, rec(int64(p)))
		}
		keep := positions
		if len(keep) > capacity {
			keep = keep[len(keep)-capacity:]
		}
		if c.Len() != len(keep) {
			return false
		}
		kept := make(map[seq.Pos]bool, len(keep))
		for _, p := range keep {
			kept[p] = true
			r, ok := lookup(c, p)
			if !ok || r[0].AsInt() != int64(p) {
				return false
			}
		}
		for _, p := range positions {
			if !kept[p] {
				if _, ok := lookup(c, p); ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
