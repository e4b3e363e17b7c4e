package cache

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// TestRingMatchesSlice drives a growable ring and a plain slice model
// through random pushes and pops at both ends, across several growths
// and wrap-arounds, and checks every live pair after each step.
func TestRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Ring[int64]
	type pair struct {
		p seq.Pos
		v int64
	}
	var model []pair
	next := seq.Pos(0)
	for step := 0; step < 5000; step++ {
		switch k := rng.Intn(10); {
		case k < 6:
			next += seq.Pos(1 + rng.Intn(3))
			r.Push(next, int64(next)*10)
			model = append(model, pair{next, int64(next) * 10})
		case k < 8 && len(model) > 0:
			r.PopFront()
			model = model[1:]
		case len(model) > 0:
			r.PopBack()
			model = model[:len(model)-1]
		}
		if r.Len() != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, r.Len(), len(model))
		}
		for i, m := range model {
			if p, v := r.At(i); p != m.p || v != m.v {
				t.Fatalf("step %d: At(%d) = (%d, %d), want (%d, %d)", step, i, p, v, m.p, m.v)
			}
		}
		if len(model) > 0 {
			if p, _ := r.Front(); p != model[0].p {
				t.Fatalf("step %d: Front %d, want %d", step, p, model[0].p)
			}
			if p, _ := r.Back(); p != model[len(model)-1].p {
				t.Fatalf("step %d: Back %d, want %d", step, p, model[len(model)-1].p)
			}
		}
	}
}

func TestRingPopBelow(t *testing.T) {
	r := NewRing[float64](4)
	for p := seq.Pos(1); p <= 4; p++ {
		r.Push(p, float64(p)/2)
	}
	var got []float64
	for {
		v, ok := r.PopBelow(3)
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 0.5 || got[1] != 1 {
		t.Errorf("PopBelow(3) popped %v, want [0.5 1] in eviction order", got)
	}
	if r.Len() != 2 {
		t.Errorf("len = %d, want 2", r.Len())
	}
	r.Reset()
	if _, ok := r.PopBelow(100); ok || r.Len() != 0 {
		t.Error("PopBelow on an empty ring must report false")
	}
}

// TestPutRowCopies: PutRow caches a copy of the batch row in slots the
// cache owns and accounts it like Put; once the slots exist, puts at
// capacity allocate nothing (the FIFO's ring never grows).
func TestPutRowCopies(t *testing.T) {
	schema, err := seq.NewSchema(seq.Field{Name: "v", Type: seq.TInt}, seq.Field{Name: "s", Type: seq.TString})
	if err != nil {
		t.Fatal(err)
	}
	in := seq.NewIntern()
	b := seq.NewBatchFor(schema, 8)
	for p := seq.Pos(1); p <= 5; p++ {
		if err := b.AppendRow(p, seq.Record{seq.Int(int64(p)), seq.Str("x")}, in); err != nil {
			t.Fatal(err)
		}
	}
	c := NewFIFO(2)
	for i := 0; i < 5; i++ {
		c.PutRow(seq.Pos(i+1), b, i, in)
	}
	if c.Len() != 2 || c.Puts() != 5 || c.Evictions() != 3 || c.Peak() != 2 {
		t.Fatalf("len=%d puts=%d evict=%d peak=%d", c.Len(), c.Puts(), c.Evictions(), c.Peak())
	}
	old, _ := c.Oldest()
	nw, _ := c.Newest()
	if old.Pos != 4 || old.Rec[0].AsInt() != 4 || nw.Pos != 5 || nw.Rec[0].AsInt() != 5 {
		t.Fatalf("Oldest %v, Newest %v", old, nw)
	}
	b.Reset() // the cached records must not alias the batch
	if old.Rec[0].AsInt() != 4 || !nw.Rec[1].Equal(seq.Str("x")) {
		t.Fatalf("cached records changed with the batch: %v %v", old.Rec, nw.Rec)
	}
	if err := b.AppendRow(1, seq.Record{seq.Int(7), seq.Str("y")}, in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset()
		for p := seq.Pos(1); p <= 10; p++ {
			c.PutRow(p, b, 0, in)
		}
	})
	if allocs != 0 {
		t.Errorf("PutRow allocates %.1f times per run once its slots exist", allocs)
	}
}
