// Sequence groupings (§5.1 extension): querying a collection of
// same-schema sequences collectively. A lab database holds one result
// sequence per experiment run; the queries ask which runs satisfy
// conditions and compute per-run aggregates — the "database of
// experimental result sequences" use case the paper sketches.
//
//	go run ./examples/labruns
package main

import (
	"fmt"
	"log"
	"math/rand"

	seqproc "repro"
)

func main() {
	schema := seqproc.MustSchema(
		seqproc.Field{Name: "reading", Type: seqproc.TFloat},
	)
	db := seqproc.New()
	runs := db.NewGrouping("runs")

	// Twelve experiment runs: most stable around 50, some contaminated
	// with upward drift, some with dropouts (sparse readings).
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		var entries []seqproc.Entry
		level := 50 + rng.Float64()*4
		drift := 0.0
		if i%4 == 3 {
			drift = 0.25 // contaminated runs drift upward
		}
		density := 1.0
		if i%5 == 4 {
			density = 0.6 // flaky sensor
		}
		v := level
		for p := seqproc.Pos(1); p <= 200; p++ {
			v += drift + (rng.Float64()-0.5)*2
			if rng.Float64() >= density {
				continue
			}
			entries = append(entries, seqproc.Entry{Pos: p, Rec: seqproc.Record{seqproc.Float(v)}})
		}
		data, err := seqproc.NewData(schema, entries)
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("run-%02d", i)
		db.MustCreateSequence(name, data, seqproc.Sparse)
		if err := runs.Add(name); err != nil {
			log.Fatal(err)
		}
	}
	span := seqproc.NewSpan(1, 200)

	// Query 1: which runs ever had a 10-sample moving average above 70?
	// (The drift detector: stable runs stay near 50.)
	names, err := runs.Where("select(avg(runs, reading, 10), avg > 70.0)", span)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("runs whose 10-sample average exceeded 70: %v\n", names)

	// Query 2: the peak reading of every run.
	peaks, err := runs.AggregateEach("max(runs, reading)", seqproc.NewSpan(100, 100))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("peak reading per run:")
	for _, name := range runs.Members() {
		if v, ok := peaks[name]; ok {
			fmt.Printf("  %s: %.1f\n", name, v.AsFloat())
		}
	}
}
