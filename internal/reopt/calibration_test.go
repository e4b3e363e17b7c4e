package reopt

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/storage"
)

// syntheticMetrics fabricates a finalized metrics node whose exclusive
// time follows exact per-unit costs, so the regression has a known
// ground truth to recover.
func syntheticMetrics(rng *rand.Rand, seqNs, randNs, recNs, cacheNs float64) *exec.NodeMetrics {
	seqPages := int64(rng.Intn(200) + 1)
	randPages := int64(rng.Intn(50))
	rows := int64(rng.Intn(2000))
	cacheOps := int64(rng.Intn(20000))
	ns := float64(seqPages)*seqNs + float64(randPages)*randNs +
		float64(rows)*recNs + float64(cacheOps)*cacheNs
	return &exec.NodeMetrics{
		Label:     "synthetic",
		Pages:     storage.StatsSnapshot{SeqPages: seqPages, RandPages: randPages},
		HasPages:  true,
		ScanRows:  rows,
		ScanTime:  time.Duration(ns),
		CachePuts: cacheOps,
	}
}

func TestCalibrationRecoversKnownConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := &Calibration{}
	// Ground truth: seq page 1000ns, rand page 6000ns, record 12ns,
	// cache op 4ns — deliberately NOT the default ratios the ridge
	// uses as its prior, so recovery proves the data overrides the
	// prior, not that the prior echoes back.
	for i := 0; i < 400; i++ {
		c.Observe(syntheticMetrics(rng, 1000, 6000, 12, 4))
	}
	if !c.Ready() {
		t.Fatalf("not ready after %d samples", c.Samples())
	}
	k, ok := c.Constants()
	if !ok {
		t.Fatal("constants not derivable")
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"rand_page", k.RandPage, 6.0},
		{"per_record", k.PerRecord, 0.012},
		{"cache_access", k.CacheAccess, 0.004},
		{"ns_per_unit", k.NsPerUnit, 1000},
	}
	for _, ck := range checks {
		if rel := math.Abs(ck.got-ck.want) / ck.want; rel > 0.05 {
			t.Errorf("%s = %v, want %v (±5%%)", ck.name, ck.got, ck.want)
		}
	}
}

func TestCalibrationTooFewSamples(t *testing.T) {
	c := &Calibration{}
	rng := rand.New(rand.NewSource(1))
	c.Observe(syntheticMetrics(rng, 1000, 4000, 5, 2))
	if c.Ready() {
		t.Errorf("ready with %d samples, min is %d", c.Samples(), minSamples)
	}
	if _, ok := c.Constants(); ok {
		t.Error("constants derived from a single observation")
	}
}

// TestConstantsWeights: an unready calibration derives no constants, so
// its users keep the §4 defaults; a fit becomes weights that differ
// from the defaults only in RandPage, PerRecord and CacheAccess.
func TestConstantsWeights(t *testing.T) {
	def := exec.DefaultCostWeights()
	c := &Calibration{}
	rng := rand.New(rand.NewSource(3))
	for c.Samples() < minSamples-1 {
		c.Observe(syntheticMetrics(rng, 1000, 9000, 20, 5))
	}
	if k, ok := c.Constants(); ok {
		t.Fatalf("unready calibration (%d samples) derived %+v", c.Samples(), k)
	}
	for i := 0; i < 200; i++ {
		c.Observe(syntheticMetrics(rng, 1000, 9000, 20, 5))
	}
	k, ok := c.Constants()
	if !ok {
		t.Fatal("constants not derivable")
	}
	w := k.Weights()
	if w.RandPage != k.RandPage || w.PerRecord != k.PerRecord || w.CacheAccess != k.CacheAccess {
		t.Errorf("fitted constants not applied: weights %+v, constants %+v", w, k)
	}
	if w.RandPage == def.RandPage {
		t.Errorf("RandPage stayed at the default %g despite 9x ground truth", def.RandPage)
	}
	if w.SeqPage != def.SeqPage || w.Pred != def.Pred || w.ParallelStartup != def.ParallelStartup {
		t.Errorf("the fit touched weights it does not regress: %+v", w)
	}
}

// TestCalibrationConcurrent hammers one Calibration from concurrent
// runs — observers folding traces while readers derive constants. Run
// under -race in CI.
func TestCalibrationConcurrent(t *testing.T) {
	c := &Calibration{}
	var wg sync.WaitGroup
	const writers, readers, rounds = 8, 4, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				c.Observe(syntheticMetrics(rng, 1000, 4000, 5, 2))
			}
		}(int64(w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if k, ok := c.Constants(); ok {
					if math.IsNaN(k.RandPage) || k.RandPage <= 0 {
						t.Errorf("mid-run constants degenerate: %+v", k)
						return
					}
				}
				c.Samples()
			}
		}(r)
	}
	wg.Wait()
	if got, want := c.Samples(), int64(writers*rounds); got != want {
		t.Errorf("samples = %d, want %d (lost updates)", got, want)
	}
	k, ok := c.Constants()
	if !ok {
		t.Fatal("constants not derivable after concurrent load")
	}
	if rel := math.Abs(k.RandPage-4.0) / 4.0; rel > 0.05 {
		t.Errorf("rand_page after concurrent observes = %v, want ≈4", k.RandPage)
	}
}
