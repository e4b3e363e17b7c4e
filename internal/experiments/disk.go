package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// The durable-tier benchmark (seqbench -disk, BENCH_disk.json) answers
// two questions about the disk subsystem of docs/STORAGE.md (what the
// buffer pool buys is bench/'s disk_mixed workload):
//
//  1. Does positional clustering beat an append-friendly layout for
//     sequence access? A dense sequence is stored both ways — the
//     page-file layout (records addressable by position, one page per
//     probe) against an experiments-local LSM-style layout of K sorted
//     append runs whose key ranges overlap (late-arriving records
//     land in whichever run was open). The LSM probe must consult a
//     page per candidate run; the head-to-head measures that read
//     amplification directly.
//  2. Do cold traces calibrate the cost model? EXPLAIN ANALYZE runs
//     over cold disk-backed stores feed a reopt.Calibration; the
//     regressed seq/rand constants are compared against the §4
//     defaults on held-out runs.

// diskBenchPageSize keeps pages small enough that even the quick sweep
// touches hundreds of them.
const diskBenchPageSize = 4096

// diskBenchPoolPages holds the largest data set resident, so no run
// evicts and every pool miss is a page's first read (16 MiB at 4 KiB
// pages).
const diskBenchPoolPages = 4096

// diskLayoutRuns is K, the sorted-run count of the LSM-style layout.
const diskLayoutRuns = 8

// diskProbeStride scatters probe positions; prime, so the positions are
// distinct for every sweep size used here.
const diskProbeStride = 9973

// DiskLayoutPoint is the dense-sequence head-to-head at one size:
// the page-file layout against the K-run LSM-style append layout.
// Page counts are the like-for-like metric; wall times favor the
// experiments-local LSM, which skips the real tier's CRC verification,
// pool bookkeeping, and record decoding.
type DiskLayoutPoint struct {
	N    int64 `json:"n"`
	Runs int   `json:"runs"`
	Ops  int   `json:"ops"`

	PageProbeNsPerOp int64   `json:"page_probe_ns_per_op"`
	LSMProbeNsPerOp  int64   `json:"lsm_probe_ns_per_op"`
	PageProbePages   float64 `json:"page_probe_pages_per_op"`
	LSMProbePages    float64 `json:"lsm_probe_pages_per_op"`
	// ProbeReadAmp is LSM pages-per-probe over page-file
	// pages-per-probe — the read amplification positional clustering
	// avoids.
	ProbeReadAmp float64 `json:"probe_read_amp"`

	PageScanNs    int64 `json:"page_scan_ns"`
	LSMScanNs     int64 `json:"lsm_scan_ns"`
	PageScanPages int64 `json:"page_scan_pages"`
	LSMScanPages  int64 `json:"lsm_scan_pages"`
}

// DiskCalibration is the cold-trace calibration round: the held-out
// record (the -reopt calibration's methodology, see HeldOut) of
// EXPLAIN ANALYZE runs over cold disk-backed stores, next to the
// default constants it regressed.
type DiskCalibration struct {
	HeldOut
	Defaults map[string]float64 `json:"default_constants"`
}

// DiskBench is the BENCH_disk.json artifact.
type DiskBench struct {
	PageSize    int               `json:"page_size"`
	PoolPages   int               `json:"pool_pages"`
	Quick       bool              `json:"quick"`
	Layout      []DiskLayoutPoint `json:"layout_head_to_head"`
	Calibration *DiskCalibration  `json:"calibration"`
}

// diskBenchConfig is every benchmark database's configuration: small
// pages, a pool that holds the working set, no background checkpointer
// (the runs checkpoint explicitly to make DropCaches total).
func diskBenchConfig() disk.Config {
	return disk.Config{
		PageSize:           diskBenchPageSize,
		PoolPages:          diskBenchPoolPages,
		CheckpointInterval: -1,
	}
}

// diskDenseData builds n dense records at positions 1..n with one
// float column (reoptCloseSchema).
func diskDenseData(n int64) (*seq.Materialized, error) {
	entries := make([]seq.Entry, n)
	for i := range entries {
		p := int64(i) + 1
		entries[i] = seq.Entry{Pos: seq.Pos(p), Rec: seq.Record{seq.Float(float64(p%97) + 0.25)}}
	}
	return seq.NewMaterialized(reoptCloseSchema, entries)
}

// diskProbePositions returns ops distinct scattered positions in
// [1, n].
func diskProbePositions(n int64, ops int) []seq.Pos {
	ps := make([]seq.Pos, ops)
	for i := range ps {
		ps[i] = seq.Pos(1 + (int64(i)*diskProbeStride)%n)
	}
	return ps
}

// diskCold forces the next run to read from the page files: every
// dirty frame is checkpointed out, then every clean frame is dropped.
func diskCold(db *disk.DB) error {
	if err := db.Checkpoint(); err != nil {
		return err
	}
	db.DropCaches()
	return nil
}

func diskSizes(quick bool) ([]int64, int) {
	if quick {
		return []int64{5_000}, 64
	}
	return []int64{50_000, 200_000}, 512
}

// drainCursor counts a cursor's entries without retaining them, so
// timed scans measure page delivery, not result allocation.
func drainCursor(c seq.Cursor) (int64, error) {
	defer c.Close()
	var rows int64
	for {
		if _, _, ok := c.Next(); !ok {
			break
		}
		rows++
	}
	return rows, c.Err()
}

func timeRun(fn func() error) (int64, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	return time.Since(start).Nanoseconds(), nil
}

// ---- LSM-style append layout (experiments-local) ----

// lsmRecSize is the fixed on-disk record: position int64 + value
// float64, both big-endian.
const lsmRecSize = 16

// lsmRun is one sorted run file with in-memory fence pointers (the
// first position of each page), the standard per-run index an LSM
// keeps so a point lookup costs one page read per candidate run.
type lsmRun struct {
	f     *os.File
	fence []seq.Pos
	count []int // records per page
}

// lsmLayout stores a sequence as K sorted append runs whose position
// ranges overlap — the shape an append-optimized store settles into
// when records arrive out of position order and compaction hasn't
// caught up. Probes and scans count real page reads (os.File.ReadAt).
type lsmLayout struct {
	runs    []*lsmRun
	perPage int
	reads   int64 // page reads since last takeReads
}

// buildLSM writes n dense records into K overlapping sorted runs:
// record at position p lands in run (p-1) mod K, so every run spans
// the whole position range.
func buildLSM(dir string, n int64, k, pageSize int) (*lsmLayout, error) {
	perPage := pageSize / lsmRecSize
	l := &lsmLayout{perPage: perPage}
	for r := 0; r < k; r++ {
		var recs []seq.Pos
		for p := int64(r + 1); p <= n; p += int64(k) {
			recs = append(recs, seq.Pos(p))
		}
		run := &lsmRun{}
		buf := make([]byte, 0, ((len(recs)+perPage-1)/perPage)*pageSize)
		for i, p := range recs {
			if i%perPage == 0 {
				run.fence = append(run.fence, p)
				run.count = append(run.count, 0)
			}
			run.count[len(run.count)-1]++
			var rec [lsmRecSize]byte
			binary.BigEndian.PutUint64(rec[:8], uint64(p))
			binary.BigEndian.PutUint64(rec[8:], math.Float64bits(float64(int64(p)%97)+0.25))
			buf = append(buf, rec[:]...)
			if (i+1)%perPage == 0 || i == len(recs)-1 {
				// Pad the page out to pageSize.
				pad := pageSize - (run.count[len(run.count)-1] * lsmRecSize)
				buf = append(buf, make([]byte, pad)...)
			}
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("run-%d.seg", r)))
		if err != nil {
			return nil, err
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return nil, err
		}
		run.f = f
		l.runs = append(l.runs, run)
	}
	return l, nil
}

func (l *lsmLayout) close() {
	for _, r := range l.runs {
		r.f.Close()
	}
}

func (l *lsmLayout) takeReads() int64 {
	n := l.reads
	l.reads = 0
	return n
}

// readPage reads page pi of run r, counting the read.
func (l *lsmLayout) readPage(r *lsmRun, pi int, buf []byte) ([]byte, error) {
	pageSize := l.perPage * lsmRecSize
	l.reads++
	if _, err := r.f.ReadAt(buf[:pageSize], int64(pi)*int64(pageSize)); err != nil {
		return nil, err
	}
	return buf[:r.count[pi]*lsmRecSize], nil
}

// probe finds pos: every run's fence pointers nominate a candidate
// page, and because run ranges overlap, absence is only learned by
// reading the page — the LSM read amplification.
func (l *lsmLayout) probe(pos seq.Pos, buf []byte) (float64, error) {
	for _, r := range l.runs {
		pi := sort.Search(len(r.fence), func(i int) bool { return r.fence[i] > pos }) - 1
		if pi < 0 {
			continue
		}
		page, err := l.readPage(r, pi, buf)
		if err != nil {
			return 0, err
		}
		// Records in a page are sorted: binary search.
		lo, hi := 0, r.count[pi]-1
		for lo <= hi {
			mid := (lo + hi) / 2
			p := seq.Pos(binary.BigEndian.Uint64(page[mid*lsmRecSize:]))
			switch {
			case p == pos:
				return math.Float64frombits(binary.BigEndian.Uint64(page[mid*lsmRecSize+8:])), nil
			case p < pos:
				lo = mid + 1
			default:
				hi = mid - 1
			}
		}
	}
	return 0, fmt.Errorf("lsm: position %d not found", pos)
}

// scan merges all runs in position order, reading each run's pages
// sequentially but interleaved across the K files.
func (l *lsmLayout) scan() (int64, error) {
	type cursor struct {
		run     *lsmRun
		page    []byte
		pi, ri  int
		current seq.Pos
		done    bool
	}
	pageSize := l.perPage * lsmRecSize
	var cs []*cursor
	for _, r := range l.runs {
		c := &cursor{run: r, page: make([]byte, pageSize)}
		if len(r.fence) == 0 {
			c.done = true
		} else {
			page, err := l.readPage(r, 0, c.page)
			if err != nil {
				return 0, err
			}
			c.page = c.page[:cap(c.page)]
			c.current = seq.Pos(binary.BigEndian.Uint64(page))
		}
		cs = append(cs, c)
	}
	var rows int64
	for {
		var best *cursor
		for _, c := range cs {
			if !c.done && (best == nil || c.current < best.current) {
				best = c
			}
		}
		if best == nil {
			return rows, nil
		}
		rows++
		best.ri++
		if best.ri == best.run.count[best.pi] {
			best.ri = 0
			best.pi++
			if best.pi == len(best.run.fence) {
				best.done = true
				continue
			}
			if _, err := l.readPage(best.run, best.pi, best.page); err != nil {
				return 0, err
			}
		}
		best.current = seq.Pos(binary.BigEndian.Uint64(best.page[best.ri*lsmRecSize:]))
	}
}

// DiskLayoutSweep runs the dense-sequence head-to-head per size.
func DiskLayoutSweep(quick bool) ([]DiskLayoutPoint, error) {
	sizes, ops := diskSizes(quick)
	var out []DiskLayoutPoint
	for _, n := range sizes {
		pt, err := diskLayoutOne(n, ops)
		if err != nil {
			return nil, fmt.Errorf("disk layout n=%d: %w", n, err)
		}
		out = append(out, *pt)
	}
	return out, nil
}

func diskLayoutOne(n int64, ops int) (*DiskLayoutPoint, error) {
	dir, err := os.MkdirTemp("", "seqbench-lsm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Page-file side: the real disk tier, probed and scanned cold.
	db, err := disk.Open(filepath.Join(dir, "pagefile"), diskBenchConfig())
	if err != nil {
		return nil, err
	}
	defer db.Close()
	data, err := diskDenseData(n)
	if err != nil {
		return nil, err
	}
	if err := db.CreateSequence("d", data, storage.KindDense); err != nil {
		return nil, err
	}
	ds, _ := db.Seq("d")
	stats := &storage.Stats{}
	st := ds.Latest().Fork(stats)
	positions := diskProbePositions(n, ops)

	pt := &DiskLayoutPoint{N: n, Runs: diskLayoutRuns, Ops: ops}
	if err := diskCold(db); err != nil {
		return nil, err
	}
	stats.SnapshotAndReset()
	probeNs, err := timeRun(func() error {
		for _, p := range positions {
			if _, err := st.Probe(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	snap := stats.SnapshotAndReset()
	pt.PageProbeNsPerOp = probeNs / int64(ops)
	pt.PageProbePages = float64(snap.RandPages) / float64(ops)

	if err := diskCold(db); err != nil {
		return nil, err
	}
	stats.SnapshotAndReset()
	pt.PageScanNs, err = timeRun(func() error {
		_, err := drainCursor(st.Scan(seq.NewSpan(1, seq.Pos(n))))
		return err
	})
	if err != nil {
		return nil, err
	}
	pt.PageScanPages = stats.SnapshotAndReset().Pages()

	// LSM side: same records in K overlapping sorted append runs.
	lsm, err := buildLSM(dir, n, diskLayoutRuns, diskBenchPageSize)
	if err != nil {
		return nil, err
	}
	defer lsm.close()
	buf := make([]byte, diskBenchPageSize)
	lsmProbeNs, err := timeRun(func() error {
		for _, p := range positions {
			if _, err := lsm.probe(p, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pt.LSMProbeNsPerOp = lsmProbeNs / int64(ops)
	pt.LSMProbePages = float64(lsm.takeReads()) / float64(ops)

	var rows int64
	pt.LSMScanNs, err = timeRun(func() error {
		rows, err = lsm.scan()
		return err
	})
	if err != nil {
		return nil, err
	}
	if rows != n {
		return nil, fmt.Errorf("lsm scan merged %d of %d records", rows, n)
	}
	pt.LSMScanPages = lsm.takeReads()
	if pt.PageProbePages > 0 {
		pt.ProbeReadAmp = pt.LSMProbePages / pt.PageProbePages
	}
	return pt, nil
}

// ---- cold-trace calibration ----

// diskCalShapes builds the calibration workloads over a disk-backed
// database: a full scan, a selection, a window aggregate, and a
// sparse-over-dense compose whose right leg is probed. Each shape
// contributes the counter-bearing nodes of its metrics tree as
// regression samples.
func diskCalShapes(db *disk.DB, n int64) (map[string]func() (*algebra.Node, error), error) {
	mk := func(name string, data *seq.Materialized, kind storage.Kind) (storage.Store, error) {
		if err := db.CreateSequence(name, data, kind); err != nil {
			return nil, err
		}
		ds, ok := db.Seq(name)
		if !ok {
			return nil, fmt.Errorf("sequence %q vanished after create", name)
		}
		return ds.Latest().Fork(&storage.Stats{}), nil
	}
	dense, err := diskDenseData(n)
	if err != nil {
		return nil, err
	}
	dst, err := mk(fmt.Sprintf("dense%d", n), dense, storage.KindDense)
	if err != nil {
		return nil, err
	}
	// The sparse left leg is thin enough (1/512) that composing it
	// against the dense leg prices probing below streaming — so the
	// compose trace carries real random-page I/O into the regression.
	var ses []seq.Entry
	for p := int64(1); p <= n; p += 512 {
		ses = append(ses, seq.Entry{Pos: seq.Pos(p), Rec: seq.Record{seq.Float(float64(p%89) + 0.5)}})
	}
	sparse, err := seq.NewMaterialized(reoptCloseSchema, ses)
	if err != nil {
		return nil, err
	}
	sst, err := mk(fmt.Sprintf("sparse%d", n), sparse, storage.KindSparse)
	if err != nil {
		return nil, err
	}

	denseBase := func() *algebra.Node { return algebra.Base("d", dst) }
	return map[string]func() (*algebra.Node, error){
		"scan": func() (*algebra.Node, error) { return denseBase(), nil },
		"select": func() (*algebra.Node, error) {
			c, err := expr.NewCol(reoptCloseSchema, "close")
			if err != nil {
				return nil, err
			}
			return algebra.Select(denseBase(), mustGt(c, 48))
		},
		"agg": func() (*algebra.Node, error) {
			return algebra.AggCol(denseBase(), algebra.AggSum, "close", algebra.Window{Lo: -7, Hi: 0}, "wsum")
		},
		"compose": func() (*algebra.Node, error) {
			left := algebra.Base("s", sst)
			right := denseBase()
			schema, err := algebra.ComposeSchema(left, right, "l", "r")
			if err != nil {
				return nil, err
			}
			lc, err := expr.NewCol(schema, "l.close")
			if err != nil {
				return nil, err
			}
			rc, err := expr.NewCol(schema, "r.close")
			if err != nil {
				return nil, err
			}
			pred, err := expr.NewBin(expr.OpLe, lc, rc)
			if err != nil {
				return nil, err
			}
			return algebra.Compose(left, right, pred, "l", "r")
		},
	}, nil
}

func mustGt(c expr.Expr, v float64) expr.Expr {
	e, err := expr.NewBin(expr.OpGt, c, expr.Literal(seq.Float(v)))
	if err != nil {
		panic(err)
	}
	return e
}

// DiskCalibrationRound regresses cost constants from cold-cache
// EXPLAIN ANALYZE traces and scores them against the defaults on a
// held-out cold round (the reopt methodology over real disk I/O).
func DiskCalibrationRound(quick bool) (*DiskCalibration, error) {
	sizes := []int64{30_000, 120_000}
	if quick {
		sizes = []int64{2_000, 6_000}
	}
	dir, err := os.MkdirTemp("", "seqbench-diskcal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := disk.Open(dir, diskBenchConfig())
	if err != nil {
		return nil, err
	}
	defer db.Close()

	type shape struct {
		name  string
		n     int64
		build func() (*algebra.Node, error)
	}
	var shapes []shape
	for _, n := range sizes {
		byName, err := diskCalShapes(db, n)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(byName))
		for name := range byName {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			shapes = append(shapes, shape{name: name, n: n, build: byName[name]})
		}
	}

	run := func(s shape, opts core.Options) (*core.Analysis, error) {
		root, err := s.build()
		if err != nil {
			return nil, fmt.Errorf("%s/%d: %w", s.name, s.n, err)
		}
		res, err := core.Optimize(root, seq.NewSpan(1, seq.Pos(s.n)), opts)
		if err != nil {
			return nil, fmt.Errorf("%s/%d: %w", s.name, s.n, err)
		}
		if err := diskCold(db); err != nil {
			return nil, err
		}
		a, err := res.RunAnalyze()
		if err != nil {
			return nil, fmt.Errorf("%s/%d: %w", s.name, s.n, err)
		}
		return a, nil
	}

	h, err := heldOut(len(shapes), func(i int, w *exec.CostWeights) (*core.Analysis, error) {
		return run(shapes[i], core.Options{Params: w})
	})
	if err != nil {
		return nil, fmt.Errorf("disk calibration: %w", err)
	}
	d := exec.DefaultCostWeights()
	return &DiskCalibration{HeldOut: h, Defaults: map[string]float64{
		"rand_page": d.RandPage, "per_record": d.PerRecord, "cache_access": d.CacheAccess,
	}}, nil
}

// DiskBenchmark runs the full -disk artifact.
func DiskBenchmark(quick bool) (*DiskBench, error) {
	layout, err := DiskLayoutSweep(quick)
	if err != nil {
		return nil, err
	}
	cal, err := DiskCalibrationRound(quick)
	if err != nil {
		return nil, err
	}
	return &DiskBench{
		PageSize:    diskBenchPageSize,
		PoolPages:   diskBenchPoolPages,
		Quick:       quick,
		Layout:      layout,
		Calibration: cal,
	}, nil
}

// RenderDisk formats the artifact as the table seqbench prints next to
// the JSON.
func RenderDisk(b *DiskBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "layout head-to-head (page size %d, pool %d pages): page file vs %d-run LSM-style append layout\n",
		b.PageSize, b.PoolPages, diskLayoutRuns)
	fmt.Fprintf(&sb, "%-9s %-14s %-14s %-10s %-10s %-9s %-12s %s\n",
		"n", "page-probe-ns", "lsm-probe-ns", "pg-pages", "lsm-pages", "read-amp", "page-scan-ns", "lsm-scan-ns")
	for _, p := range b.Layout {
		fmt.Fprintf(&sb, "%-9d %-14d %-14d %-10.2f %-10.2f %-9.2f %-12d %d\n",
			p.N, p.PageProbeNsPerOp, p.LSMProbeNsPerOp, p.PageProbePages, p.LSMProbePages,
			p.ProbeReadAmp, p.PageScanNs, p.LSMScanNs)
	}
	c := b.Calibration
	fmt.Fprintf(&sb, "cold-trace calibration: %d samples, rel-err %.3f -> %.3f (improved=%v)\n",
		c.Samples, c.DefaultErr, c.CalibratedErr, c.Improved)
	keys := make([]string, 0, len(c.Constants))
	for k := range c.Constants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-14s %.6g", k, c.Constants[k])
		if d, ok := c.Defaults[k]; ok {
			fmt.Fprintf(&sb, " (default %.6g)", d)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
