package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/seq"
	"repro/internal/storage"
)

// The generator is the only code the seed reaches: it produces the base
// sequences, the views and subscriptions to register, the reference
// queries the oracle evaluates, and one operation stream per client
// connection. The engine sees only SEQL text, spans and records.

// connections is the number of client connections every workload is
// driven with: one per core of the 2-core reference box.
const connections = 2

var stockSchema = seq.MustSchema(
	seq.Field{Name: "open", Type: seq.TFloat},
	seq.Field{Name: "close", Type: seq.TFloat},
	seq.Field{Name: "volume", Type: seq.TInt},
)

// baseData is one base sequence to load.
type baseData struct {
	Name string
	Kind storage.Kind
	Data *seq.Materialized
}

// viewDef is one materialized view to register during set-up.
type viewDef struct {
	Name, SEQL string
	Span       seq.Span
}

// subDef is one standing query connection B subscribes to, and the one
// base it reads.
type subDef struct {
	SEQL, Base string
	Span       seq.Span
}

// refQuery is one read-only query the oracle evaluates over Span during
// set-up. Every generated query asks for a sub-span of one refQuery, so
// its expected answer is a slice of the reference rows.
type refQuery struct {
	SEQL string
	Span seq.Span
}

type opKind uint8

const (
	opQuery opKind = iota + 1
	opAppend
)

// op is one generated operation.
type op struct {
	Kind opKind
	// Query: the text sent, the inclusive span, and the refQuery whose
	// rows over that span are the expected answer.
	SEQL       string
	Start, End int64
	Ref        int
	// Append: the target base, position and record.
	Base string
	Pos  int64
	Rec  seq.Record
}

// encode appends the operation's canonical bytes: what the determinism
// test compares.
func (o op) encode(b []byte) []byte {
	b = append(b, byte(o.Kind))
	b = binary.AppendVarint(b, int64(len(o.SEQL)))
	b = append(b, o.SEQL...)
	b = binary.AppendVarint(b, o.Start)
	b = binary.AppendVarint(b, o.End)
	b = binary.AppendVarint(b, int64(o.Ref))
	b = binary.AppendVarint(b, int64(len(o.Base)))
	b = append(b, o.Base...)
	return appendEntry(b, seq.Entry{Pos: o.Pos, Rec: o.Rec})
}

// opStream yields one connection's operations; ok is false once the
// stream's fixed operation count is used up.
type opStream interface {
	next() (o op, ok bool)
}

// workload is everything set-up needs for one run.
type workload struct {
	Name    string
	Bases   []baseData
	Views   []viewDef
	Subs    []subDef
	Refs    []refQuery
	Streams [connections]opStream
	// Disk selects the durable tier with this many pool pages; 0 keeps
	// the server in memory.
	PoolPages int
	// TraceOps is how many operations of stream 0 the traced pass
	// replays in-process.
	TraceOps int
}

// workloadNames lists the workloads in the order they run.
var workloadNames = []string{"plan_bound", "scan_bound", "disk_mixed", "append_views"}

// generate builds the named workload from the seed. quick shrinks every
// size so the whole set runs in a few seconds under `go test`.
func generate(name string, seed int64, quick bool) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	var err error
	switch name {
	case "plan_bound":
		w, err = genPlanBound(rng, seed)
	case "scan_bound":
		w, err = genScanBound(rng, seed, quick)
	case "disk_mixed":
		w, err = genDiskMixed(rng, seed, quick)
	case "append_views":
		w, err = genAppendViews(rng, seed, quick)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	w.Name = name
	return w, nil
}

// streamRNG derives one connection's generator from the run seed.
func streamRNG(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + 17))
}

// walk is the mean-reverting price process behind every generated
// record: prices wander around 100 and never fall below 1, so
// independently generated series keep crossing each other.
type walk struct {
	rng   *rand.Rand
	price float64
}

func newWalk(rng *rand.Rand) *walk { return &walk{rng: rng, price: 100} }

func (w *walk) record() seq.Record {
	open := w.price
	w.price += (100-w.price)*0.02 + (w.rng.Float64()*2 - 1)
	w.price = math.Max(w.price, 1)
	return seq.Record{seq.Float(open), seq.Float(w.price), seq.Int(int64(w.rng.Intn(9000) + 1000))}
}

// genStock fills span with a stock series holding a record at the given
// share of positions.
func genStock(rng *rand.Rand, span seq.Span, density float64) (*seq.Materialized, error) {
	w := newWalk(rng)
	var entries []seq.Entry
	for p := span.Start; p <= span.End; p++ {
		rec := w.record()
		if density >= 1 || rng.Float64() < density {
			entries = append(entries, seq.Entry{Pos: p, Rec: rec})
		}
	}
	m, err := seq.NewMaterialized(stockSchema, entries)
	if err != nil {
		return nil, err
	}
	return m.WithSpan(span)
}

func genBase(rng *rand.Rand, name string, lo, hi int64, density float64) (baseData, error) {
	kind := storage.KindSparse
	if density >= 1 {
		kind = storage.KindDense
	}
	data, err := genStock(rng, seq.NewSpan(lo, hi), density)
	return baseData{Name: name, Kind: kind, Data: data}, err
}

// ── plan_bound ──────────────────────────────────────────────────────

// planTemplates are 4- to 6-way compose queries with select, offset and
// project on top (the E6 and E8 shapes). The first twelve keep the whole
// compose under one selection, so the join enumerator sees one block of
// four, five or six inputs; the last four put projections and aliases in
// between, which splits the block and exercises the rewrite rules
// instead. %s is a literal below every generated price, so the conjunct
// it sits in holds for every record and the answer does not depend on
// it: a never-seen literal changes the text the server must plan, not
// the rows the oracle expects.
var planTemplates = []string{
	"select(compose(compose(p4, p5), compose(compose(p0, p1), compose(p2, p3))), p4.close > p0.close and p1.close > %s)",
	"select(offset(compose(compose(p4, p5), compose(compose(p0, p1), compose(p2, p3))), -3), p0.close > p5.close and p4.close > %s)",
	"select(compose(compose(p0, p3), compose(compose(p1, p4), compose(p2, p5))), p0.close > p4.close and p2.volume > 4000 and p5.close > %s)",
	"select(compose(p4, compose(compose(p0, p1), compose(p2, p3))), p4.close > p0.close and p1.close > %s)",
	"select(compose(p5, compose(compose(p0, p1), compose(p2, p4))), p5.close > p4.close and p0.close > %s)",
	"select(compose(p3, compose(compose(p1, p2), compose(p4, p5))), p3.close > p2.close and p1.volume > 5000 and p4.close > %s)",
	"select(offset(compose(p2, compose(compose(p0, p1), compose(p3, p4))), 2), p2.close > p3.close and p0.close > %s)",
	"select(compose(p0, compose(compose(p2, p3), compose(p4, p5))), p0.close > p5.close and p2.close > p3.close and p4.close > %s)",
	"select(compose(compose(p0, p1), compose(p2, p3)), p0.close > p1.close and p3.close > %s)",
	"select(offset(compose(compose(p1, p2), compose(p3, p4)), 2), p1.close > p3.close and p2.close > %s)",
	"select(compose(compose(p0, offset(p0, -5) as w), compose(p1, p4)), p0.close > w.close and p1.close > %s)",
	"select(compose(compose(p1, p3), compose(p4, p5)), p1.close > p4.close and p3.close > %s)",
	"project(select(compose(compose(p0, p1) as l, compose(p2, p3) as r), p0.close > p1.close and p2.close > %s), p0.close, p3.volume)",
	"project(select(offset(compose(compose(p4, p5) as t, compose(compose(p0, p1) as l, compose(p2, p3) as r) as m), -3), p0.close > p5.close and p4.close > %s), p1.close - p2.close as spread, p3.volume)",
	"project(select(compose(compose(p0, offset(p1, -1) as y) as l, compose(p2, p3) as r), p0.close > y.close and p2.close > %s), p0.close - y.close as delta)",
	"project(select(compose(compose(p2, p3) as l, compose(compose(p0, p1) as q, compose(p4, p5) as r) as m), p2.close > p0.close and p3.close > p4.close and p1.close > %s), p5.close, p2.volume)",
}

const (
	planSpans        = 8    // recurring spans per template
	planFreshShare   = 0.20 // operations carrying a never-seen literal
	planDefaultConst = "0.5"
)

// planSpanLens are the recurring spans' lengths. They, and which
// (template, span) pairs are popular, are the same for every seed, so a
// seed moves the data, the spans' places and the order of draws but not
// how much planning and execution an average operation carries.
var planSpanLens = [planSpans]int64{32, 44, 56, 72, 88, 100, 116, 128}

func genPlanBound(rng *rand.Rand, seed int64) (*workload, error) {
	w := &workload{TraceOps: 400}
	for i, b := range []struct {
		lo, hi  int64
		density float64
	}{{200, 500, 0.95}, {1, 350, 0.70}, {1, 750, 1}, {100, 650, 0.90}, {1, 750, 0.85}, {50, 700, 1}} {
		base, err := genBase(rng, fmt.Sprintf("p%d", i), b.lo, b.hi, b.density)
		if err != nil {
			return nil, err
		}
		w.Bases = append(w.Bases, base)
	}
	// Recurring spans of 32-128 positions inside the range all six
	// bases share; one reference evaluation per template covers them.
	spans := make([]seq.Span, planSpans)
	for i, length := range planSpanLens {
		start := 195 + rng.Int63n(30)
		spans[i] = seq.NewSpan(start, start+length-1)
	}
	for _, t := range planTemplates {
		w.Refs = append(w.Refs, refQuery{SEQL: fmt.Sprintf(t, planDefaultConst), Span: seq.NewSpan(190, 360)})
	}
	pairs := uint64(len(planTemplates) * planSpans)
	for c := range w.Streams {
		r := streamRNG(seed, c)
		w.Streams[c] = &planStream{rng: r, zipf: rand.NewZipf(r, 1.1, 1, pairs-1), spans: spans, conn: c}
	}
	return w, nil
}

type planStream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	spans []seq.Span
	conn  int
	n     int
}

func (s *planStream) next() (op, bool) {
	// Popularity rank -> pair: the sixteen most popular pairs are the
	// sixteen templates, each on a different span.
	rank := int(s.zipf.Uint64())
	tmpl := rank % len(planTemplates)
	span := s.spans[(rank/len(planTemplates)+rank)%planSpans]
	lit := planDefaultConst
	if s.rng.Float64() < planFreshShare {
		// Unique across connections and operations, and never the
		// default.
		lit = fmt.Sprintf("0.%07d", 1+s.conn+connections*s.n)
	}
	s.n++
	return op{Kind: opQuery, SEQL: fmt.Sprintf(planTemplates[tmpl], lit),
		Start: span.Start, End: span.End, Ref: tmpl}, true
}

// ── scan_bound ──────────────────────────────────────────────────────

func genScanBound(rng *rand.Rand, seed int64, quick bool) (*workload, error) {
	n := int64(200000)
	w := &workload{TraceOps: 45}
	if quick {
		n, w.TraceOps = 8000, 12
	}
	for i, d := range []float64{1, 0.8, 0.8} {
		base, err := genBase(rng, fmt.Sprintf("s%d", i), 1, n, d)
		if err != nil {
			return nil, err
		}
		w.Bases = append(w.Bases, base)
	}
	full := seq.NewSpan(1, n)
	w.Refs = []refQuery{
		// E1 shape: lock-step compose against a value offset, about 4 %
		// of positions out.
		{SEQL: "select(compose(s1, prev(s2) as p), s1.close > p.close + 7.0)", Span: full},
		// E4 shape: one row out per position, so result encoding
		// dominates. The sum is over an int column: the engine's sliding
		// accumulator and the oracle's window re-sum agree bit for bit.
		{SEQL: "sum(s0, volume, 32)", Span: full},
		// About half the records out.
		{SEQL: "select(s0, close > 100.0)", Span: full},
	}
	for c := range w.Streams {
		r := streamRNG(seed, c)
		w.Streams[c] = &scanStream{refs: w.Refs, n: n, conn: c, lenPhase: r.Float64(), startPhase: r.Float64()}
	}
	return w, nil
}

// scanStream deals the three shapes in turn, so their shares are exactly
// equal, and takes span lengths and starts from an equidistributed
// sequence instead of independent draws: a run of a few hundred queries
// then covers 50 k to 200 k evenly whatever the seed, which only shifts
// the sequence's phase.
type scanStream struct {
	refs                 []refQuery
	n                    int64
	conn, i              int
	lenPhase, startPhase float64
}

func frac(x float64) float64 { return x - math.Floor(x) }

func (s *scanStream) next() (op, bool) {
	ref := (s.i + s.conn) % len(s.refs)
	j := float64(s.i / len(s.refs))
	s.i++
	// Additive recurrences on the plastic number's powers: the
	// lowest-discrepancy choice for a pair.
	length := s.n/4 + int64(frac(s.lenPhase+j*0.7548776662466927)*float64(s.n-s.n/4)) // 50 k to 200 k of 200 k
	start := 1 + int64(frac(s.startPhase+j*0.5698402909980532)*float64(s.n-length+1))
	return op{Kind: opQuery, SEQL: s.refs[ref].SEQL, Start: start, End: start + length - 1, Ref: ref}, true
}

// ── disk_mixed ──────────────────────────────────────────────────────

const (
	diskPointShare = 0.60
	diskScanShare  = 0.25 // the remaining 0.15 are appends
)

func genDiskMixed(rng *rand.Rand, seed int64, quick bool) (*workload, error) {
	// 128 k dense + 160 k x 0.8 sparse positions at 64 records a page
	// are about 4 000 pages, against a pool of 256.
	n0, n1, pool := int64(128000), int64(160000), 256
	w := &workload{TraceOps: 1500}
	if quick {
		n0, n1, pool, w.TraceOps = 6400, 8000, 16, 200
	}
	w.PoolPages = pool
	for i, b := range []struct {
		n       int64
		density float64
	}{{n0, 1}, {n1, 0.8}} {
		base, err := genBase(rng, fmt.Sprintf("d%d", i), 1, b.n, b.density)
		if err != nil {
			return nil, err
		}
		w.Bases = append(w.Bases, base)
		w.Refs = append(w.Refs,
			refQuery{SEQL: base.Name, Span: seq.NewSpan(1, b.n)},
			// volume is independent from record to record, so about half
			// the rows pass in every region, hot or cold, at every seed.
			refQuery{SEQL: fmt.Sprintf("select(%s, volume > 5500)", base.Name), Span: seq.NewSpan(1, b.n)})
	}
	// Each connection appends to a base of its own.
	const appendStart = 1000
	for c := range w.Streams {
		base, err := genBase(rng, fmt.Sprintf("a%d", c), 1, appendStart, 0.8)
		if err != nil {
			return nil, err
		}
		w.Bases = append(w.Bases, base)
		r := streamRNG(seed, c)
		w.Streams[c] = &diskStream{
			rng: r, zipf: rand.NewZipf(r, 1.1, 1, 1<<20), walk: newWalk(r),
			sizes: []int64{n0, n1}, appendBase: base.Name, pos: appendStart,
		}
	}
	return w, nil
}

type diskStream struct {
	rng        *rand.Rand
	zipf       *rand.Zipf
	walk       *walk
	sizes      []int64
	appendBase string
	pos        int64
}

func (s *diskStream) next() (op, bool) {
	u := s.rng.Float64()
	b := s.rng.Intn(len(s.sizes))
	n := s.sizes[b]
	switch {
	case u < diskPointShare:
		p := 1 + s.rng.Int63n(n)
		return op{Kind: opQuery, SEQL: fmt.Sprintf("d%d", b), Start: p, End: p, Ref: 2 * b}, true
	case u < diskPointShare+diskScanShare:
		length := 64 + s.rng.Int63n(449)
		// Zipf-ranked start positions, scattered over the base by a
		// multiplicative scramble: a few hot regions, a long cold tail.
		start := 1 + int64(s.zipf.Uint64()*104729%uint64(n-length))
		return op{Kind: opQuery, SEQL: fmt.Sprintf("select(d%d, volume > 5500)", b),
			Start: start, End: start + length - 1, Ref: 2*b + 1}, true
	default:
		s.pos += 1 + s.rng.Int63n(2)
		return op{Kind: opAppend, Base: s.appendBase, Pos: s.pos, Rec: s.walk.record()}, true
	}
}

// ── append_views ────────────────────────────────────────────────────

// viewBlocks are the five canonical sub-blocks the standing views sit
// on, each under two selections that keep a small share of positions
// (what a standing alert keeps), so a view's store stays small and
// maintenance is priced by the halo it re-evaluates, not by the copy of
// the store. {b} is the base, {w} the window. Only the window aggregates
// have a halo reaching past the base's end, so only they are stitched on
// append; the offset blocks are examined and left alone.
//
// A window aggregate moves slowly (the maximum holds for up to a whole
// window), so under a fixed threshold the share of positions a selection
// keeps swings between none and a quarter from seed to seed, and with it
// the cost of every splice. Their thresholds {t0}, {t1} are therefore
// taken from the generated base: the values the aggregate exceeds at the
// shares below of its positions.
var viewBlocks = []struct {
	name, block string
	preds       [2]string
	shares      [2]float64 // of positions kept, where the threshold comes from the data
}{
	{"sum", "sum({b}, volume, {w})", [2]string{"sum > {t0}", "sum > {t1}"}, [2]float64{0.03, 0.01}},
	{"max", "max({b}, close, {w})", [2]string{"max > {t0}", "max > {t1}"}, [2]float64{0.18, 0.09}}, // two plateaus and one
	{"cnt", "count({b}, {w})", [2]string{"count > {t0}", "count > {t1}"}, [2]float64{0.03, 0.01}},
	{"prev", "compose({b}, prev({b}) as p)", [2]string{"{b}.close > p.close + 1.0", "{b}.close > p.close + 1.5"}, [2]float64{}},
	{"lag", "project(compose({b}, offset({b}, -1) as y), {b}.close - y.close as delta)", [2]string{"delta > 0.9", "delta > 0.95"}, [2]float64{}},
}

// windowSeries returns what sum(volume), max(close) and count over the
// trailing window of w positions are at every position from the base's
// first to w-1 past its last: wherever the window holds a record.
func windowSeries(entries []seq.Entry, w int64) map[string][]float64 {
	out := make(map[string][]float64)
	var sum int64
	var maxq []int // indexes of entries in the window, closes decreasing
	lo, hi := 0, 0 // entries[lo:hi] are in the window
	for p := entries[0].Pos; p < entries[len(entries)-1].Pos+w; p++ {
		for hi < len(entries) && entries[hi].Pos <= p {
			for len(maxq) > 0 && entries[maxq[len(maxq)-1]].Rec[1].AsFloat() <= entries[hi].Rec[1].AsFloat() {
				maxq = maxq[:len(maxq)-1]
			}
			maxq = append(maxq, hi)
			sum += entries[hi].Rec[2].AsInt()
			hi++
		}
		for entries[lo].Pos <= p-w {
			sum -= entries[lo].Rec[2].AsInt()
			lo++
		}
		if maxq[0] < lo {
			maxq = maxq[1:]
		}
		out["sum"] = append(out["sum"], float64(sum))
		out["max"] = append(out["max"], entries[maxq[0]].Rec[1].AsFloat())
		out["cnt"] = append(out["cnt"], float64(hi-lo))
	}
	return out
}

// exceededAt returns the value, among those the descending series takes,
// that it exceeds at a share of its positions closest to the one asked
// for.
func exceededAt(desc []float64, share float64) float64 {
	k := min(int(share*float64(len(desc))), len(desc)-1)
	// desc[k] is exceeded at first positions, the next smaller value at
	// last: the two achievable shares around the one asked for.
	first := sort.Search(len(desc), func(i int) bool { return desc[i] <= desc[k] })
	last := sort.Search(len(desc), func(i int) bool { return desc[i] < desc[k] })
	if last < len(desc) && last-k < k-first {
		return desc[last]
	}
	return desc[k]
}

// thresholds returns two distinct values of the series, the first
// exceeded at about the larger share of positions and the second at about
// the smaller.
func thresholds(series []float64, shares [2]float64) (t [2]float64) {
	desc := sorted(series)
	slices.Reverse(desc)
	t[0], t[1] = exceededAt(desc, shares[0]), exceededAt(desc, shares[1])
	if t[0] == t[1] {
		// A series of long plateaus: the wider selection takes the next
		// value down (or, at the bottom, keeps its own and loses nothing).
		if i := sort.Search(len(desc), func(i int) bool { return desc[i] < t[1] }); i < len(desc) {
			t[0] = desc[i]
		}
	}
	return t
}

func genAppendViews(rng *rand.Rand, seed int64, quick bool) (*workload, error) {
	// 62.5 k positions x 0.8 = 50 k records per base. window is how far
	// a window view's span reaches past the base's end at registration:
	// appends land inside that halo, and the stream stops before they
	// would leave it (the engine keeps a view's span fixed, so a later
	// append would find nothing to maintain).
	n, window := int64(62500), int64(6144)
	w := &workload{TraceOps: 320}
	if quick {
		n, window, w.TraceOps = 5000, 256, 24
	}
	for i := 0; i < 2; i++ {
		base, err := genBase(rng, fmt.Sprintf("v%d", i), 1, n, 0.8)
		if err != nil {
			return nil, err
		}
		w.Bases = append(w.Bases, base)
	}
	viewSpan := seq.NewSpan(1, n+window)
	var texts []string
	for _, base := range w.Bases {
		series := windowSeries(base.Data.Entries(), window)
		for _, b := range viewBlocks {
			var t [2]string
			if vals, ok := series[b.name]; ok {
				for v, x := range thresholds(vals, b.shares) {
					t[v] = strconv.FormatFloat(x, 'f', -1, 64)
					if b.name == "max" && !strings.Contains(t[v], ".") {
						t[v] += ".0" // a float literal for the float column
					}
				}
			}
			fill := strings.NewReplacer("{b}", base.Name, "{w}", fmt.Sprint(window), "{t0}", t[0], "{t1}", t[1])
			for v, pred := range b.preds {
				text := fill.Replace("select(" + b.block + ", " + pred + ")")
				w.Views = append(w.Views, viewDef{
					Name: fmt.Sprintf("mv_%s_%s_%c", base.Name, b.name, 'a'+v), SEQL: text, Span: viewSpan})
				texts = append(texts, text)
			}
		}
	}
	// Reader queries: the view texts over recurring stretches of history
	// that no append can reach, so their answers are fixed at set-up.
	// Which texts and how long is fixed; the seed places the stretches.
	const readerRefs = 16
	for i := 0; i < readerRefs; i++ {
		length := int64(64 + 12*i)
		start := window + 1 + rng.Int63n(n-2*window-length)
		w.Refs = append(w.Refs, refQuery{SEQL: texts[i*7%len(texts)], Span: seq.NewSpan(start, start+length-1)})
	}
	// Standing queries with short scopes: the server re-evaluates each
	// write's halo with the reference interpreter under the write lock.
	subSpan := seq.NewSpan(n-500, n+window)
	w.Subs = []subDef{
		{SEQL: "sum(v0, volume, 8)", Base: "v0", Span: subSpan},
		{SEQL: "select(v1, close > 100.0)", Base: "v1", Span: subSpan},
		{SEQL: "project(compose(v0, offset(v0, -1) as y), v0.close - y.close as delta)", Base: "v0", Span: subSpan},
		{SEQL: "max(v1, close, 16)", Base: "v1", Span: subSpan},
	}
	// Connection A writes and reads; connection B only drains deltas.
	r := streamRNG(seed, 0)
	a := &appendStream{rng: r, refs: w.Refs, limit: n + window - 48}
	for i := range a.pos {
		a.pos[i] = n
		a.walk[i] = newWalk(r)
	}
	w.Streams[0] = a
	w.Streams[1] = idleStream{}
	return w, nil
}

// appendStream is connection A: seven appends, alternating between the
// two bases and stepping one or two positions, then one reader query,
// the references in turn. The seed supplies the records.
type appendStream struct {
	rng     *rand.Rand
	refs    []refQuery
	pos     [2]int64
	walk    [2]*walk
	limit   int64 // last position an append may take
	n       int
	appends int
	queries int
}

func (s *appendStream) next() (op, bool) {
	s.n++
	if s.n%8 == 0 {
		ref := s.queries % len(s.refs)
		s.queries++
		q := s.refs[ref]
		return op{Kind: opQuery, SEQL: q.SEQL, Start: q.Span.Start, End: q.Span.End, Ref: ref}, true
	}
	b := s.appends % 2
	s.pos[b] += 1 + int64(s.appends/2%2)
	s.appends++
	if s.pos[b] > s.limit {
		return op{}, false
	}
	return op{Kind: opAppend, Base: fmt.Sprintf("v%d", b), Pos: s.pos[b], Rec: s.walk[b].record()}, true
}

// idleStream is a connection that issues nothing.
type idleStream struct{}

func (idleStream) next() (op, bool) { return op{}, false }
