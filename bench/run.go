package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage/disk"
	"repro/internal/wire"
)

const (
	// rounds is how many times a run sets up, measures for an equal share
	// of the run length, checks and tears down; samples are pooled and
	// setup_s is the median. Throughput on one loaded server stays within
	// a few percent of a level that differs from one set-up to the next
	// (where the heap lies, how the connections' goroutines share the two
	// cores) by more than that, in one process as much as across
	// processes, so several short rounds are steadier than one long one.
	rounds = 5
	// warmShare of a round's length is spent on an untimed prefix of the
	// same operation streams, so caches and lazy set-up are paid first.
	warmShare = 0.1
	// gcInterval is the server's epoch garbage-collection period, on all
	// four workloads. seqd ships with 5 s, which a round of two seconds
	// never reaches: under append_views every stitched view generation
	// would then stay until the server closes (0.75-1 GB of resident set
	// against 150 MB, and a fifth fewer operations a second), and a longer
	// run would report where its two or three collections fell (README.md,
	// "Deviations from seqd's defaults").
	gcInterval = 100 * time.Millisecond
	// checkpointEvery is how many acknowledged appends lie between two
	// checkpoints on disk_mixed: about 36 KiB of WAL. seqd checkpoints at
	// 4 MiB of WAL or 15 s, neither of which a run of seconds reaches, and
	// polls the size once a second, so at a lower threshold the count
	// would depend on where the ticks fall. The benchmark turns the
	// background checkpointer off and triggers checkpoints by count.
	checkpointEvery = 1024
)

// env is one loaded server, listening on loopback, with its oracle.
type env struct {
	w      *workload
	oracle []*refSeries
	srv    *server.Server
	db     *disk.DB      // nil in memory
	cp     *checkpointer // nil in memory
	dir    string
	addr   string
	served chan error
}

// diskConfig is the durable tier's configuration: 8 KiB pages, fsync on
// every append (BatchFsync off, the default), no background checkpointer.
func diskConfig(poolPages int, hook disk.Hook) disk.Config {
	return disk.Config{PoolPages: poolPages, CheckpointInterval: -1, Hook: hook}
}

// openFresh opens a database in a directory emptied first.
func openFresh(dir string, cfg disk.Config) (*disk.DB, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return disk.Open(dir, cfg)
}

// checkpointer checkpoints the database every so many acknowledged
// appends, on a goroutine of its own as the database's checkpointer would,
// so no client waits for it. windows and err belong to that goroutine
// until stop has returned.
type checkpointer struct {
	db      *disk.DB
	every   int64
	appends atomic.Int64
	kick    chan struct{}
	done    chan struct{}
	once    sync.Once
	windows [][2]time.Time
	err     error
}

func startCheckpointer(db *disk.DB, every int64) *checkpointer {
	// One pending kick is enough: a checkpoint that falls due while one
	// runs follows it and covers every append until then.
	c := &checkpointer{db: db, every: every, kick: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for range c.kick {
			t0 := time.Now()
			err := c.db.Checkpoint()
			c.windows = append(c.windows, [2]time.Time{t0, time.Now()})
			if c.err == nil {
				c.err = err
			}
		}
	}()
	return c
}

// appended counts one acknowledged append.
func (c *checkpointer) appended() {
	if c.appends.Add(1)%c.every == 0 {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// stop waits for a checkpoint in flight and ends the goroutine; no append
// may be counted after it. It returns the first checkpoint error.
func (c *checkpointer) stop() error {
	c.once.Do(func() { close(c.kick) })
	<-c.done
	return c.err
}

// setup generates the workload, loads it into a fresh server, registers
// its views, builds the oracle and starts listening: everything setup_s
// covers.
func setup(name string, seed int64, quick bool, outDir string) (*env, error) {
	w, err := generate(name, seed, quick)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, srv: server.New(server.Config{GCInterval: gcInterval}), served: make(chan error, 1)}
	if w.PoolPages > 0 {
		e.dir = filepath.Join(outDir, name+"-db")
		if e.db, err = openFresh(e.dir, diskConfig(w.PoolPages, nil)); err != nil {
			return nil, err
		}
		if err := e.srv.AttachDisk(e.db); err != nil {
			return nil, err
		}
	}
	for _, b := range w.Bases {
		if err := e.srv.CreateSequence(b.Name, b.Data, b.Kind); err != nil {
			return nil, fmt.Errorf("load %s: %w", b.Name, err)
		}
	}
	sess := e.srv.NewSession("bench-setup")
	for _, v := range w.Views {
		if _, _, err := sess.Materialize(v.Name, v.SEQL, v.Span); err != nil {
			return nil, fmt.Errorf("materialize %s: %w", v.Name, err)
		}
	}
	if e.db != nil {
		// The bulk load is in the WAL; start the run from a checkpoint.
		if err := e.db.Checkpoint(); err != nil {
			return nil, err
		}
		e.cp = startCheckpointer(e.db, checkpointEvery)
	}
	if e.oracle, err = buildOracle(w); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	go func() { e.served <- e.srv.Serve(ln) }()
	// One handshake proves the server is accepting: Server.Close only
	// stops a listener Serve has already registered.
	c, err := wire.Dial(e.addr, "bench-setup")
	if err != nil {
		return nil, err
	}
	return e, c.Close()
}

// close stops the server, waits for its goroutines and the
// checkpointer's, and closes the database (which takes its final
// checkpoint).
func (e *env) close() error {
	err := e.srv.Close()
	if serr := <-e.served; err == nil {
		err = serr
	}
	if e.db != nil {
		if cerr := e.cp.stop(); err == nil {
			err = cerr
		}
		if derr := e.db.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// answer is what one operation returned to the client.
type answer struct {
	entries            []seq.Entry // query
	elapsedNs, queueNs uint64      // query, as the server reports them
	epoch              int64       // append
}

// plainOp performs one operation over wire.Client.
func plainOp(c *wire.Client, o op) (answer, error) {
	if o.Kind == opAppend {
		epoch, err := c.Append(o.Base, o.Pos, o.Rec)
		if err != nil {
			return answer{}, fmt.Errorf("append %s@%d: %w", o.Base, o.Pos, err)
		}
		return answer{epoch: epoch}, nil
	}
	res, err := c.Query(o.SEQL, o.Start, o.End)
	if err != nil {
		return answer{}, err
	}
	return answer{entries: res.Entries, elapsedNs: res.ElapsedNs, queueNs: res.QueueNs}, nil
}

// samples is what measured operations add up to: one connection's, a
// round's, and pooled over the rounds a run's. The latency samples are of
// operations over wire.Client only; an operation the traced run sent over
// its stamping client counts towards the totals and tracedUs.
type samples struct {
	attempted, failed int
	firstFailure      string
	queryMs, appendUs []float64
	appendAt          []time.Time // when each append of appendUs was sent
	execMs, queueMs   []float64   // server-reported, per query
	unaccountedMs     []float64   // client latency - elapsed - queue
	plainUs, tracedUs []float64   // every operation's latency, by client
	lagMs             []float64   // append sent -> its delta read by the subscriber
	positions         int64
	appends           int
	wall              time.Duration
}

// add pools o into s.
func (s *samples) add(o *samples) {
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstFailure == "" {
		s.firstFailure = o.firstFailure
	}
	s.queryMs = append(s.queryMs, o.queryMs...)
	s.appendUs = append(s.appendUs, o.appendUs...)
	s.appendAt = append(s.appendAt, o.appendAt...)
	s.execMs = append(s.execMs, o.execMs...)
	s.queueMs = append(s.queueMs, o.queueMs...)
	s.unaccountedMs = append(s.unaccountedMs, o.unaccountedMs...)
	s.plainUs = append(s.plainUs, o.plainUs...)
	s.tracedUs = append(s.tracedUs, o.tracedUs...)
	s.lagMs = append(s.lagMs, o.lagMs...)
	s.positions += o.positions
	s.appends += o.appends
	s.wall += o.wall
}

// connStats is what one client connection observed in one phase.
type connStats struct {
	samples
	acked     []op                // acknowledged appends
	sent      map[int64]time.Time // append epoch -> send time, untraced appends
	lastEpoch map[string]int64    // base -> epoch of its newest acknowledged append
	end       time.Time
}

func newConnStats() *connStats {
	return &connStats{sent: make(map[int64]time.Time), lastEpoch: make(map[string]int64)}
}

func (st *connStats) record(o op, a answer, t0 time.Time, lat time.Duration, traced bool) {
	us := float64(lat.Nanoseconds()) / 1e3
	if traced {
		st.tracedUs = append(st.tracedUs, us)
	} else {
		st.plainUs = append(st.plainUs, us)
	}
	if o.Kind == opAppend {
		st.appends++
		st.acked = append(st.acked, o)
		st.lastEpoch[o.Base] = a.epoch
		if !traced {
			st.appendUs = append(st.appendUs, us)
			st.appendAt = append(st.appendAt, t0)
			st.sent[a.epoch] = t0
		}
		return
	}
	st.positions += o.End - o.Start + 1
	if !traced {
		st.queryMs = append(st.queryMs, us/1e3)
		st.execMs = append(st.execMs, float64(a.elapsedNs)/1e6)
		st.queueMs = append(st.queueMs, float64(a.queueNs)/1e6)
		st.unaccountedMs = append(st.unaccountedMs, us/1e3-float64(a.elapsedNs+a.queueNs)/1e6)
	}
}

func (st *connStats) fail(err error) {
	st.failed++
	if st.firstFailure == "" {
		st.firstFailure = err.Error()
	}
}

// check compares an answer with the oracle's. A wrong row count or
// checksum is a failure.
func (e *env) check(o op, entries []seq.Entry) error {
	rows, sum, err := e.oracle[o.Ref].answer(o.Start, o.End)
	if err != nil {
		return err
	}
	if len(entries) != rows {
		return fmt.Errorf("%s over [%d, %d]: %d rows, oracle has %d", o.SEQL, o.Start, o.End, len(entries), rows)
	}
	if got := checksum(entries); got != sum {
		return fmt.Errorf("%s over [%d, %d]: checksum %x, oracle has %x", o.SEQL, o.Start, o.End, got, sum)
	}
	return nil
}

// drive runs one connection's closed loop until the deadline or the end
// of its stream: the next request is sent only when the previous answer
// has been read and checked. With a tracer it holds a second, stamping
// connection and sends half the operations over that one, so traced and
// untraced operations meet the same server state. Which half is a coin
// flip per operation from a fixed sequence: taking turns would pair each
// client with every other step of the streams' own regular patterns.
func (e *env) drive(conn int, stream opStream, deadline time.Time, st *connStats, tr *tracer) error {
	c, err := wire.Dial(e.addr, fmt.Sprintf("bench-%d", conn))
	if err != nil {
		return err
	}
	defer c.Close()
	var tc *tracedClient
	if tr != nil {
		if tc, err = dialTraced(e.addr, fmt.Sprintf("bench-traced-%d", conn)); err != nil {
			return err
		}
		defer tc.close()
	}
	for time.Now().Before(deadline) {
		o, ok := stream.next()
		if !ok {
			break
		}
		traced := tc != nil && tr.coin.Intn(2) == 1
		st.attempted++
		t0 := time.Now()
		var a answer
		if traced {
			a, err = tc.do(o, st.attempted, tr)
		} else {
			a, err = plainOp(c, o)
		}
		lat := time.Since(t0)
		if err == nil && o.Kind == opQuery {
			err = e.check(o, a.entries)
		}
		if err != nil {
			st.fail(err)
			continue
		}
		st.record(o, a, t0, lat, traced)
		if o.Kind == opAppend && e.cp != nil {
			e.cp.appended()
		}
	}
	st.end = time.Now()
	return nil
}

// subscriber is connection B of append_views: it holds the standing
// queries and applies every pushed delta to its own copy.
//
//seqvet:lockorder leaf main.subscriber.mu
type subscriber struct {
	c    *wire.Client
	subs []subDef
	ids  map[uint64]int

	mu     sync.Mutex
	state  [][]seq.Entry // per subscription, in positional order
	epoch  []int64       // per subscription, the newest delta applied
	recv   []deltaRecv
	err    error
	closed chan struct{}
}

type deltaRecv struct {
	epoch int64
	at    time.Time
}

func subscribe(addr string, subs []subDef) (*subscriber, error) {
	c, err := wire.Dial(addr, "bench-subscriber")
	if err != nil {
		return nil, err
	}
	s := &subscriber{c: c, subs: subs, ids: make(map[uint64]int),
		state: make([][]seq.Entry, len(subs)), epoch: make([]int64, len(subs)), closed: make(chan struct{})}
	for i, sub := range subs {
		ack, err := c.Subscribe(sub.SEQL, sub.Span.Start, sub.Span.End)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("subscribe %s: %w", sub.SEQL, err)
		}
		s.ids[ack.SubID] = i
	}
	go s.drain()
	return s, nil
}

// drain reads deltas until the connection closes.
func (s *subscriber) drain() {
	defer close(s.closed)
	for {
		d, err := s.c.ReadDelta()
		at := time.Now()
		s.mu.Lock()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.err = err
			}
			s.mu.Unlock()
			return
		}
		if i, ok := s.ids[d.SubID]; ok {
			s.state[i] = applyDelta(s.state[i], d)
			s.epoch[i] = max(s.epoch[i], d.Epoch)
			s.recv = append(s.recv, deltaRecv{d.Epoch, at})
		}
		s.mu.Unlock()
	}
}

// applyDelta replaces the region [Start, End] of a positionally ordered
// copy with the delta's entries.
func applyDelta(state []seq.Entry, d *wire.Delta) []seq.Entry {
	lo := sort.Search(len(state), func(i int) bool { return state[i].Pos >= d.Start })
	hi := sort.Search(len(state), func(i int) bool { return state[i].Pos > d.End })
	return slices.Replace(state, lo, hi, d.Entries...)
}

// waitFor blocks until every subscription has applied the delta of the
// newest acknowledged append to each base it reads (deltas are written
// before the append is acknowledged, so this is a matter of the reader
// catching up).
func (s *subscriber) waitFor(last map[string]int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		done, err := true, s.err
		for i, sub := range s.subs {
			done = done && s.epoch[i] >= last[sub.Base]
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriber did not catch up with the last appends (%v) within 10s", last)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the connection and waits for the reader to end.
func (s *subscriber) stop() {
	s.c.Close()
	<-s.closed
}

// socketRun is one pass over the socket on one environment: an untimed
// warm prefix, then the measured phase on every connection at once.
type socketRun struct {
	samples      // of the measured phase, all connections
	acked   []op // every acknowledged append, warm-up included
	sub     *subscriber
}

// runSocket drives the environment's streams for the given time; with
// tracers, one per connection, half the operations are client-traced.
func (e *env) runSocket(seconds float64, tracers []*tracer) (*socketRun, error) {
	r := &socketRun{}
	var err error
	if len(e.w.Subs) > 0 {
		if r.sub, err = subscribe(e.addr, e.w.Subs); err != nil {
			return nil, err
		}
	}
	// phase drives every connection for length seconds and returns what
	// each observed and the time from the start to the last operation's
	// end.
	phase := func(length float64) ([connections]*connStats, time.Duration, error) {
		start := time.Now()
		deadline := start.Add(time.Duration(length * float64(time.Second)))
		var stats [connections]*connStats
		var errs [connections]error
		var wg sync.WaitGroup
		for i := range stats {
			stats[i] = newConnStats()
			var tr *tracer
			if tracers != nil {
				tr = tracers[i]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = e.drive(i, e.w.Streams[i], deadline, stats[i], tr)
			}()
		}
		wg.Wait()
		end := start
		for _, st := range stats {
			if st.end.After(end) {
				end = st.end
			}
		}
		return stats, end.Sub(start), errors.Join(errs[:]...)
	}
	warm, _, err := phase(seconds * warmShare)
	var timed [connections]*connStats
	if err == nil {
		timed, r.wall, err = phase(seconds)
	}
	if err != nil {
		r.stop()
		return nil, err
	}
	// Warm-up failures and acknowledged appends still count: a wrong
	// answer is wrong whenever it was given, and an acknowledged append
	// must survive whether or not its latency was recorded.
	last := make(map[string]int64)
	sent := make(map[int64]time.Time)
	for i := range timed {
		r.samples.add(&timed[i].samples)
		r.failed += warm[i].failed
		r.attempted += warm[i].failed
		if r.firstFailure == "" {
			r.firstFailure = warm[i].firstFailure
		}
		r.acked = append(append(r.acked, warm[i].acked...), timed[i].acked...)
		for _, st := range []*connStats{warm[i], timed[i]} {
			for base, epoch := range st.lastEpoch {
				last[base] = max(last[base], epoch)
			}
		}
		for epoch, t0 := range timed[i].sent {
			sent[epoch] = t0
		}
	}
	if r.sub != nil {
		if err := r.sub.waitFor(last); err != nil {
			r.stop()
			return nil, err
		}
		r.sub.mu.Lock()
		for _, d := range r.sub.recv {
			if t0, ok := sent[d.epoch]; ok {
				r.lagMs = append(r.lagMs, float64(d.at.Sub(t0).Nanoseconds())/1e6)
			}
		}
		r.sub.mu.Unlock()
	}
	return r, nil
}

// stop ends the subscriber connection, if the workload has one.
func (r *socketRun) stop() {
	if r.sub != nil {
		r.sub.stop()
		r.sub = nil
	}
}

// finalBases is the content every base must have after the run: what
// was loaded plus every acknowledged append.
func (e *env) finalBases(r *socketRun) (map[string]*seq.Materialized, error) {
	extra := make(map[string][]seq.Entry)
	for _, o := range r.acked {
		extra[o.Base] = append(extra[o.Base], seq.Entry{Pos: o.Pos, Rec: o.Rec})
	}
	out := make(map[string]*seq.Materialized, len(e.w.Bases))
	for _, b := range e.w.Bases {
		entries := append(append([]seq.Entry(nil), b.Data.Entries()...), extra[b.Name]...)
		m, err := seq.NewMaterialized(stockSchema, entries)
		if err != nil {
			return nil, fmt.Errorf("final content of %s: %w", b.Name, err)
		}
		out[b.Name] = m
	}
	return out, nil
}

// postCheck is the outcome of the checks that follow a measured phase,
// with the durable tier's numbers where there is one; pooled over the
// rounds of a run.
type postCheck struct {
	checks, failed int
	firstFailure   string
	recoveryS      []float64 // one per round
	diskBytes      int64
	userBytes      int64
	views, valid   int // views registered, and still valid after the run
}

// add pools o into p.
func (p *postCheck) add(o *postCheck) {
	p.checks += o.checks
	p.failed += o.failed
	if p.firstFailure == "" {
		p.firstFailure = o.firstFailure
	}
	p.recoveryS = append(p.recoveryS, o.recoveryS...)
	p.diskBytes += o.diskBytes
	p.userBytes += o.userBytes
	p.views += o.views
	p.valid += o.valid
}

func (p *postCheck) verify(what string, got, want []seq.Entry) {
	p.checks++
	if len(got) != len(want) || checksum(got) != checksum(want) {
		p.failed++
		if p.firstFailure == "" {
			p.firstFailure = fmt.Sprintf("%s: %d rows (checksum %x), full recompute has %d (%x)",
				what, len(got), checksum(got), len(want), checksum(want))
		}
	}
}

// verifyWrites compares, after a write workload, every maintained view
// and every subscriber copy against a full recompute over the final
// base contents, and on the durable tier reopens a crash image of the
// database and looks up every acknowledged append.
func (e *env) verifyWrites(r *socketRun) (*postCheck, error) {
	p := &postCheck{}
	final, err := e.finalBases(r)
	if err != nil {
		return nil, err
	}
	if r.sub != nil {
		r.sub.mu.Lock()
		for i, sub := range e.w.Subs {
			want, err := reference(sub.SEQL, sub.Span, final)
			if err != nil {
				r.sub.mu.Unlock()
				return nil, err
			}
			p.verify("subscription "+sub.SEQL, r.sub.state[i], want)
		}
		r.sub.mu.Unlock()
	}
	if len(e.w.Views) > 0 {
		c, err := wire.Dial(e.addr, "bench-verify")
		if err != nil {
			return nil, err
		}
		defer c.Close()
		for _, v := range e.w.Views {
			got, err := c.Query(v.SEQL, v.Span.Start, v.Span.End)
			if err != nil {
				return nil, fmt.Errorf("read view %s: %w", v.Name, err)
			}
			want, err := recompute(v.SEQL, v.Span, final)
			if err != nil {
				return nil, err
			}
			p.verify("view "+v.Name, got.Entries, want)
		}
		infos, err := c.ListViews()
		if err != nil {
			return nil, err
		}
		p.views = len(infos)
		for _, info := range infos {
			if info.InvalidFrom == 0 {
				p.valid++
			}
		}
	}
	if e.db != nil {
		if err := e.verifyDurable(r, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// verifyDurable takes a crash image of the database: with no write in
// flight (the drivers have returned) and no checkpoint in flight (the
// checkpointer is stopped first, which waits for one that is running),
// nothing renames, truncates or rotates a file under the copy, and every
// acknowledged append was fsynced, so the copy is what a crash at this
// instant would leave. It reopens the copy, timing recovery and WAL
// replay, and probes every acknowledged append.
func (e *env) verifyDurable(r *socketRun, p *postCheck) error {
	if err := e.cp.stop(); err != nil {
		return fmt.Errorf("checkpoint during the run: %w", err)
	}
	image := e.dir + "-crash"
	if err := os.RemoveAll(image); err != nil {
		return err
	}
	if err := copyDir(e.dir, image); err != nil {
		return err
	}
	defer os.RemoveAll(image)
	t0 := time.Now()
	db, err := disk.Open(image, diskConfig(e.w.PoolPages, nil))
	if err != nil {
		return fmt.Errorf("reopen crash image: %w", err)
	}
	p.recoveryS = append(p.recoveryS, time.Since(t0).Seconds())
	defer db.Close()
	for _, o := range r.acked {
		p.checks++
		s, ok := db.Seq(o.Base)
		var rec seq.Record
		if ok {
			rec, err = s.Latest().Probe(o.Pos)
		}
		if !ok || err != nil || !rec.Equal(o.Rec) {
			p.failed++
			if p.firstFailure == "" {
				p.firstFailure = fmt.Sprintf("acknowledged append %s@%d missing after reopen (err %v)", o.Base, o.Pos, err)
			}
		}
	}
	return nil
}

// spaceAfterClose fills in the directory size after the final
// checkpoint against the encoded size of the user's records.
func (e *env) spaceAfterClose(r *socketRun, p *postCheck) error {
	var err error
	if p.diskBytes, err = dirSize(e.dir); err != nil {
		return err
	}
	var scratch []byte
	count := func(entries []seq.Entry) {
		for _, en := range entries {
			scratch = appendEntry(scratch[:0], en)
			p.userBytes += int64(len(scratch))
		}
	}
	for _, b := range e.w.Bases {
		count(b.Data.Entries())
	}
	for _, o := range r.acked {
		count([]seq.Entry{{Pos: o.Pos, Rec: o.Rec}})
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// peakRSSMB reads VmHWM, the process's peak resident set, from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// measurement is what the rounds of a run observed, pooled.
type measurement struct {
	samples
	post        postCheck
	setupS      []float64
	checkpoints [][2]time.Time // when the durable tier was checkpointing
}

// measure runs the rounds: each sets up a fresh environment (timed),
// drives it over the socket for its share of the run length, checks what
// its writes left behind, and tears it down. With tracers, one per
// connection, half the operations are client-traced.
func measure(name string, seed int64, seconds float64, quick bool, outDir string, tracers []*tracer) (*measurement, error) {
	m := &measurement{}
	var streams [connections]opStream // by value: a round must not keep the one before alive
	round := func() error {
		t0 := time.Now()
		e, err := setup(name, seed, quick, outDir)
		if err != nil {
			return err
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		// Every round loads the same data; the operation streams go on
		// where the round before stopped, so a run covers as much of them
		// as one long pass would.
		if len(m.setupS) > 1 {
			e.w.Streams = streams
		}
		streams = e.w.Streams
		r, err := e.runSocket(seconds/rounds, tracers)
		if err != nil {
			e.close()
			return err
		}
		post, err := e.verifyWrites(r)
		r.stop()
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if e.db != nil {
			if err := e.spaceAfterClose(r, post); err != nil {
				return err
			}
			m.checkpoints = append(m.checkpoints, e.cp.windows...)
		}
		m.samples.add(&r.samples)
		m.post.add(post)
		return nil
	}
	for i := 0; i < rounds; i++ {
		if err := round(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newResult starts a run's result from the measurement's totals.
func newResult(name string, m *measurement) *result {
	res := &result{Workload: name, Metrics: make(map[string]measured)}
	res.Attempted = m.attempted + m.post.checks
	res.Failed = m.failed + m.post.failed
	res.addFailures(m.firstFailure, m.post.firstFailure)
	res.Notes = append(res.Notes, fmt.Sprintf("measured %.3f s in %d rounds on %d connections: %d operations untraced, %d client-traced",
		m.wall.Seconds(), rounds, connections, len(m.plainUs), len(m.tracedUs)))
	if m.post.checks > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("post-run checks: %d, failed %d; %d of %d views still valid",
			m.post.checks, m.post.failed, m.post.valid, m.post.views))
	}
	return res
}

// addFailures notes the first failure of each stage of a run.
func (res *result) addFailures(firsts ...string) {
	for _, f := range firsts {
		if f != "" {
			res.Notes = append(res.Notes, "failure: "+f)
		}
	}
}

// runEndToEnd is the untraced run and the end-to-end metrics.
func runEndToEnd(name string, seed int64, seconds float64, quick bool, outDir string) (*result, error) {
	m, err := measure(name, seed, seconds, quick, outDir, nil)
	if err != nil {
		return nil, err
	}
	res := newResult(name, m)
	res.Correct = res.Failed == 0
	queries := sorted(m.queryMs)
	res.set("setup_s", median(m.setupS), len(m.setupS))
	res.set("query_p50_ms", percentile(queries, 50), len(queries))
	res.setTail("query_tail_ms", queries)
	res.set("ops_per_s", ratio(float64(len(m.plainUs)), m.wall.Seconds()), len(m.plainUs))
	res.set("positions_per_s", ratio(float64(m.positions), m.wall.Seconds()), len(queries))
	if rss, err := peakRSSMB(); err == nil {
		res.Notes = append(res.Notes, fmt.Sprintf("peak resident set (VmHWM): %.4g MB", rss))
	}
	return res, nil
}
