package experiments

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ServerPoint is one row of the seqd load sweep (seqbench -server): a
// fixed per-connection query workload measured at one connection count,
// with a background appender advancing the MVCC epoch throughout.
type ServerPoint struct {
	// Conns is the number of concurrent client connections.
	Conns int `json:"conns"`
	// Workers is the server's worker-pool bound during the sweep.
	Workers int `json:"workers"`
	// Queries is the total number of queries completed at this point.
	Queries int `json:"queries"`
	// Rows is the per-query result size (identical across the sweep; the
	// workload is fixed so latency differences are contention, not work).
	Rows int `json:"rows"`
	// QPS is queries per wall-clock second across all connections.
	QPS float64 `json:"qps"`
	// P50Ms/P99Ms/MaxMs summarize per-query wall latency as observed by
	// the client, queue wait included.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// QueueP99Ms is the 99th-percentile time requests waited for a
	// worker slot (server-reported); the signal that the pool, not the
	// engine, is the bottleneck.
	QueueP99Ms float64 `json:"queue_p99_ms"`
	// Appends is the number of epoch-advancing writes the background
	// appender landed during this point's measurement window.
	Appends int `json:"appends"`
	// Epoch is the server epoch when the point finished.
	Epoch int64 `json:"epoch"`
}

// serverSweepConns are the connection counts of the full sweep.
var serverSweepConns = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// serverSweepQuick is the CI-sized sweep.
var serverSweepQuick = []int{1, 2, 4, 8}

// ServerSweep measures seqd under concurrent load, 1→256 connections
// (quick: 1→8). With addr == "" it boots an in-process server on a
// loopback listener; otherwise it drives the daemon already listening at
// addr (which must serve a sparse sequence named "bench" — the in-process
// path creates it).
func ServerSweep(addr string, quick bool, workers int) ([]ServerPoint, error) {
	conns := serverSweepConns
	perConn := 40
	if quick {
		conns = serverSweepQuick
		perConn = 15
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var srv *server.Server
	if addr == "" {
		data, err := workload.Stock(workload.StockConfig{
			Name: "bench", Span: seq.NewSpan(1, 20000), Density: 0.8, Seed: 42,
		})
		if err != nil {
			return nil, err
		}
		srv = server.New(server.Config{Workers: workers})
		if err := srv.CreateSequence("bench", data, storage.KindSparse); err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go srv.Serve(ln)
		defer srv.Close()
		addr = ln.Addr().String()
	}

	// One warm-up connection discovers the schema and fixes the
	// expected row count.
	const query = "select(bench, close > 100.0)"
	const qStart, qEnd = 1, 5000
	warm, err := wire.Dial(addr, "seqbench-warmup")
	if err != nil {
		return nil, err
	}
	warmRes, err := warm.Query(query, qStart, qEnd)
	warm.Close()
	if err != nil {
		return nil, err
	}
	rows := len(warmRes.Entries)

	var points []ServerPoint
	for _, n := range conns {
		p, err := serverPoint(addr, n, perConn, query, rows)
		if err != nil {
			return nil, fmt.Errorf("%d conns: %w", n, err)
		}
		p.Workers = workers
		points = append(points, p)
	}
	return points, nil
}

// serverPoint runs one sweep point: n connections, each issuing perConn
// queries back-to-back, plus one appender connection writing throughout.
func serverPoint(addr string, n, perConn int, query string, wantRows int) (ServerPoint, error) {
	type connResult struct {
		lat   []time.Duration
		queue []time.Duration
		err   error
	}
	results := make([]connResult, n)
	var wg sync.WaitGroup

	// Background appender: epoch-advancing writes race the readers, so
	// the sweep measures MVCC the way production would see it. Append
	// positions start far above the base span; each point continues
	// where the last stopped (the daemon path keeps state across
	// points, so ask the server for its end).
	stopAppend := make(chan struct{})
	appendDone := make(chan int, 1)
	ac, err := wire.Dial(addr, "seqbench-appender")
	if err != nil {
		return ServerPoint{}, err
	}
	info, err := ac.Describe("bench")
	if err != nil {
		ac.Close()
		return ServerPoint{}, err
	}
	go func() {
		defer ac.Close()
		count := 0
		pos := info.End + 1
		for {
			select {
			case <-stopAppend:
				appendDone <- count
				return
			default:
			}
			if _, err := ac.Append("bench", pos, appendRecord(info.Fields)); err != nil {
				// A daemon shared across runs may refuse (e.g. dense
				// storage); the sweep is still valid without writes.
				appendDone <- count
				return
			}
			pos++
			count++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	start := time.Now()
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wire.Dial(addr, fmt.Sprintf("seqbench-%d", i))
			if err != nil {
				results[i].err = err
				return
			}
			defer c.Close()
			for j := 0; j < perConn; j++ {
				qs := time.Now()
				res, err := c.Query(query, 1, 5000)
				if err != nil {
					results[i].err = err
					return
				}
				if len(res.Entries) != wantRows {
					results[i].err = fmt.Errorf("row drift: got %d, want %d", len(res.Entries), wantRows)
					return
				}
				results[i].lat = append(results[i].lat, time.Since(qs))
				results[i].queue = append(results[i].queue, time.Duration(res.QueueNs))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopAppend)
	appends := <-appendDone

	var lat, queue []time.Duration
	for _, r := range results {
		if r.err != nil {
			return ServerPoint{}, r.err
		}
		lat = append(lat, r.lat...)
		queue = append(queue, r.queue...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })

	// Final epoch from a throwaway turn.
	ec, err := wire.Dial(addr, "seqbench-epoch")
	if err != nil {
		return ServerPoint{}, err
	}
	epoch := ec.Epoch()
	ec.Close()

	return ServerPoint{
		Conns:      n,
		Queries:    len(lat),
		Rows:       wantRows,
		QPS:        float64(len(lat)) / elapsed.Seconds(),
		P50Ms:      millis(percentile(lat, 50)),
		P99Ms:      millis(percentile(lat, 99)),
		MaxMs:      millis(lat[len(lat)-1]),
		QueueP99Ms: millis(percentile(queue, 99)),
		Appends:    appends,
		Epoch:      epoch,
	}, nil
}

// appendRecord builds a record conforming to the bench schema with
// arbitrary values.
func appendRecord(fields []seq.Field) seq.Record {
	rec := make(seq.Record, len(fields))
	for i, f := range fields {
		switch f.Type {
		case seq.TInt:
			rec[i] = seq.Int(1)
		case seq.TFloat:
			rec[i] = seq.Float(1)
		case seq.TString:
			rec[i] = seq.Str("x")
		default:
			rec[i] = seq.Bool(true)
		}
	}
	return rec
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx >= len(sorted) {
		idx = len(sorted)
	}
	if idx == 0 {
		idx = 1
	}
	return sorted[idx-1]
}

func millis(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// RenderServer formats the sweep as a table.
func RenderServer(points []ServerPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-8s %-9s %-9s %-9s %-9s %-10s %-8s %s\n",
		"conns", "queries", "qps", "p50-ms", "p99-ms", "max-ms", "queue99ms", "appends", "epoch")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6d %-8d %-9.0f %-9.2f %-9.2f %-9.2f %-10.2f %-8d %d\n",
			p.Conns, p.Queries, p.QPS, p.P50Ms, p.P99Ms, p.MaxMs, p.QueueP99Ms, p.Appends, p.Epoch)
	}
	b.WriteString("finding: QPS should rise with connections until the worker pool saturates\n")
	b.WriteString("and then hold, while p50 and p99 latency grow with queue wait — and snapshot\n")
	b.WriteString("isolation keeps readers answering throughout the append stream.\n")
	return b.String()
}
