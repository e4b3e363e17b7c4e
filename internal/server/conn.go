package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/seq"
	"repro/internal/wire"
)

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close, one goroutine per
// connection, and runs the background epoch GC when Config.GCInterval is
// set. Serve returns nil after Close.
func (s *Server) Serve(ln net.Listener) error {
	s.listenMu.Lock()
	s.ln = ln
	// A Close that ran before the listener was registered found nothing
	// to close; without this re-check Accept would block forever.
	closed := s.closed.Load()
	s.listenMu.Unlock()
	if closed {
		ln.Close()
		return nil
	}
	if s.cfg.GCInterval > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.ServeConn(conn)
	}
}

// ServeConn serves one established connection (an in-process net.Pipe,
// say) on its own goroutine, as Serve serves an accepted one: Close
// closes it and waits for its handler.
func (s *Server) ServeConn(nc net.Conn) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.handleConn(nc)
	}()
}

// Close stops accepting, stops the GC loop, closes every open
// connection, and waits for their handlers to return. Closing the
// connections matters: an idle handler blocks in wire.ReadMessage with
// no deadline, so without it Close would hang until every client hung
// up on its own.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stopGC)
	s.listenMu.Lock()
	ln := s.ln
	s.listenMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.connMu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return nil
}

// track registers an accepted connection so Close can unblock its
// reader. It refuses (and the caller must drop the connection) when the
// server is already closed — checked under connMu so a connection
// accepted concurrently with Close cannot slip past the close loop.
func (s *Server) track(nc net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed.Load() {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[nc] = struct{}{}
	return true
}

func (s *Server) untrack(nc net.Conn) {
	s.connMu.Lock()
	delete(s.conns, nc)
	s.connMu.Unlock()
}

func (s *Server) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopGC:
			return
		case <-t.C:
			s.GCOnce()
		}
	}
}

// conn is one client connection's wire state. The write side is shared:
// the connection's own handler writes response turns, and writers on
// other connections push Delta frames for this connection's standing
// queries (under Server.wmu; see subscribe.go). wm makes each frame
// atomic in the outgoing stream; wmu orders above it, so a handler never
// holds wm while taking wmu.
//
//seqvet:lockorder server.Server.wmu < server.conn.wm
type conn struct {
	srv  *Server
	sess *Session
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	wm   sync.Mutex // guards w; frames from both sides interleave whole
}

func (c *conn) send(m wire.Message) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	return wire.WriteMessage(c.w, m)
}

func (c *conn) flush() error {
	c.wm.Lock()
	defer c.wm.Unlock()
	return c.w.Flush()
}

// push writes and flushes one asynchronous frame (SubAck or Delta).
// Flushing matters: the subscriber may be idle between turns, so a
// buffered delta would otherwise sit unsent indefinitely.
func (c *conn) push(m wire.Message) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	if err := wire.WriteMessage(c.w, m); err != nil {
		return err
	}
	return c.w.Flush()
}

// ready ends the turn: flush everything buffered plus the turn marker.
func (c *conn) ready() error {
	if err := c.send(&wire.Ready{Epoch: c.srv.epochs.Current()}); err != nil {
		return err
	}
	return c.flush()
}

// fail reports a classified error and ends the turn.
func (c *conn) fail(err error) error {
	var se *Error
	if !errors.As(err, &se) {
		se = &Error{Code: wire.CodeInternal, Err: err}
	}
	if err := c.send(&wire.Error{Code: se.Code, Message: se.Err.Error()}); err != nil {
		return err
	}
	return c.ready()
}

func (s *Server) handleConn(nc net.Conn) {
	defer nc.Close()
	if !s.track(nc) {
		return
	}
	defer s.untrack(nc)
	// Defense in depth: a panic while serving one client (a decoder bug,
	// an engine invariant) must cost that connection, not the daemon.
	defer func() {
		if p := recover(); p != nil {
			_ = wire.WriteMessage(nc, &wire.Error{
				Code: wire.CodeInternal, Message: fmt.Sprintf("panic: %v", p)})
		}
	}()
	c := &conn{
		srv: s,
		nc:  nc,
		r:   bufio.NewReader(nc),
		w:   bufio.NewWriter(nc),
	}
	defer s.dropConnSubs(c)
	if !c.handshake() {
		return
	}
	s.nSessions.Add(1)
	defer s.nSessions.Add(-1)
	for !s.closed.Load() {
		m, err := wire.ReadMessage(c.r, s.cfg.MaxFrame)
		if err != nil {
			// EOF without Close is a dropped client, not a protocol
			// error worth answering.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				_ = c.send(&wire.Error{Code: wire.CodeProtocol, Message: err.Error()})
				_ = c.flush()
			}
			return
		}
		if _, ok := m.(*wire.Close); ok {
			return
		}
		if err := c.serve(m); err != nil {
			return // connection-level write failure
		}
	}
}

// handshake performs Hello/HelloAck. A version below the minimum gets an
// Error frame and a closed connection.
func (c *conn) handshake() bool {
	m, err := wire.ReadMessage(c.r, c.srv.cfg.MaxFrame)
	if err != nil {
		return false
	}
	hello, ok := m.(*wire.Hello)
	if !ok {
		_ = c.send(&wire.Error{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("expected Hello, got %s", wire.TypeName(m.Type()))})
		_ = c.flush()
		return false
	}
	if hello.Version < wire.MinProtocolVersion {
		_ = c.send(&wire.Error{Code: wire.CodeVersion,
			Message: fmt.Sprintf("client version %d below server minimum %d", hello.Version, wire.MinProtocolVersion)})
		_ = c.flush()
		return false
	}
	version := hello.Version
	if version > wire.ProtocolVersion {
		version = wire.ProtocolVersion
	}
	c.sess = c.srv.NewSession(hello.Client)
	if err := c.send(&wire.HelloAck{Version: version, Server: c.srv.name, Epoch: c.srv.epochs.Current()}); err != nil {
		return false
	}
	return c.flush() == nil
}

// serve answers one request: reply computes the response frames, then
// one loop sends them and ends the turn. The engine has released its
// worker slot and epoch pin by the time reply returns, so no socket
// write holds either. serve returns an error only for connection-level
// failures; request failures are reported in-band and keep the
// connection alive.
func (c *conn) serve(m wire.Message) error {
	msgs, err := c.reply(m)
	if err != nil {
		return c.fail(err)
	}
	for _, out := range msgs {
		if err := c.send(out); err != nil {
			return err
		}
	}
	return c.ready()
}

// one is a single-frame reply; serve drops it when err is set.
func one(m wire.Message, err error) ([]wire.Message, error) { return []wire.Message{m}, err }

// reply dispatches one request to the engine and returns its response
// frames, Ready excluded.
func (c *conn) reply(m wire.Message) ([]wire.Message, error) {
	switch req := m.(type) {
	case *wire.Query:
		res, err := c.sess.Query(req.SEQL, seq.NewSpan(seq.Pos(req.Start), seq.Pos(req.End)))
		if err != nil {
			return nil, err
		}
		out := []wire.Message{&wire.ResultHeader{Fields: res.Fields, Epoch: res.Epoch}}
		// Batches are bounded by encoded size as well as row count so a
		// string-heavy result cannot produce a frame the client's
		// MaxFrame check rejects.
		for _, batch := range wire.SplitRows(res.Entries) {
			out = append(out, &wire.ResultRows{Entries: batch})
		}
		return append(out, &wire.ResultDone{
			Rows:      uint64(len(res.Entries)),
			Epoch:     res.Epoch,
			ElapsedNs: uint64(res.Elapsed.Nanoseconds()),
			QueueNs:   uint64(res.Queue.Nanoseconds()),
		}), nil

	case *wire.Explain:
		text, _, err := c.sess.Explain(req.SEQL, seq.NewSpan(seq.Pos(req.Start), seq.Pos(req.End)))
		return one(&wire.PlanText{Text: text}, err)

	case *wire.Analyze:
		text, _, err := c.sess.Analyze(req.SEQL, seq.NewSpan(seq.Pos(req.Start), seq.Pos(req.End)))
		return one(&wire.PlanText{Text: text}, err)

	case *wire.Materialize:
		epoch, queue, err := c.sess.Materialize(req.Name, req.SEQL, seq.NewSpan(seq.Pos(req.Start), seq.Pos(req.End)))
		note := fmt.Sprintf("materialized %q over snapshot epoch %d (queue-wait %s)",
			req.Name, epoch, queue.Round(time.Microsecond))
		return one(&wire.Ack{Text: note, Epoch: epoch}, err)

	case *wire.Append:
		epoch, err := c.srv.Append(req.Seq, seq.Pos(req.Pos), req.Rec)
		note := fmt.Sprintf("appended to %q at position %d", req.Seq, req.Pos)
		return one(&wire.Ack{Text: note, Epoch: epoch}, err)

	case *wire.SetOption:
		note, err := c.sess.SetOption(req.Name, req.Value)
		return one(&wire.Ack{Text: note, Epoch: c.srv.epochs.Current()}, err)

	case *wire.ListSeqs:
		return one(&wire.SeqList{Names: c.srv.Sequences()}, nil)

	case *wire.Describe:
		info, err := c.sess.Describe(req.Name)
		return one(info, err)

	case *wire.DropView:
		err := c.srv.DropView(req.Name)
		return one(&wire.Ack{Text: fmt.Sprintf("dropped view %q", req.Name), Epoch: c.srv.epochs.Current()}, err)

	case *wire.Subscribe:
		// SubAck and the initial content deltas are framed inside
		// subscribe, atomically with the registration; only the turn
		// marker is left to serve.
		return nil, c.srv.subscribe(c, req.SEQL, seq.NewSpan(seq.Pos(req.Start), seq.Pos(req.End)))

	case *wire.Unsubscribe:
		err := c.srv.unsubscribe(c, req.SubID)
		return one(&wire.Ack{Text: fmt.Sprintf("unsubscribed %d", req.SubID), Epoch: c.srv.epochs.Current()}, err)

	case *wire.ListViews:
		counters := c.srv.ViewCounters()
		views := make([]wire.ViewInfo, len(counters))
		for i, v := range counters {
			views[i] = wire.ViewInfo{
				Name:        v.Name,
				Start:       int64(v.Span.Start),
				End:         int64(v.Span.End),
				Records:     int64(v.Records),
				Density:     v.Density,
				Hits:        v.Hits,
				Misses:      v.Misses,
				FromEpoch:   v.FromEpoch,
				InvalidFrom: v.InvalidFrom,
			}
		}
		return one(&wire.ViewList{Views: views}, nil)

	default:
		return nil, errf(wire.CodeProtocol, "unexpected %s in request position", wire.TypeName(m.Type()))
	}
}
