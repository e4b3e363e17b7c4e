package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// tracedClient is a seqd connection the benchmark frames itself, so it
// can stamp the three client-side moments of a request: sent, first
// response byte read, last response byte read. wire.Client hides the
// connection; this speaks the same protocol with wire.WriteMessage and
// wire.ReadMessage.
type tracedClient struct {
	conn stampConn
	r    *bufio.Reader
	w    *bufio.Writer
}

// stampConn records when the first byte after a reset arrived.
type stampConn struct {
	net.Conn
	first *time.Time
}

func (c stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.first.IsZero() {
		*c.first = time.Now()
	}
	return n, err
}

func dialTraced(addr, name string) (*tracedClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tracedClient{conn: stampConn{Conn: conn, first: new(time.Time)}}
	c.r, c.w = bufio.NewReader(c.conn), bufio.NewWriter(conn)
	if _, _, err := c.turn(&wire.Hello{Version: wire.ProtocolVersion, Client: name}, func(m wire.Message) bool {
		_, ack := m.(*wire.HelloAck)
		return ack
	}); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// turn sends one request and reads frames until last reports the turn's
// final frame, returning when the request had been flushed and when the
// first response byte arrived.
func (c *tracedClient) turn(req wire.Message, last func(wire.Message) bool) (sent, first time.Time, err error) {
	*c.conn.first = time.Time{}
	if err = wire.WriteMessage(c.w, req); err == nil {
		err = c.w.Flush()
	}
	sent = time.Now()
	for err == nil {
		var m wire.Message
		if m, err = wire.ReadMessage(c.r, 0); err != nil {
			break
		}
		if e, ok := m.(*wire.Error); ok {
			err = &wire.ServerError{Code: e.Code, Message: e.Message}
			continue // still drain to Ready
		}
		if last(m) {
			return sent, *c.conn.first, nil
		}
	}
	return sent, *c.conn.first, err
}

func (c *tracedClient) close() {
	_ = wire.WriteMessage(c.w, &wire.Close{})
	_ = c.w.Flush()
	c.conn.Close()
}

// do performs one operation as wire.Client would, and records a span per
// client-side phase: send, wait for the first byte, read to the last.
// The three tile the operation.
func (c *tracedClient) do(o op, id int, tr *tracer) (answer, error) {
	t0 := time.Now()
	var a answer
	var done *wire.ResultDone
	var ack *wire.Ack
	var req wire.Message = &wire.Query{SEQL: o.SEQL, Start: o.Start, End: o.End}
	if o.Kind == opAppend {
		req = &wire.Append{Seq: o.Base, Pos: o.Pos, Rec: o.Rec}
	}
	sent, first, err := c.turn(req, func(m wire.Message) bool {
		switch t := m.(type) {
		case *wire.ResultRows:
			a.entries = append(a.entries, t.Entries...)
		case *wire.ResultDone:
			done = t
		case *wire.Ack:
			ack = t
		case *wire.Ready:
			return true
		}
		return false
	})
	end := time.Now()
	if first.IsZero() {
		first = end
	}
	root := tr.record(-1, id, "client.op", t0, end)
	tr.record(root, id, "client.send", t0, sent)
	tr.record(root, id, "client.first_byte", sent, first)
	tr.record(root, id, "client.last_byte", first, end)
	switch {
	case err != nil:
		return a, err
	case o.Kind == opQuery && done == nil:
		return a, fmt.Errorf("%s: response missing ResultDone", o.SEQL)
	case o.Kind == opQuery:
		a.elapsedNs, a.queueNs = done.ElapsedNs, done.QueueNs
	case ack == nil:
		return a, fmt.Errorf("append %s@%d: response missing Ack", o.Base, o.Pos)
	default:
		a.epoch = ack.Epoch
	}
	return a, nil
}
