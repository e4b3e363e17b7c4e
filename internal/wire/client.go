package wire

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/seq"
)

// ServerError is a server-reported failure surfaced by Client calls.
type ServerError struct {
	Code    ErrorCode
	Message string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("seqd: %s: %s", e.Code, e.Message)
}

// Client is a synchronous seqd connection: one request in flight at a
// time, each response read to its Ready turn marker. It is not safe for
// concurrent use; open one Client per goroutine.
//
// Subscriptions are the one asynchronous element: after Subscribe, the
// server pushes Delta frames outside request/response turns. Deltas that
// arrive while a turn is being drained are queued in arrival order;
// ReadDelta pops the queue or blocks reading the connection.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	epoch   int64 // server epoch from the latest Ready/HelloAck
	server  string
	version uint32
	deltas  []*Delta // pushed frames routed out of response turns
}

// Dial connects to a seqd server and performs the Hello/HelloAck
// handshake, announcing clientName.
func Dial(addr, clientName string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, clientName)
}

// NewClient performs the Hello/HelloAck handshake on an established
// connection, announcing clientName. The Client owns conn from then on;
// it is closed when the handshake fails.
func NewClient(conn net.Conn, clientName string) (*Client, error) {
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := c.send(&Hello{Version: ProtocolVersion, Client: clientName}); err != nil {
		conn.Close()
		return nil, err
	}
	m, err := c.read()
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch ack := m.(type) {
	case *HelloAck:
		c.epoch = ack.Epoch
		c.server = ack.Server
		c.version = ack.Version
	case *Error:
		conn.Close()
		return nil, &ServerError{Code: ack.Code, Message: ack.Message}
	default:
		conn.Close()
		return nil, fmt.Errorf("seqd: handshake got %s", TypeName(m.Type()))
	}
	return c, nil
}

// Close sends the Close message and tears down the connection.
func (c *Client) Close() error {
	_ = c.send(&Close{})
	return c.conn.Close()
}

// Epoch returns the server's MVCC epoch as of the latest response turn.
func (c *Client) Epoch() int64 { return c.epoch }

// Server returns the server name from the handshake.
func (c *Client) Server() string { return c.server }

// Version returns the negotiated protocol version.
func (c *Client) Version() uint32 { return c.version }

func (c *Client) send(m Message) error {
	if err := WriteMessage(c.w, m); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *Client) read() (Message, error) {
	return ReadMessage(c.r, 0)
}

// turn sends a request and collects every response message up to (not
// including) Ready. A server Error becomes a *ServerError, but the turn
// is still drained to Ready first.
func (c *Client) turn(req Message) ([]Message, error) {
	if err := c.send(req); err != nil {
		return nil, err
	}
	var msgs []Message
	var srvErr *ServerError
	for {
		m, err := c.read()
		if err != nil {
			return nil, err
		}
		switch t := m.(type) {
		case *Ready:
			c.epoch = t.Epoch
			if srvErr != nil {
				return nil, srvErr
			}
			return msgs, nil
		case *Error:
			if srvErr == nil {
				srvErr = &ServerError{Code: t.Code, Message: t.Message}
			}
		case *Delta:
			// Pushed by a concurrent writer's handler; not part of this
			// turn. Queued for ReadDelta.
			c.deltas = append(c.deltas, t)
		default:
			msgs = append(msgs, m)
		}
	}
}

// QueryResult is a fully-drained query response.
type QueryResult struct {
	Fields    []seq.Field
	Entries   []seq.Entry
	Rows      uint64
	Epoch     int64 // MVCC epoch the query was pinned at
	ElapsedNs uint64
	QueueNs   uint64 // time the request waited for a worker slot
}

// Query runs a SEQL query over the inclusive span [start, end] and
// drains the full result.
func (c *Client) Query(seql string, start, end int64) (*QueryResult, error) {
	msgs, err := c.turn(&Query{SEQL: seql, Start: start, End: end})
	if err != nil {
		return nil, err
	}
	res := &QueryResult{}
	for _, m := range msgs {
		switch t := m.(type) {
		case *ResultHeader:
			res.Fields = t.Fields
			res.Epoch = t.Epoch
		case *ResultRows:
			res.Entries = append(res.Entries, t.Entries...)
		case *ResultDone:
			res.Rows = t.Rows
			res.Epoch = t.Epoch
			res.ElapsedNs = t.ElapsedNs
			res.QueueNs = t.QueueNs
		}
	}
	return res, nil
}

// Explain returns the optimizer's rendered plan for a query.
func (c *Client) Explain(seql string, start, end int64) (string, error) {
	return c.planTurn(&Explain{SEQL: seql, Start: start, End: end})
}

// Analyze executes with instrumentation and returns the rendered
// metrics, including the server counter block.
func (c *Client) Analyze(seql string, start, end int64) (string, error) {
	return c.planTurn(&Analyze{SEQL: seql, Start: start, End: end})
}

// Materialize registers a named shared view computed over the session
// snapshot. Retries are the caller's business on CodeConflict.
func (c *Client) Materialize(name, seql string, start, end int64) (string, error) {
	return c.ackTurn(&Materialize{Name: name, SEQL: seql, Start: start, End: end})
}

// Append adds one record beyond the end of a sparse base sequence and
// returns the new epoch.
func (c *Client) Append(seqName string, pos int64, rec seq.Record) (int64, error) {
	t, err := expect[*Ack](c, &Append{Seq: seqName, Pos: pos, Rec: rec})
	if err != nil {
		return 0, err
	}
	return t.Epoch, nil
}

// SetOption adjusts one session option.
func (c *Client) SetOption(name, value string) (string, error) {
	return c.ackTurn(&SetOption{Name: name, Value: value})
}

// DropView removes a shared materialized view.
func (c *Client) DropView(name string) (string, error) {
	return c.ackTurn(&DropView{Name: name})
}

// expect runs one turn and returns its first frame of type T: every
// typed call but Query reads its answer from one such frame.
func expect[T Message](c *Client, req Message) (T, error) {
	var zero T
	msgs, err := c.turn(req)
	if err != nil {
		return zero, err
	}
	for _, m := range msgs {
		if t, ok := m.(T); ok {
			return t, nil
		}
	}
	return zero, fmt.Errorf("seqd: response missing %s", TypeName(zero.Type()))
}

func (c *Client) planTurn(req Message) (string, error) {
	t, err := expect[*PlanText](c, req)
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

func (c *Client) ackTurn(req Message) (string, error) {
	t, err := expect[*Ack](c, req)
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

// ListSeqs returns the catalog's sequence names.
func (c *Client) ListSeqs() ([]string, error) {
	t, err := expect[*SeqList](c, &ListSeqs{})
	if err != nil {
		return nil, err
	}
	return t.Names, nil
}

// Describe returns one sequence's schema and metadata as of the session
// snapshot.
func (c *Client) Describe(name string) (*SeqInfo, error) {
	return expect[*SeqInfo](c, &Describe{Name: name})
}

// Subscribe registers a standing query over the inclusive span
// [start, end]. The returned SubAck carries the subscription id and
// output schema; the initial full-content Delta and all subsequent
// incremental ones are read with ReadDelta.
func (c *Client) Subscribe(seql string, start, end int64) (*SubAck, error) {
	return expect[*SubAck](c, &Subscribe{SEQL: seql, Start: start, End: end})
}

// Unsubscribe cancels a standing query. Deltas the server framed before
// processing the request may still be delivered (they queue for
// ReadDelta); none follow the Ack.
func (c *Client) Unsubscribe(id uint64) (string, error) {
	return c.ackTurn(&Unsubscribe{SubID: id})
}

// ReadDelta returns the next pushed Delta, blocking on the connection
// when none is queued. Any other frame arriving outside a turn is a
// protocol error.
func (c *Client) ReadDelta() (*Delta, error) {
	if len(c.deltas) > 0 {
		d := c.deltas[0]
		c.deltas = c.deltas[1:]
		return d, nil
	}
	m, err := c.read()
	if err != nil {
		return nil, err
	}
	if d, ok := m.(*Delta); ok {
		return d, nil
	}
	return nil, fmt.Errorf("seqd: expected Delta outside a turn, got %s", TypeName(m.Type()))
}

// PendingDeltas reports how many pushed deltas are queued client-side
// (it does not read the connection).
func (c *Client) PendingDeltas() int { return len(c.deltas) }

// ListViews returns the shared materialized views with counters.
func (c *Client) ListViews() ([]ViewInfo, error) {
	t, err := expect[*ViewList](c, &ListViews{})
	if err != nil {
		return nil, err
	}
	return t.Views, nil
}
