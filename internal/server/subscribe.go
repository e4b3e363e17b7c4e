// Standing queries: SUBSCRIBE turns a SEQL query into a server-resident
// subscription whose result the client keeps current by applying pushed
// Delta frames. A delta is the step view maintenance stitches with
// (core.PlanHalo): the write's halo clipped to the subscription span,
// planned and run by the engine against the post-write snapshots, sent
// as an epoch-stamped region replacement. The initial content is the
// same step with the whole span as its halo.
//
// Everything happens under Server.wmu, between publishing the write and
// advancing the epoch: a subscriber that applies deltas in arrival order
// can never observe an epoch whose delta it has not seen. The price is
// that a slow subscriber (full TCP buffer) blocks the writer lock — see
// docs/OPERATIONS.md, "Standing-query sizing".
package server

import (
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/seq"
	"repro/internal/wire"
)

// subscription is one standing query on one connection. The node is the
// query's block bound at subscribe time; every maintenance pass rebinds
// its base leaves to the write's snapshots by name.
type subscription struct {
	id   uint64
	c    *conn
	node *algebra.Node
	span seq.Span
}

// subscribe registers a standing query for the connection, sending the
// SubAck and the initial full-content delta atomically with the
// registration (under wmu), so no concurrent write can slip between
// snapshot and registration unseen.
func (s *Server) subscribe(c *conn, seql string, span seq.Span) error {
	if !span.Bounded() {
		return errf(wire.CodePlan, "subscribe needs a bounded span, got %s", span)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	epoch := s.epochs.Current()
	root, err := parser.Bind(seql, s.catalogAt(epoch))
	if err != nil {
		return &Error{Code: wire.CodeParse, Err: err}
	}
	if algebra.UniverseSensitive(root) {
		return errf(wire.CodePlan,
			"standing query is universe-sensitive: its content outside a write's halo could change, so deltas cannot be incremental")
	}
	h, err := core.PlanHalo(root, span, "", seq.EmptySpan, s.sequenceAt(epoch), s.calibrated(s.cfg.Options))
	if err != nil {
		return &Error{Code: wire.CodePlan, Err: err}
	}
	out, err := h.Plan.Run()
	if err != nil {
		return &Error{Code: wire.CodeExec, Err: err}
	}
	s.nextSub++
	if err := c.push(&wire.SubAck{SubID: s.nextSub, Epoch: epoch, Fields: root.Schema.Fields()}); err != nil {
		return err
	}
	sub := &subscription{id: s.nextSub, c: c, node: root, span: span}
	s.subs[sub.id] = sub
	return s.send(sub, epoch, span, out.Entries())
}

// unsubscribe cancels one of the connection's standing queries.
func (s *Server) unsubscribe(c *conn, id uint64) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	sub, ok := s.subs[id]
	if !ok || sub.c != c {
		return errf(wire.CodeNotFound, "no subscription %d on this connection", id)
	}
	delete(s.subs, id)
	return nil
}

// dropConnSubs removes every subscription of a disconnecting client.
func (s *Server) dropConnSubs(c *conn) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for id, sub := range s.subs {
		if sub.c == c {
			delete(s.subs, id)
		}
	}
}

// end terminates a subscription — a dropped base, a failed halo — with a
// final delta at epoch emptying its span; its id is not-found from then.
func (s *Server) end(sub *subscription, epoch int64) {
	_ = s.send(sub, epoch, sub.span, nil) // the client may be gone already
	delete(s.subs, sub.id)
}

// send frames one region replacement for the subscription. A push
// failure means the client is gone; the subscription is dropped and the
// connection's reader will notice.
func (s *Server) send(sub *subscription, epoch int64, region seq.Span, entries []seq.Entry) error {
	for _, d := range wire.SplitDelta(sub.id, epoch, int64(region.Start), int64(region.End), entries) {
		if err := sub.c.push(d); err != nil {
			delete(s.subs, sub.id)
			return err
		}
	}
	return nil
}
