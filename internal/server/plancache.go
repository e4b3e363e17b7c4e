package server

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/reopt"
	"repro/internal/seq"
)

// The plan cache's bound: at most planProbation plans read once plus
// planProtected plans read again, 1 024 in all. A cached plan retains
// its chosen physical plans, annotation and rewritten tree, about 22 KB
// for a 6-way compose, so the bound holds the cache near 23 MB.
const (
	planProbation = 128
	planProtected = 896
)

// planOptions are the planner options a plan depends on, by value: the
// fields SetOption sets, and base, which is 0 for a session planning
// with the server's other options and a number of its own for a session
// that does not. Sessions with equal planOptions share cached plans.
type planOptions struct {
	base        uint64
	parallelism int
	reopt       reopt.Config
	verify      bool
	views       bool
}

// planKey identifies a planning request: the planner options, the text's
// shape (parser.Shape.Key: the text with its slot literals lifted out)
// and the span.
type planKey struct {
	opts  planOptions
	shape string
	span  seq.Span
}

// planEntry is one cached plan, made for the slot values slots and valid
// only to a reader pinned at epoch while the server's plan generation is
// gen.
type planEntry struct {
	key   planKey
	slots []seq.Value
	epoch int64
	gen   uint64
	res   *core.Result
	seg   int // index into planCache.segments
}

// planCache is the server's bounded cache of optimized SEQL reads.
// Planning is a pure function of the text, the span, the planner
// options, the snapshots and views valid at the epoch, and the server's
// calibration fit; the key covers the shape of the text, the span and the
// options, an entry's slot values the rest of the text, and its (epoch,
// gen) the rest. A read whose slot values differ from the entry's is
// served the entry's plan with its own literals substituted (a rebound
// hit) when the plan does not depend on the difference
// (core.Result.Rebinds). DESIGN.md ("Server read path") states the
// argument.
//
// It is a segmented LRU: a new plan enters the probation segment, and a
// read of its key again moves it to the protected segment, whose least
// recently used plan falls back to probation. A key read only once so
// ages out of probation without displacing a plan that is read again,
// and keeps little heap for the garbage collector to mark.
type planCache struct {
	hits, rebound, misses atomic.Int64

	mu       sync.Mutex
	segments [2]*list.List // of *planEntry, most recently used first
	bounds   [2]int
	entries  map[planKey]*list.Element
}

// The two segments of the plan cache.
const (
	probation = iota
	protected
)

func newPlanCache(probationBound, protectedBound int) *planCache {
	return &planCache{
		segments: [2]*list.List{list.New(), list.New()},
		bounds:   [2]int{probationBound, protectedBound},
		entries:  make(map[planKey]*list.Element),
	}
}

// get returns the plan cached for key at (epoch, gen) if it serves the
// slot values vals, counting a hit or a miss. rebound reports that the
// plan was made for other values: the caller substitutes vals
// (core.Result.WithLiterals).
func (c *planCache) get(key planKey, vals []seq.Value, epoch int64, gen uint64) (res *core.Result, rebound, ok bool) {
	c.mu.Lock()
	if el, found := c.entries[key]; found {
		e := el.Value.(*planEntry)
		if e.epoch == epoch && e.gen == gen {
			rebound = !slices.Equal(e.slots, vals)
			if ok = !rebound || e.res.Rebinds(vals); ok {
				res = e.res
				c.protect(el)
			}
		}
	}
	c.mu.Unlock()
	switch {
	case !ok:
		c.misses.Add(1)
		return nil, false, false
	case rebound:
		c.rebound.Add(1)
	}
	c.hits.Add(1)
	return res, rebound, true
}

// put caches res, planned for the slot values vals, for key at (epoch,
// gen). A key cached before — at an older epoch or generation, or for
// values its plan could not serve — is read again: its new plan is
// protected.
func (c *planCache) put(key planKey, vals []seq.Value, epoch int64, gen uint64, res *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*planEntry)
		e.slots, e.epoch, e.gen, e.res = vals, epoch, gen, res
		c.protect(el)
		return
	}
	c.entries[key] = c.segments[probation].PushFront(&planEntry{key: key, slots: vals, epoch: epoch, gen: gen, res: res})
	c.trim()
}

// protect makes el the most recently used protected entry.
func (c *planCache) protect(el *list.Element) {
	e := el.Value.(*planEntry)
	if e.seg == protected {
		c.segments[protected].MoveToFront(el)
		return
	}
	c.segments[probation].Remove(el)
	e.seg = protected
	c.entries[e.key] = c.segments[protected].PushFront(e)
	c.trim()
}

// trim demotes protected entries beyond its bound to probation, then
// evicts probation entries beyond its bound, least recently used first.
func (c *planCache) trim() {
	for c.segments[protected].Len() > c.bounds[protected] {
		e := c.segments[protected].Remove(c.segments[protected].Back()).(*planEntry)
		e.seg = probation
		c.entries[e.key] = c.segments[probation].PushFront(e)
	}
	for c.segments[probation].Len() > c.bounds[probation] {
		c.remove(c.segments[probation].Back())
	}
}

// dropBelow removes the entries pinned below minLive: no reader can pin
// their epoch again, and their snapshots may be reclaimed.
func (c *planCache) dropBelow(minLive int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, seg := range c.segments {
		for el := seg.Front(); el != nil; {
			next := el.Next()
			if el.Value.(*planEntry).epoch < minLive {
				c.remove(el)
			}
			el = next
		}
	}
}

func (c *planCache) remove(el *list.Element) {
	e := el.Value.(*planEntry)
	c.segments[e.seg].Remove(el)
	delete(c.entries, e.key)
}

// len returns the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.segments[probation].Len() + c.segments[protected].Len()
}
