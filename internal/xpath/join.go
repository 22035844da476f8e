package xpath

import (
	"math"
	"sort"

	"repro/internal/document"
	"repro/internal/goddag"
)

// spanJoin is the structural join behind covered and covering steps
// with an element test: one merge pass over the origins, sorted by span
// start, and the step's name bucket, which is in document order and so
// sorted by start too (Al-Khalifa et al., "Structural Joins", ICDE 2002,
// over the interval tables of Hasibi & Bratsberg). It emits the bucket
// members the axis relates to some origin other than themselves, in
// bucket order: document order, duplicate-free, with no sort.
//
//   - covered::B keeps b when some origin a ≢ b has a.Start ≤ b.Start
//     and b.End ≤ a.End: a running maximum of End over the origins that
//     start at or before b. When that maximum ends before b starts, no
//     bucket member before the next origin's start can be covered, and
//     the cursor gallops there by binary search.
//   - covering::B keeps a non-empty b when some origin a ≢ b has
//     a.Start ≥ b.Start and a.End ≤ b.End: a suffix minimum of End over
//     the origins that start at or after b.
//
// Each fold keeps its two best ends and the owner of the best, so a
// bucket member that is itself an origin is never its own witness.
// These are exactly the relations axisNodes computes per origin, empty
// spans included (ContainsSpan of an empty span is the same pair of
// inequalities).
//
// The origins are either a bucket (the planner's //A/covered::B) or a
// node list (evalStep), whose members may also be leaves or the root;
// those are never bucket members, so they witness with a nil owner.
type spanJoin struct {
	axis   Axis
	els    []*goddag.Element // the step's bucket
	oEls   []*goddag.Element // origins, when they are a bucket
	oNodes []goddag.Node     // origins, otherwise
	nOrig  int
	i, j   int // next bucket member, next origin
	lim    *Limiter
	work   int // join steps since the last limiter tick

	// covered: the two largest ends among origins j' < j, from distinct
	// owners, and the owner of the largest.
	max1, max2 int
	own1       *goddag.Element
	// covering: suf[k] folds the ends of origins k.. (see joinMin).
	suf []joinMin
}

// joinMin is the covering fold over a suffix of the origins: the two
// smallest ends, from distinct owners, and the owner of the smallest.
type joinMin struct {
	min1, min2 int
	own1       *goddag.Element
}

// coveringJoinRatio bounds the bucket size, in origins, up to which a
// covering step joins instead of probing the span index per origin.
// Covering cannot gallop: a bucket member that starts before an origin
// may still end after it, so the join reads the whole bucket, while a
// per-origin probe costs about the handful of elements that intersect
// its origin. At 8,000 words a probe costs about 2.5 µs and the join
// 20–30 ns per origin and bucket member, so the two break even near a
// ratio of 100; 32 keeps a margin.
const coveringJoinRatio = 32

// joinPays reports whether the join serves a covered or covering step
// from origins origins into a bucket of size bkt. covered always joins:
// galloping keeps it within the per-origin window searches.
func joinPays(axis Axis, origins, bkt int) bool {
	return axis == AxisCovered || bkt <= coveringJoinRatio*origins
}

// newSpanJoin returns the join of origins (exactly one of oEls and
// oNodes set, sorted by span start) with the bucket els.
func newSpanJoin(axis Axis, els, oEls []*goddag.Element, oNodes []goddag.Node, lim *Limiter) *spanJoin {
	c := &spanJoin{axis: axis, els: els, oEls: oEls, oNodes: oNodes, lim: lim, max1: -1, max2: -1}
	c.nOrig = len(oEls) + len(oNodes)
	if axis == AxisCovering {
		c.suf = make([]joinMin, c.nOrig+1)
		c.suf[c.nOrig] = joinMin{min1: math.MaxInt, min2: math.MaxInt}
		for k := c.nOrig - 1; k >= 0; k-- {
			sp, own := c.origin(k)
			m := c.suf[k+1]
			switch {
			case own != nil && own == m.own1: // a repeated origin
			case sp.End < m.min1:
				m.min2, m.min1, m.own1 = m.min1, sp.End, own
			case sp.End < m.min2:
				m.min2 = sp.End
			}
			c.suf[k] = m
		}
		c.work = c.nOrig // the first tick charges this pass
	}
	return c
}

// origin returns origin k's span and, when it is an element, the
// element.
func (c *spanJoin) origin(k int) (document.Span, *goddag.Element) {
	if c.oEls != nil {
		e := c.oEls[k]
		return e.Span(), e
	}
	n := c.oNodes[k]
	el, _ := n.(*goddag.Element)
	return n.Span(), el
}

// tick counts one join step and charges the limiter once per
// cursorTick steps.
func (c *spanJoin) tick() error {
	c.work++
	if c.work < cursorTick {
		return nil
	}
	n := c.work
	c.work = 0
	return c.lim.Visit(n)
}

func (c *spanJoin) next() (goddag.Node, error) {
	if c.axis == AxisCovering {
		return c.nextCovering()
	}
	return c.nextCovered()
}

func (c *spanJoin) nextCovered() (goddag.Node, error) {
	for c.i < len(c.els) {
		if err := c.tick(); err != nil {
			return nil, err
		}
		b := c.els[c.i]
		bs := b.Span()
		for c.j < c.nOrig {
			sp, own := c.origin(c.j)
			if sp.Start > bs.Start {
				break
			}
			c.j++
			if err := c.tick(); err != nil {
				return nil, err
			}
			switch {
			case own != nil && own == c.own1: // a repeated origin
			case sp.End > c.max1:
				c.max2, c.max1, c.own1 = c.max1, sp.End, own
			case sp.End > c.max2:
				c.max2 = sp.End
			}
		}
		if c.max1 < bs.Start {
			// No origin so far reaches b, nor any later member that
			// starts before the next origin does.
			if c.j == c.nOrig {
				c.i = len(c.els)
				break
			}
			next, _ := c.origin(c.j)
			rest := c.els[c.i:]
			c.i += sort.Search(len(rest), func(k int) bool { return rest[k].Span().Start >= next.Start })
			continue
		}
		c.i++
		reach := c.max1
		if c.own1 == b {
			reach = c.max2
		}
		if bs.End <= reach {
			return b, nil
		}
	}
	return nil, c.flush()
}

func (c *spanJoin) nextCovering() (goddag.Node, error) {
	for c.i < len(c.els) {
		if err := c.tick(); err != nil {
			return nil, err
		}
		b := c.els[c.i]
		c.i++
		bs := b.Span()
		if bs.IsEmpty() {
			continue
		}
		for c.j < c.nOrig {
			if sp, _ := c.origin(c.j); sp.Start >= bs.Start {
				break
			}
			c.j++
		}
		if c.j == c.nOrig {
			// Every origin starts before b, and so before every later
			// member.
			c.i = len(c.els)
			break
		}
		m := c.suf[c.j]
		reach := m.min1
		if m.own1 == b {
			reach = m.min2
		}
		if reach <= bs.End {
			return b, nil
		}
	}
	return nil, c.flush()
}

// flush charges the steps since the last tick once the join is
// exhausted.
func (c *spanJoin) flush() error {
	n := c.work
	c.work = 0
	return c.lim.Visit(n)
}

func (c *spanJoin) size() int { return -1 }

// drain materializes the rest of the join.
func (c *spanJoin) drain() ([]goddag.Node, error) {
	var out []goddag.Node
	for {
		n, err := c.next()
		if err != nil || n == nil {
			return out, err
		}
		out = append(out, n)
	}
}

// startsSorted reports whether ns is sorted by span start, the join's
// order on its origins. Node lists in document order always are.
func startsSorted(ns []goddag.Node) bool {
	prev := 0
	for _, n := range ns {
		s := n.Span().Start
		if s < prev {
			return false
		}
		prev = s
	}
	return true
}
