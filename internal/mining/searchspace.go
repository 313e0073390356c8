package mining

import (
	"fmt"

	"dfpc/internal/obs"
)

// Per-depth search-space telemetry. Mine classifies every visited
// candidate itemset by depth (its item count) and outcome — considered,
// emitted, or pruned (and why) — so a live /metrics scrape or a
// RunReport shows the shape of the enumeration the way the paper's
// Figures 1–3 characterize it: how the search fans out with length and
// where the pruning rules actually bite.
//
// Counter names are mine.depth<DD>.<kind> with DD zero-padded so
// report listings sort by depth; depth is clamped to maxDepthBucket
// (the last bucket aggregates everything deeper) to bound the metric
// namespace on adversarial datasets.

// maxDepthBucket caps the per-depth counter cardinality; depth ≥ 16
// lands in bucket 16.
const maxDepthBucket = 16

// depthCounters is one outcome's per-depth counter row, with handles
// cached so the hot enumeration path pays one nil check plus one
// atomic. A nil *depthCounters (observability off) is a no-op. Each
// miner run owns its own instance; the underlying counters live in the
// observer's shared registry, so concurrent per-class runs still sum
// into exact totals.
type depthCounters struct {
	o    *obs.Observer
	kind string
	c    [maxDepthBucket]*obs.Counter
}

func newDepthCounters(o *obs.Observer, kind string) *depthCounters {
	if o == nil {
		return nil
	}
	return &depthCounters{o: o, kind: kind}
}

// inc counts one candidate at the given depth (clamped to [1,
// maxDepthBucket]).
func (d *depthCounters) inc(depth int) {
	d.add(depth, 1)
}

// add counts n candidates at the given depth.
func (d *depthCounters) add(depth int, n int64) {
	if d == nil {
		return
	}
	i := depth
	if i < 1 {
		i = 1
	}
	if i > maxDepthBucket {
		i = maxDepthBucket
	}
	i--
	c := d.c[i]
	if c == nil {
		c = d.o.Counter(fmt.Sprintf("mine.depth%02d.%s", i+1, d.kind))
		d.c[i] = c
	}
	c.Add(n)
}

// searchSpace bundles the outcome rows a miner records. The zero value
// of every field (observability off) makes each call a nil check.
type searchSpace struct {
	// candidates counts every itemset the miner materialized and
	// considered at a depth, before any accept/prune decision.
	candidates *depthCounters
	// emitted counts candidates that became output patterns.
	emitted *depthCounters
	// subsumed counts failed ppc tests (closed mining only): the
	// extension's closure adds an item below it, so that closure was
	// already reached from an earlier branch. Its subtree is skipped.
	// These are counted at depth |P|+1, the extension's own length.
	subsumed *depthCounters
	// budget counts candidates refused because MaxPatterns tripped.
	budget *depthCounters
}

func newSearchSpace(o *obs.Observer) searchSpace {
	if o == nil {
		return searchSpace{}
	}
	return searchSpace{
		candidates: newDepthCounters(o, "candidates"),
		emitted:    newDepthCounters(o, "emitted"),
		subsumed:   newDepthCounters(o, "pruned_subsumed"),
		budget:     newDepthCounters(o, "pruned_budget"),
	}
}
