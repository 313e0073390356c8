package graphmining

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"dfpc/internal/guard"
	"dfpc/internal/mining"
)

// Pattern is a frequent connected subgraph with its absolute support
// (number of database graphs containing it).
type Pattern struct {
	Graph   *Graph
	Support int
	key     string
}

// Key returns the canonical key of the pattern graph.
func (p *Pattern) Key() string {
	if p.key == "" {
		p.key = canonicalKey(p.Graph)
	}
	return p.key
}

// ErrPatternBudget is mining.ErrPatternBudget: the per-class loop and
// its callers dispatch on the one budget sentinel.
var ErrPatternBudget = mining.ErrPatternBudget

// Options configures a mining run.
type Options struct {
	// MinSupport is the absolute minimum support (≥ 1).
	MinSupport int
	// MaxEdges caps pattern size in edges (default 5 — the canonical
	// dedup is exponential in pattern vertices, so keep patterns small).
	MaxEdges int
	// MaxPatterns aborts with ErrPatternBudget (0 = unlimited).
	MaxPatterns int
	// Guard, when non-nil, bounds the run: it is polled once per
	// candidate extension. Nil costs nothing.
	Guard *guard.Guard
}

// Mine enumerates the frequent connected subgraphs of the database by
// breadth-first edge extension with canonical-form deduplication
// (FSG-style; Kuramochi & Karypis, ICDM'01 — reference [11] of the
// paper). Every returned pattern is connected and appears in at least
// MinSupport database graphs. Patterns come level by level in a fixed
// order, so a run capped at k patterns returns the first k patterns of
// an uncapped one, with ErrPatternBudget on the attempt to emit
// pattern k+1. A guard stop returns the patterns found so far with the
// guard's error.
func Mine(db []*Graph, opt Options) ([]Pattern, error) {
	if opt.MinSupport < 1 {
		return nil, fmt.Errorf("graphmining: MinSupport = %d, want >= 1", opt.MinSupport)
	}
	if err := opt.Guard.CheckNow(); err != nil {
		return nil, err
	}
	if opt.MaxEdges <= 0 {
		opt.MaxEdges = 5
	}
	for i, g := range db {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("graphmining: db graph %d: %w", i, err)
		}
	}

	// Level 1: frequent single edges (label triples, vertex labels
	// sorted for canonical undirected form).
	type edgeKind struct {
		la, lb int32 // vertex labels, la <= lb
		le     int32 // edge label
	}
	edgeSupport := map[edgeKind]int{}
	for _, g := range db {
		seen := map[edgeKind]bool{}
		for _, e := range g.Edges {
			la, lb := g.VertexLabels[e.From], g.VertexLabels[e.To]
			if la > lb {
				la, lb = lb, la
			}
			k := edgeKind{la, lb, e.Label}
			if !seen[k] {
				seen[k] = true
				edgeSupport[k]++
			}
		}
	}
	var kinds []edgeKind
	for k, c := range edgeSupport {
		if c >= opt.MinSupport {
			kinds = append(kinds, k)
		}
	}
	slices.SortFunc(kinds, func(a, b edgeKind) int {
		return cmp.Or(cmp.Compare(a.la, b.la), cmp.Compare(a.lb, b.lb), cmp.Compare(a.le, b.le))
	})

	// Distinct kinds are distinct single-edge graphs, and a level-n
	// candidate has n edges, so dedup is needed only within a level.
	var out []Pattern
	level := make([]*Graph, 0, len(kinds))
	for _, k := range kinds {
		if opt.MaxPatterns > 0 && len(out) >= opt.MaxPatterns {
			return out, ErrPatternBudget
		}
		pg := &Graph{
			VertexLabels: []int32{k.la, k.lb},
			Edges:        []Edge{{From: 0, To: 1, Label: k.le}},
		}
		out = append(out, Pattern{Graph: pg, Support: edgeSupport[k]})
		level = append(level, pg)
	}

	// The frequent vertex and edge label vocabularies for extensions,
	// sorted: candidate order decides the level expansion sequence and,
	// under a pattern budget, which patterns get mined at all.
	var vls, els []int32
	for _, k := range kinds {
		vls = append(vls, k.la, k.lb)
		els = append(els, k.le)
	}
	slices.Sort(vls)
	slices.Sort(els)
	vls, els = slices.Compact(vls), slices.Compact(els)

	for edges := 2; edges <= opt.MaxEdges && len(level) > 0; edges++ {
		var next []*Graph
		levelSeen := map[string]bool{}
		for _, parent := range level {
			for _, cand := range extensions(parent, vls, els) {
				if err := opt.Guard.Check(); err != nil {
					return out, err
				}
				key := canonicalKey(cand)
				if levelSeen[key] {
					continue
				}
				levelSeen[key] = true
				sup := 0
				for _, g := range db {
					if ContainsSubgraph(g, cand) {
						sup++
					}
				}
				if sup < opt.MinSupport {
					continue
				}
				if opt.MaxPatterns > 0 && len(out) >= opt.MaxPatterns {
					return out, ErrPatternBudget
				}
				out = append(out, Pattern{Graph: cand, Support: sup, key: key})
				next = append(next, cand)
			}
		}
		level = next
	}
	return out, nil
}

// extensions generates candidate one-edge extensions of a pattern:
// either a new edge between two existing vertices, or a new vertex
// attached to an existing one, over the sorted vertex and edge label
// vocabularies vls and els.
func extensions(g *Graph, vls, els []int32) []*Graph {
	type pair struct{ a, b int }
	existing := map[pair]bool{}
	for _, e := range g.Edges {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		existing[pair{a, b}] = true
	}
	var out []*Graph
	n := g.NumVertices()
	// Close a cycle between existing vertices.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if existing[pair{a, b}] {
				continue
			}
			for _, le := range els {
				ng := cloneGraph(g)
				ng.Edges = append(ng.Edges, Edge{From: a, To: b, Label: le})
				out = append(out, ng)
			}
		}
	}
	// Grow a new vertex.
	for a := 0; a < n; a++ {
		for _, lv := range vls {
			for _, le := range els {
				ng := cloneGraph(g)
				ng.VertexLabels = append(ng.VertexLabels, lv)
				ng.Edges = append(ng.Edges, Edge{From: a, To: n, Label: le})
				out = append(out, ng)
			}
		}
	}
	return out
}

func cloneGraph(g *Graph) *Graph {
	return &Graph{
		VertexLabels: append([]int32(nil), g.VertexLabels...),
		Edges:        append([]Edge(nil), g.Edges...),
	}
}

// SortPatterns orders patterns canonically (support desc, edges asc,
// canonical key).
func SortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := &ps[i], &ps[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Graph.Edges) != len(b.Graph.Edges) {
			return len(a.Graph.Edges) < len(b.Graph.Edges)
		}
		return a.Key() < b.Key()
	})
}
