// Package graphmining implements frequent connected-subgraph mining and
// graph classification — the second future-work extension the paper
// names in its conclusion (after sequences), and the setting of its
// reference [7] (Deshpande, Kuramochi & Karypis: classifying chemical
// compounds with frequent substructures). The miner enumerates
// connected subgraphs by edge extension with canonical-form
// deduplication (FSG-style); the classifier mines per class, selects
// discriminative subgraphs with MMRFS, and trains an SVM on binary
// presence features.
package graphmining

import (
	"fmt"
	"slices"
)

// Edge is an undirected labelled edge between vertex indices.
type Edge struct {
	From, To int
	Label    int32
}

// Graph is an undirected graph with labelled vertices and edges.
type Graph struct {
	VertexLabels []int32
	Edges        []Edge
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.VertexLabels) }

// Validate checks edge endpoints.
func (g *Graph) Validate() error {
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.VertexLabels) ||
			e.To < 0 || e.To >= len(g.VertexLabels) {
			return fmt.Errorf("graphmining: edge %d endpoints (%d,%d) out of range [0,%d)",
				i, e.From, e.To, len(g.VertexLabels))
		}
		if e.From == e.To {
			return fmt.Errorf("graphmining: edge %d is a self-loop", i)
		}
	}
	return nil
}

// adjacency builds an adjacency list with edge labels.
type adj struct {
	to    int
	label int32
}

func adjacency(g *Graph) [][]adj {
	out := make([][]adj, g.NumVertices())
	for _, e := range g.Edges {
		out[e.From] = append(out[e.From], adj{e.To, e.Label})
		out[e.To] = append(out[e.To], adj{e.From, e.Label})
	}
	return out
}

// canonicalKey returns a canonical string for a small graph: the
// lexicographically minimal adjacency encoding over all vertex
// permutations. Exponential in vertex count; intended for mined
// patterns (≤ ~8 vertices), not data graphs.
func canonicalKey(g *Graph) string {
	n := g.NumVertices()
	// Edge label lookup by unordered pair.
	type pair struct{ a, b int }
	labels := map[pair]int32{}
	for _, e := range g.Edges {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		labels[pair{a, b}] = e.Label
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var best []byte
	encode := func(p []int) []byte {
		// inv[v] = position of vertex v under the permutation.
		inv := make([]int, n)
		for pos, v := range p {
			inv[v] = pos
		}
		buf := make([]byte, 0, n+n*n)
		for _, v := range p {
			buf = append(buf, byte(g.VertexLabels[v]), byte(g.VertexLabels[v]>>8))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := p[i], p[j]
				if a > b {
					a, b = b, a
				}
				if l, ok := labels[pair{a, b}]; ok {
					buf = append(buf, 1, byte(l), byte(l>>8))
				} else {
					buf = append(buf, 0, 0, 0)
				}
			}
		}
		return buf
	}
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			enc := encode(perm)
			if best == nil || string(enc) < string(best) {
				best = append(best[:0], enc...)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	return string(best)
}

// ContainsSubgraph reports whether g contains pattern as a subgraph
// (subgraph isomorphism with label matching), by backtracking search.
// The pattern must be small; the search is exponential in pattern size.
func ContainsSubgraph(g *Graph, pattern *Graph) bool {
	pn := pattern.NumVertices()
	if pn == 0 {
		return true
	}
	if pn > g.NumVertices() || len(pattern.Edges) > len(g.Edges) {
		return false
	}
	gAdj := adjacency(g)
	pAdj := adjacency(pattern)

	// Order pattern vertices so each (after the first) connects to an
	// earlier one — patterns are connected, so a BFS order works.
	order := bfsOrder(pattern, pAdj)

	assigned := make([]int, pn) // pattern vertex → graph vertex
	for i := range assigned {
		assigned[i] = -1
	}
	used := make([]bool, g.NumVertices())

	var match func(step int) bool
	match = func(step int) bool {
		if step == pn {
			return true
		}
		pv := order[step]
		// Candidate graph vertices: neighbours of an already-assigned
		// pattern neighbour (or all vertices for the root). Find the
		// anchor edge first so the candidate slice can be presized.
		anchor := -1
		var anchorLabel int32
		for _, pe := range pAdj[pv] {
			if assigned[pe.to] >= 0 {
				anchor = assigned[pe.to]
				anchorLabel = pe.label
				break
			}
		}
		var candidates []int
		if anchor >= 0 {
			ga := gAdj[anchor]
			candidates = make([]int, 0, len(ga))
			for _, ge := range ga {
				if ge.label == anchorLabel {
					candidates = append(candidates, ge.to)
				}
			}
		} else {
			candidates = make([]int, 0, len(g.VertexLabels))
			for v := range g.VertexLabels {
				candidates = append(candidates, v)
			}
		}
		for _, gv := range candidates {
			if used[gv] || g.VertexLabels[gv] != pattern.VertexLabels[pv] {
				continue
			}
			// All pattern edges to already-assigned vertices must exist
			// in g with matching labels.
			ok := true
			for _, pe := range pAdj[pv] {
				if assigned[pe.to] < 0 {
					continue
				}
				found := false
				for _, ge := range gAdj[gv] {
					if ge.to == assigned[pe.to] && ge.label == pe.label {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			assigned[pv] = gv
			used[gv] = true
			if match(step + 1) {
				return true
			}
			assigned[pv] = -1
			used[gv] = false
		}
		return false
	}
	return match(0)
}

// bfsOrder returns pattern vertices in a connectivity-respecting order.
func bfsOrder(g *Graph, a [][]adj) []int {
	n := g.NumVertices()
	order := make([]int, 0, n)
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	neigh := make([]adj, 0, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		queue = append(queue[:0], start)
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			neigh = append(neigh[:0], a[v]...)
			slices.SortFunc(neigh, func(x, y adj) int { return x.to - y.to })
			for _, e := range neigh {
				if !seen[e.to] {
					seen[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
	}
	return order
}
