// graph_classification demonstrates the paper's second future-work
// extension: classification of labelled graphs with discriminative
// frequent subgraphs — the setting of the paper's reference [7]
// (classifying chemical compounds by frequent substructures).
//
// The synthetic task mimics a toxicophore: class "toxic" molecules
// contain a nitro-like triangle motif N-O-O; class "safe" molecules use
// the same atom vocabulary in chain form. Atom counts are similar
// across classes, so label-frequency features fail while substructure
// features succeed.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"dfpc/internal/graphmining"
)

var atoms = []string{"C", "N", "O", "H", "S"}

const (
	carbon   = 0
	nitrogen = 1
	oxygen   = 2
	hydrogen = 3
	sulfur   = 4
)

// molecule builds a random chain of carbons and decorates it with the
// class motif: a N-O-O ring for toxic molecules, a N-O, O chain for
// safe ones (same atoms, different topology).
func molecule(toxic bool, r *rand.Rand) *graphmining.Graph {
	g := &graphmining.Graph{}
	// Carbon backbone.
	backbone := 3 + r.Intn(3)
	for i := 0; i < backbone; i++ {
		g.VertexLabels = append(g.VertexLabels, carbon)
		if i > 0 {
			g.Edges = append(g.Edges, graphmining.Edge{From: i - 1, To: i, Label: 0})
		}
	}
	attach := r.Intn(backbone)
	n := len(g.VertexLabels)
	g.VertexLabels = append(g.VertexLabels, nitrogen, oxygen, oxygen)
	g.Edges = append(g.Edges,
		graphmining.Edge{From: attach, To: n, Label: 0}, // C-N
		graphmining.Edge{From: n, To: n + 1, Label: 0},  // N-O
	)
	if toxic {
		// Close the N-O-O ring.
		g.Edges = append(g.Edges,
			graphmining.Edge{From: n + 1, To: n + 2, Label: 0}, // O-O
			graphmining.Edge{From: n, To: n + 2, Label: 0},     // N-O
		)
	} else {
		// Same atoms, open chain: the second O hangs off the backbone.
		g.Edges = append(g.Edges,
			graphmining.Edge{From: (attach + 1) % backbone, To: n + 2, Label: 0}, // C-O
		)
	}
	// Random hydrogens on both classes.
	for i := 0; i < r.Intn(3); i++ {
		v := len(g.VertexLabels)
		g.VertexLabels = append(g.VertexLabels, hydrogen)
		g.Edges = append(g.Edges, graphmining.Edge{From: r.Intn(backbone), To: v, Label: 0})
	}
	return g
}

func makeDB(n int, seed int64) (db []*graphmining.Graph, y []int) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		toxic := i%2 == 0
		db = append(db, molecule(toxic, r))
		if toxic {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return db, y
}

func render(g *graphmining.Graph) string {
	out := ""
	for i, e := range g.Edges {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s-%s", atoms[g.VertexLabels[e.From]], atoms[g.VertexLabels[e.To]])
	}
	return out
}

func main() {
	train, yTrain := makeDB(200, 1)
	test, yTest := makeDB(80, 2)
	fmt.Printf("%d training molecules, %d test molecules\n\n", len(train), len(test))

	clf := &graphmining.Classifier{MinSupport: 0.4, MaxEdges: 3}
	if err := clf.Fit(context.Background(), train, yTrain, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subgraphs mined: %d, selected by MMRFS: %d\n", clf.MinedCount, clf.FeatureCount)

	pred, err := clf.PredictAll(test)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i := range pred {
		if pred[i] == yTest[i] {
			correct++
		}
	}
	fmt.Printf("test accuracy: %.2f%%\n\n", 100*float64(correct)/float64(len(pred)))

	fmt.Println("selected substructures (sample):")
	for i, p := range clf.Patterns() {
		if i == 5 {
			break
		}
		fmt.Printf("  {%s}  support %d\n", render(p.Graph), p.Support)
	}
}
