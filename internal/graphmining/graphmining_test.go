package graphmining

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dfpc/internal/guard"
)

// path builds a labelled path graph v0-v1-...-vk.
func path(vertexLabels []int32, edgeLabel int32) *Graph {
	g := &Graph{VertexLabels: vertexLabels}
	for i := 0; i+1 < len(vertexLabels); i++ {
		g.Edges = append(g.Edges, Edge{From: i, To: i + 1, Label: edgeLabel})
	}
	return g
}

// triangle builds a labelled triangle.
func triangle(l0, l1, l2, le int32) *Graph {
	return &Graph{
		VertexLabels: []int32{l0, l1, l2},
		Edges: []Edge{
			{From: 0, To: 1, Label: le},
			{From: 1, To: 2, Label: le},
			{From: 0, To: 2, Label: le},
		},
	}
}

func TestValidate(t *testing.T) {
	good := path([]int32{0, 1}, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Graph{VertexLabels: []int32{0}, Edges: []Edge{{From: 0, To: 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range edge should error")
	}
	loop := &Graph{VertexLabels: []int32{0}, Edges: []Edge{{From: 0, To: 0}}}
	if err := loop.Validate(); err == nil {
		t.Fatal("self-loop should error")
	}
}

func TestCanonicalKeyInvariance(t *testing.T) {
	// The same triangle with permuted vertex order must share a key.
	a := triangle(1, 2, 3, 0)
	b := &Graph{
		VertexLabels: []int32{3, 1, 2},
		Edges: []Edge{
			{From: 1, To: 2, Label: 0},
			{From: 2, To: 0, Label: 0},
			{From: 1, To: 0, Label: 0},
		},
	}
	if canonicalKey(a) != canonicalKey(b) {
		t.Fatal("isomorphic graphs have different canonical keys")
	}
	// A path with the same labels is different.
	c := path([]int32{1, 2, 3}, 0)
	if canonicalKey(a) == canonicalKey(c) {
		t.Fatal("triangle and path share a canonical key")
	}
}

func TestContainsSubgraph(t *testing.T) {
	g := triangle(1, 2, 3, 0)
	if !ContainsSubgraph(g, path([]int32{1, 2}, 0)) {
		t.Fatal("edge 1-2 should be contained")
	}
	if !ContainsSubgraph(g, path([]int32{2, 1}, 0)) {
		t.Fatal("containment must be label-based, not order-based")
	}
	if ContainsSubgraph(g, path([]int32{1, 9}, 0)) {
		t.Fatal("edge with unknown label should not match")
	}
	if ContainsSubgraph(g, path([]int32{1, 2}, 7)) {
		t.Fatal("edge label must match")
	}
	if !ContainsSubgraph(g, triangle(3, 2, 1, 0)) {
		t.Fatal("triangle should contain itself up to isomorphism")
	}
	// A triangle pattern is not inside a path graph.
	if ContainsSubgraph(path([]int32{1, 2, 3}, 0), triangle(1, 2, 3, 0)) {
		t.Fatal("path contains no triangle")
	}
	if !ContainsSubgraph(g, &Graph{}) {
		t.Fatal("empty pattern matches everything")
	}
}

func TestContainsSubgraphInjective(t *testing.T) {
	// Pattern a-b, a-b (two distinct b vertices) must NOT match a graph
	// with a single a-b edge: vertex assignments are injective.
	pattern := &Graph{
		VertexLabels: []int32{0, 1, 1},
		Edges:        []Edge{{From: 0, To: 1, Label: 0}, {From: 0, To: 2, Label: 0}},
	}
	single := path([]int32{0, 1}, 0)
	if ContainsSubgraph(single, pattern) {
		t.Fatal("injectivity violated")
	}
	double := &Graph{
		VertexLabels: []int32{0, 1, 1},
		Edges:        []Edge{{From: 0, To: 1, Label: 0}, {From: 0, To: 2, Label: 0}},
	}
	if !ContainsSubgraph(double, pattern) {
		t.Fatal("star should match itself")
	}
}

func TestMineFindsPlantedMotif(t *testing.T) {
	// 10 graphs contain a triangle motif; 10 contain only paths.
	var db []*Graph
	for i := 0; i < 10; i++ {
		db = append(db, triangle(1, 2, 3, 0))
		db = append(db, path([]int32{1, 2, 3, 1}, 0))
	}
	ps, err := Mine(db, Options{MinSupport: 8, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	foundTriangle := false
	key := canonicalKey(triangle(1, 2, 3, 0))
	for i := range ps {
		if ps[i].Key() == key {
			foundTriangle = true
			if ps[i].Support != 10 {
				t.Fatalf("triangle support = %d, want 10", ps[i].Support)
			}
		}
	}
	if !foundTriangle {
		t.Fatal("planted triangle not mined")
	}
}

func TestMineSupportMonotone(t *testing.T) {
	var db []*Graph
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		labels := make([]int32, 4)
		for j := range labels {
			labels[j] = int32(r.Intn(3))
		}
		db = append(db, path(labels, int32(r.Intn(2))))
	}
	lo, err := Mine(db, Options{MinSupport: 3, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Mine(db, Options{MinSupport: 8, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hi) > len(lo) {
		t.Fatalf("higher support mined more patterns: %d > %d", len(hi), len(lo))
	}
	// Every pattern's support must be correct w.r.t. ContainsSubgraph.
	for i := range lo {
		sup := 0
		for _, g := range db {
			if ContainsSubgraph(g, lo[i].Graph) {
				sup++
			}
		}
		if sup != lo[i].Support {
			t.Fatalf("pattern support %d, recount %d", lo[i].Support, sup)
		}
	}
}

func TestMineNoDuplicates(t *testing.T) {
	var db []*Graph
	for i := 0; i < 6; i++ {
		db = append(db, triangle(1, 1, 1, 0))
	}
	ps, err := Mine(db, Options{MinSupport: 3, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range ps {
		if seen[ps[i].Key()] {
			t.Fatalf("duplicate canonical pattern: %v", ps[i].Graph)
		}
		seen[ps[i].Key()] = true
	}
}

func TestMineBudgetAndValidation(t *testing.T) {
	db := []*Graph{triangle(1, 2, 3, 0), triangle(1, 2, 3, 0)}
	if _, err := Mine(db, Options{MinSupport: 0}); err == nil {
		t.Fatal("MinSupport=0 should error")
	}
	_, err := Mine(db, Options{MinSupport: 1, MaxPatterns: 2, MaxEdges: 3})
	if !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

// graphDataset builds a classification task where the vertex-label
// vocabulary is identical across classes and only the TOPOLOGY
// discriminates: class 0 graphs contain a triangle, class 1 graphs the
// same labels as a path plus a distractor edge.
func graphDataset(n int, seed int64) (db []*Graph, y []int) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := i % 2
		var g *Graph
		if c == 0 {
			g = triangle(1, 2, 3, 0)
		} else {
			g = path([]int32{1, 2, 3}, 0)
		}
		// Attach a random noise vertex to both classes.
		ng := cloneGraph(g)
		ng.VertexLabels = append(ng.VertexLabels, int32(4+r.Intn(2)))
		ng.Edges = append(ng.Edges, Edge{From: r.Intn(3), To: 3, Label: 0})
		db = append(db, ng)
		y = append(y, c)
	}
	return db, y
}

func TestGraphClassifierTopologyMotifs(t *testing.T) {
	db, y := graphDataset(60, 5)
	clf := &Classifier{MinSupport: 0.5, MaxEdges: 3}
	if err := clf.Fit(context.Background(), db, y, 2); err != nil {
		t.Fatal(err)
	}
	if clf.FeatureCount == 0 {
		t.Fatal("no subgraph features selected")
	}
	pred, err := clf.PredictAll(db)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(pred)); acc < 0.95 {
		t.Fatalf("accuracy %v; topology motifs not captured", acc)
	}
}

func TestGraphClassifierErrors(t *testing.T) {
	clf := &Classifier{}
	if err := clf.Fit(context.Background(), nil, nil, 2); err == nil {
		t.Fatal("empty db should error")
	}
	if err := clf.Fit(context.Background(), []*Graph{path([]int32{0, 1}, 0)}, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := clf.Fit(context.Background(), []*Graph{path([]int32{0, 1}, 0)}, []int{5}, 2); err == nil {
		t.Fatal("bad label should error")
	}
	if _, err := (&Classifier{}).Predict(path([]int32{0, 1}, 0)); err == nil {
		t.Fatal("Predict before Fit should error")
	}
	db, y := graphDataset(20, 1)
	if err := (&Classifier{MaxPatterns: 2}).Fit(context.Background(), db, y, 2); !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("tiny MaxPatterns: err = %v, want ErrPatternBudget", err)
	}
	// Class 0 mines exactly MaxPatterns patterns at the classifier's
	// default support and size; class 1 must not then mine unbounded.
	var part0 []*Graph
	for i, g := range db {
		if y[i] == 0 {
			part0 = append(part0, g)
		}
	}
	all0, err := Mine(part0, Options{MinSupport: max(int(0.2*float64(len(part0))+0.5), 1), MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Classifier{MaxPatterns: len(all0)}).Fit(context.Background(), db, y, 2); !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("class 0 fills MaxPatterns=%d: err = %v, want ErrPatternBudget", len(all0), err)
	}
}

func ExampleClassifier() {
	db, y := graphDataset(48, 11)
	clf := &Classifier{MinSupport: 0.5, MaxEdges: 3}
	if err := clf.Fit(context.Background(), db[:36], y[:36], 2); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("mined:", clf.MinedCount, "selected:", clf.FeatureCount)
	for _, p := range clf.Patterns() {
		fmt.Println(p.Graph.VertexLabels, p.Graph.Edges, p.Support)
	}
	pred, err := clf.PredictAll(db[36:])
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("holdout:", pred)
	fmt.Println("labels: ", y[36:])
	// Output:
	// mined: 7 selected: 3
	// [1 2] [{0 1 0}] 18
	// [1 3] [{0 1 0}] 18
	// [2 3] [{0 1 0}] 18
	// holdout: [0 1 0 1 0 1 0 1 0 1 0 1]
	// labels:  [0 1 0 1 0 1 0 1 0 1 0 1]
}

// TestMineCapIsPrefix: a run capped at k patterns is the first k
// patterns of the uncapped run, and fails with ErrPatternBudget only
// when there is a pattern k+1. The per-class merge replays smaller
// budgets by truncating one full-budget stream, so it relies on both.
func TestMineCapIsPrefix(t *testing.T) {
	db := []*Graph{path([]int32{1, 2, 3}, 0), triangle(1, 2, 3, 0)}
	all, err := Mine(db, Options{MinSupport: 1, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(all); k++ {
		got, err := Mine(db, Options{MinSupport: 1, MaxEdges: 3, MaxPatterns: k})
		if k < len(all) && !errors.Is(err, ErrPatternBudget) || k == len(all) && err != nil {
			t.Fatalf("MaxPatterns=%d of %d: err = %v", k, len(all), err)
		}
		if len(got) != k {
			t.Fatalf("MaxPatterns=%d: %d patterns", k, len(got))
		}
		for i := range got {
			if got[i].Key() != all[i].Key() || got[i].Support != all[i].Support {
				t.Fatalf("MaxPatterns=%d: pattern %d differs from the uncapped run", k, i)
			}
		}
	}
}

// TestClassifierDeterminism pins the selected subgraphs, the mined
// pool size and the predictions at GOMAXPROCS 1, 2 and 8: the class
// partitions, MMRFS and the SVM all fan out at GOMAXPROCS workers.
func TestClassifierDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	db, y := graphDataset(48, 11)
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		clf := &Classifier{MinSupport: 0.5, MaxEdges: 3}
		if err := clf.Fit(context.Background(), db[:36], y[:36], 2); err != nil {
			t.Fatal(err)
		}
		pred, err := clf.PredictAll(db[36:])
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(clf.MinedCount, len(clf.Patterns()), pred)
		for _, p := range clf.Patterns() {
			got += fmt.Sprint(" ", p.Key(), ":", p.Support)
		}
		if procs == 1 {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS=%d: fit %q, want %q", procs, got, want)
		}
	}
}

func TestClassifierPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db, y := graphDataset(20, 1)
	if err := (&Classifier{}).Fit(ctx, db, y, 2); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}
