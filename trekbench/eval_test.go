package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"

	"graphtrek"
	"graphtrek/internal/gen"
)

type id = graphtrek.VertexID

func ids(xs ...id) []id {
	if xs == nil {
		return []id{}
	}
	return xs
}

// build makes a model from vertices given as id→label and edges as
// (src, dst) pairs under one label.
func build(vertices map[id]graphtrek.Props, label string, edges ...[2]id) *model {
	m := newModel()
	for v, props := range vertices {
		m.AddVertex(graphtrek.Vertex{ID: v, Label: "V", Props: props})
	}
	for _, e := range edges {
		m.AddEdge(graphtrek.Edge{Src: e[0], Dst: e[1], Label: label})
	}
	return m
}

func plain(vs ...id) map[id]graphtrek.Props {
	out := make(map[id]graphtrek.Props)
	for _, v := range vs {
		out[v] = nil
	}
	return out
}

func hops(n int, rtnAt int) []hop {
	hs := make([]hop, n)
	for i := range hs {
		hs[i] = hop{Edge: "x", Rtn: i == rtnAt}
	}
	return hs
}

func sameIDs(t *testing.T, what string, got, want []id) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestRtnCountsOnlyLiveVertices(t *testing.T) {
	// 1 -> 2 -> 3 reaches the final step; 1 -> 4 is a dead end.
	m := build(plain(1, 2, 3, 4), "x", [2]id{1, 2}, [2]id{2, 3}, [2]id{1, 4})
	sameIDs(t, "V(1).E.rtn.E", m.eval(querySpec{Seeds: ids(1), Hops: hops(2, 0)}), ids(2))
	// rtn() on the source step: 5 has no out-edge, so only 1 is returned.
	m.AddVertex(graphtrek.Vertex{ID: 5, Label: "V"})
	sameIDs(t, "V(1,5).rtn.E", m.eval(querySpec{Seeds: ids(1, 5), SeedRtn: true, Hops: hops(1, -1)}), ids(1))
	// No live path at all: the marked step returns nothing.
	sameIDs(t, "V(4).rtn.E", m.eval(querySpec{Seeds: ids(4), SeedRtn: true, Hops: hops(1, -1)}), ids())
}

func TestStepsDeduplicateAndRevisit(t *testing.T) {
	// 1 -> {2, 3} -> 4 (reached twice in step 2) -> 1 (the seed again).
	m := build(plain(1, 2, 3, 4), "x", [2]id{1, 2}, [2]id{1, 3}, [2]id{2, 4}, [2]id{3, 4}, [2]id{4, 1})
	sameIDs(t, "2 hops", m.eval(querySpec{Seeds: ids(1), Hops: hops(2, -1)}), ids(4))
	sameIDs(t, "3 hops", m.eval(querySpec{Seeds: ids(1), Hops: hops(3, -1)}), ids(1))
	sameIDs(t, "4 hops", m.eval(querySpec{Seeds: ids(1), Hops: hops(4, -1)}), ids(2, 3))
	// A duplicated seed is one seed.
	sameIDs(t, "V(1,1)", m.eval(querySpec{Seeds: ids(1, 1), Hops: hops(1, -1)}), ids(2, 3))
	// The walk check agrees on the same edges.
	edges := [][2]id{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 1}}
	sameIDs(t, "walk 4", walk(edges, 5, 1, 4), ids(2, 3))
}

func TestFilters(t *testing.T) {
	m := newModel()
	for v, p := range map[id]graphtrek.Props{
		1: {"name": graphtrek.String("a")},
		2: {"model": graphtrek.String("A")},
		3: {"model": graphtrek.String("B")},
		4: {"model": graphtrek.String("C")},
		5: {"model": graphtrek.Int(7)}, // same key, other kind
		6: {},                          // key missing
	} {
		m.AddVertex(graphtrek.Vertex{ID: v, Label: "Execution", Props: p})
	}
	for dst, ts := range map[id]int64{2: 10, 3: 20, 4: 30, 5: 15, 6: 15} {
		m.AddEdge(graphtrek.Edge{Src: 1, Dst: dst, Label: "x", Props: graphtrek.Props{"ts": graphtrek.Int(ts)}})
	}
	rng := func(lo, hi int64) querySpec {
		return querySpec{Seeds: ids(1), Hops: []hop{{Edge: "x", EdgeFilters: []pred{{"ts", "RANGE", []any{lo, hi}}}}}}
	}
	sameIDs(t, "RANGE [10,20]", m.eval(rng(10, 20)), ids(2, 3, 5, 6))
	sameIDs(t, "RANGE [11,19]", m.eval(rng(11, 19)), ids(5, 6))
	sameIDs(t, "RANGE [30,30]", m.eval(rng(30, 30)), ids(4))
	in := querySpec{Seeds: ids(1), Hops: []hop{{Edge: "x", VertexFilters: []pred{{"model", "IN", []any{"A", "C"}}}}}}
	sameIDs(t, "IN {A,C}", m.eval(in), ids(2, 4))
	eq := querySpec{SeedFilters: []pred{{"name", "EQ", []any{"a"}}}, Hops: []hop{{Edge: "x", VertexFilters: []pred{{"model", "EQ", []any{int64(7)}}}}}}
	sameIDs(t, "V().Va(name=a).E.Va(model=7)", m.eval(eq), ids(5))
	label := querySpec{SeedLabel: "Execution", SeedFilters: []pred{{graphtrek.LabelKey, "EQ", []any{"Execution"}}, {"model", "EQ", []any{"B"}}}}
	sameIDs(t, "VLabel(Execution).Va(model=B)", m.eval(label), ids(3))
}

func TestEdgesToMissingVerticesLeadNowhere(t *testing.T) {
	m := build(plain(1, 2), "x", [2]id{1, 2}, [2]id{1, 99}, [2]id{99, 2})
	sameIDs(t, "V(1).E", m.eval(querySpec{Seeds: ids(1), Hops: hops(1, -1)}), ids(2))
	sameIDs(t, "V(99).E", m.eval(querySpec{Seeds: ids(99), Hops: hops(1, -1)}), ids())
	sameIDs(t, "walk from a missing seed", walk([][2]id{{99, 1}}, 3, 99, 1), ids())
	sameIDs(t, "walk to a missing vertex", walk([][2]id{{1, 99}, {1, 2}}, 3, 1, 1), ids(2))
}

func TestRepeatedRMATPairs(t *testing.T) {
	// A repeated (src, dst) draw is one stored edge whose properties are
	// the last draw's.
	m := build(plain(1, 2), "link")
	m.AddEdge(graphtrek.Edge{Src: 1, Dst: 2, Label: "link", Props: graphtrek.Props{"w": graphtrek.Int(5)}})
	m.AddEdge(graphtrek.Edge{Src: 1, Dst: 2, Label: "link", Props: graphtrek.Props{"w": graphtrek.Int(50)}})
	if n := len(m.out[1]["link"]); n != 1 {
		t.Fatalf("repeated pair stored %d times", n)
	}
	w := func(lo, hi int64) querySpec {
		return querySpec{Seeds: ids(1), Hops: []hop{{Edge: "link", EdgeFilters: []pred{{"w", "RANGE", []any{lo, hi}}}}}}
	}
	sameIDs(t, "first draw's weight", m.eval(w(0, 9)), ids())
	sameIDs(t, "last draw's weight", m.eval(w(40, 60)), ids(2))

	// On a generated RMAT graph, which repeats pairs, the walk over the raw
	// edge list and the evaluator over the deduplicated model agree.
	g := newModel()
	var edges [][2]id
	seen := make(map[[2]id]bool)
	repeats := 0
	_, err := gen.RMAT(gen.RMAT1(7, 4, 3), gen.Funcs{
		Vertex: g.AddVertex,
		Edge: func(e graphtrek.Edge) error {
			p := [2]id{e.Src, e.Dst}
			if seen[p] {
				repeats++
			}
			seen[p] = true
			edges = append(edges, p)
			return g.AddEdge(e)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if repeats == 0 {
		t.Fatal("the generated graph repeats no pair; the case is not exercised")
	}
	for _, seed := range []id{0, 1, 5, 17} {
		hs := make([]hop, 4)
		for i := range hs {
			hs[i] = hop{Edge: "link"}
		}
		sameIDs(t, "walk vs eval", walk(edges, 1<<7, seed, 4), g.eval(querySpec{Seeds: ids(seed), Hops: hs}))
	}
}

func TestResultCheckRejectsWrongAnswers(t *testing.T) {
	want := ids(2, 4, 6, 8)
	if d := diffIDs(ids(2, 4, 6, 8), want); d != "" {
		t.Errorf("exact result rejected: %s", d)
	}
	if d := diffIDs(ids(2, 4, 8), want); d == "" {
		t.Error("result with one vertex removed accepted")
	}
	if d := diffIDs(ids(2, 4, 5, 6, 8), want); d == "" {
		t.Error("result with one extra vertex accepted")
	}
	if d := diffIDs(ids(2, 2, 4, 6, 8), want); d == "" {
		t.Error("result with a repeated vertex accepted")
	}
	// Bounds for reads racing writes: lo ⊆ got ⊆ hi.
	lo, hi := ids(1, 2), ids(1, 2, 3, 4)
	if d := boundIDs(ids(1, 2, 4), lo, hi); d != "" {
		t.Errorf("result within bounds rejected: %s", d)
	}
	if d := boundIDs(ids(1, 3), lo, hi); d == "" {
		t.Error("result missing an acknowledged write accepted")
	}
	if d := boundIDs(ids(1, 2, 5), lo, hi); d == "" {
		t.Error("result with a never-invoked write accepted")
	}
}

func TestFeedCheck(t *testing.T) {
	a, b := mutKey{src: 1}, mutKey{edge: true, src: 1, dst: 2, label: "x"}
	want := []mutKey{a, b}
	ok := map[int][]uint64{0: {1, 2, 3}, 1: {1}}
	once := map[mutKey]int{a: 1, b: 1}
	if p := checkFeed(ok, once, 2, want); len(p) != 0 {
		t.Errorf("good feed rejected: %v", p)
	}
	for name, seqs := range map[string]map[int][]uint64{
		"skipped sequence":  {0: {1, 3}, 1: {1}},
		"repeated sequence": {0: {1, 2, 2, 3}, 1: {1}},
		"late start":        {0: {2, 3}, 1: {1}},
	} {
		if p := checkFeed(seqs, once, 2, want); len(p) == 0 {
			t.Errorf("feed with a %s accepted", name)
		}
	}
	if p := checkFeed(ok, map[mutKey]int{a: 2, b: 1}, 2, want); len(p) == 0 {
		t.Error("mutation delivered twice accepted")
	}
	if p := checkFeed(ok, map[mutKey]int{a: 1}, 2, want); len(p) == 0 {
		t.Error("undelivered mutation accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartiles([]float64{1, 2, 4}); got != [3]float64{1, 2, 4} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestExpositionAndHistogram(t *testing.T) {
	text := `# TYPE graphtrek_received_total counter
graphtrek_received_total{server="0"} 7
graphtrek_received_total{server="1"} 5
graphtrek_queue_depth_peak{server="0"} 3
graphtrek_queue_depth_peak{server="1"} 9
graphtrek_gc_cycles_total 4
graphtrek_travel_latency_seconds_bucket{server="0",le="0.001"} 2
graphtrek_travel_latency_seconds_bucket{server="0",le="0.003"} 4
graphtrek_travel_latency_seconds_bucket{server="0",le="+Inf"} 4
graphtrek_travel_latency_seconds_sum{server="0"} 0.006
graphtrek_travel_latency_seconds_count{server="0"} 4
`
	s := newSample()
	if err := s.parseExposition(bufio.NewScanner(strings.NewReader(text))); err != nil {
		t.Fatal(err)
	}
	if s.c["received_total"] != 12 || s.c["queue_depth_peak"] != 9 || s.c["gc_cycles_total"] != 4 {
		t.Errorf("counters = %v", s.c)
	}
	// Half the samples lie at or below 1ms; the median sits on that edge,
	// the 75th percentile halfway into the next bucket.
	h := s.h["travel_latency_seconds"]
	if q := h.quantile(0.5); q != 1e6 {
		t.Errorf("p50 = %v ns", q)
	}
	if q := h.quantile(0.75); q != 2e6 {
		t.Errorf("p75 = %v ns", q)
	}
}
