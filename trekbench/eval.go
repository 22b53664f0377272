package main

import (
	"fmt"
	"sort"

	"graphtrek"
)

// This file is the benchmark's own model of GTravel semantics. It shares
// no code with the engine or with the repository's reference evaluator: it
// holds the graph as the generator emitted it and evaluates traversals on
// that copy, so a fault in the engine or its storage cannot hide itself by
// also corrupting the expected answer.

// edgeKey identifies one stored edge. The store keeps one edge per
// (src, label, dst); a repeated pair overwrites the earlier properties.
type edgeKey struct {
	src, dst graphtrek.VertexID
	label    string
}

// model is an in-memory property graph built from generator output and
// acknowledged writes.
type model struct {
	vertices map[graphtrek.VertexID]graphtrek.Vertex
	edges    map[edgeKey]graphtrek.Props
	// out lists each source's distinct destinations per label, in first
	// insertion order.
	out map[graphtrek.VertexID]map[string][]graphtrek.VertexID
}

func newModel() *model {
	return &model{
		vertices: make(map[graphtrek.VertexID]graphtrek.Vertex),
		edges:    make(map[edgeKey]graphtrek.Props),
		out:      make(map[graphtrek.VertexID]map[string][]graphtrek.VertexID),
	}
}

func (m *model) AddVertex(v graphtrek.Vertex) error {
	m.vertices[v.ID] = v
	return nil
}

func (m *model) AddEdge(e graphtrek.Edge) error {
	k := edgeKey{e.Src, e.Dst, e.Label}
	if _, ok := m.edges[k]; !ok {
		byLabel := m.out[e.Src]
		if byLabel == nil {
			byLabel = make(map[string][]graphtrek.VertexID)
			m.out[e.Src] = byLabel
		}
		byLabel[e.Label] = append(byLabel[e.Label], e.Dst)
	}
	m.edges[k] = e.Props
	return nil
}

// pred is one GTravel filter: Key Op Args, with Args native Go values
// (string or int64).
type pred struct {
	Key  string
	Op   string // "EQ", "IN" or "RANGE"
	Args []any
}

// hop is one traversal step after the source step.
type hop struct {
	Edge          string
	EdgeFilters   []pred
	VertexFilters []pred
	Rtn           bool
}

// querySpec is a traversal in the benchmark's own terms. Exactly one of
// Seeds, SeedLabel or neither (every vertex) selects step 0.
type querySpec struct {
	Name        string
	Seeds       []graphtrek.VertexID
	SeedLabel   string
	SeedFilters []pred
	SeedRtn     bool
	Hops        []hop
}

// travel lowers the spec to a public GTravel call chain.
func (q querySpec) travel() *graphtrek.Travel {
	var t *graphtrek.Travel
	if q.SeedLabel != "" {
		t = graphtrek.VLabel(q.SeedLabel)
	} else {
		t = graphtrek.V(q.Seeds...)
	}
	for _, p := range q.SeedFilters {
		t = p.vertexFilter(t)
	}
	if q.SeedRtn {
		t = t.Rtn()
	}
	for _, h := range q.Hops {
		t = t.E(h.Edge)
		for _, p := range h.EdgeFilters {
			t = p.edgeFilter(t)
		}
		for _, p := range h.VertexFilters {
			t = p.vertexFilter(t)
		}
		if h.Rtn {
			t = t.Rtn()
		}
	}
	return t
}

func (p pred) vertexFilter(t *graphtrek.Travel) *graphtrek.Travel {
	switch p.Op {
	case "EQ":
		return t.Va(p.Key, graphtrek.EQ, p.Args...)
	case "IN":
		return t.Va(p.Key, graphtrek.IN, p.Args...)
	}
	return t.Va(p.Key, graphtrek.RANGE, p.Args...)
}

func (p pred) edgeFilter(t *graphtrek.Travel) *graphtrek.Travel {
	switch p.Op {
	case "EQ":
		return t.Ea(p.Key, graphtrek.EQ, p.Args...)
	case "IN":
		return t.Ea(p.Key, graphtrek.IN, p.Args...)
	}
	return t.Ea(p.Key, graphtrek.RANGE, p.Args...)
}

// native converts a stored property value to a Go value the predicates
// compare against; ok is false for kinds the benchmark never generates.
func native(v graphtrek.Value) (any, bool) {
	switch v.Kind().String() {
	case "string":
		return v.Str(), true
	case "int":
		return v.I64(), true
	}
	return nil, false
}

// compare orders two values of the same Go type; ok is false across types.
func compare(a, b any) (int, bool) {
	switch x := a.(type) {
	case string:
		y, ok := b.(string)
		if !ok {
			return 0, false
		}
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		}
		return 0, true
	case int64:
		var y int64
		switch b := b.(type) {
		case int64:
			y = b
		case int:
			y = int64(b)
		default:
			return 0, false
		}
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// holds evaluates one predicate against a property set. The reserved key
// "label" tests the vertex label; a missing key never matches.
func (p pred) holds(label string, props graphtrek.Props, isVertex bool) bool {
	var val any
	if isVertex && p.Key == graphtrek.LabelKey {
		val = label
	} else {
		v, ok := props[p.Key]
		if !ok {
			return false
		}
		if val, ok = native(v); !ok {
			return false
		}
	}
	eq := func(arg any) bool {
		c, ok := compare(val, arg)
		return ok && c == 0
	}
	switch p.Op {
	case "EQ":
		return eq(p.Args[0])
	case "IN":
		for _, a := range p.Args {
			if eq(a) {
				return true
			}
		}
		return false
	case "RANGE":
		lo, ok1 := compare(val, p.Args[0])
		hi, ok2 := compare(val, p.Args[1])
		return ok1 && ok2 && lo >= 0 && hi <= 0
	}
	return false
}

func allHold(ps []pred, label string, props graphtrek.Props, isVertex bool) bool {
	for _, p := range ps {
		if !p.holds(label, props, isVertex) {
			return false
		}
	}
	return true
}

// vertexOK reports whether id names a stored vertex passing the filters.
// An edge to a vertex that was never stored leads nowhere.
func (m *model) vertexOK(id graphtrek.VertexID, ps []pred) bool {
	v, ok := m.vertices[id]
	if !ok {
		return false
	}
	return allHold(ps, v.Label, v.Props, true)
}

// eval runs q over the model and returns its result set: the vertices of
// every rtn()-marked step (the final step when none is marked) that lie on
// some path reaching the final step.
func (m *model) eval(q querySpec) []graphtrek.VertexID {
	steps := len(q.Hops) + 1
	frontier := make([]map[graphtrek.VertexID]bool, steps)
	// links[i] maps a step-i vertex to the step-(i-1) vertices it came from.
	links := make([]map[graphtrek.VertexID][]graphtrek.VertexID, steps)
	frontier[0] = make(map[graphtrek.VertexID]bool)
	var candidates []graphtrek.VertexID
	switch {
	case len(q.Seeds) > 0:
		candidates = q.Seeds
	default:
		for id, v := range m.vertices {
			if q.SeedLabel == "" || v.Label == q.SeedLabel {
				candidates = append(candidates, id)
			}
		}
	}
	for _, id := range candidates {
		if m.vertexOK(id, q.SeedFilters) {
			frontier[0][id] = true
		}
	}
	for i := 1; i < steps; i++ {
		h := q.Hops[i-1]
		frontier[i] = make(map[graphtrek.VertexID]bool)
		links[i] = make(map[graphtrek.VertexID][]graphtrek.VertexID)
		for src := range frontier[i-1] {
			for _, dst := range m.out[src][h.Edge] {
				props := m.edges[edgeKey{src, dst, h.Edge}]
				if !allHold(h.EdgeFilters, "", props, false) || !m.vertexOK(dst, h.VertexFilters) {
					continue
				}
				frontier[i][dst] = true
				links[i][dst] = append(links[i][dst], src)
			}
		}
	}
	// Walk back from the final step: a vertex is live when some path
	// through it reaches the end of the chain.
	live := make([]map[graphtrek.VertexID]bool, steps)
	live[steps-1] = frontier[steps-1]
	for i := steps - 1; i > 0; i-- {
		live[i-1] = make(map[graphtrek.VertexID]bool)
		for dst := range live[i] {
			for _, src := range links[i][dst] {
				live[i-1][src] = true
			}
		}
	}
	marked := q.SeedRtn
	for _, h := range q.Hops {
		marked = marked || h.Rtn
	}
	out := make(map[graphtrek.VertexID]bool)
	for i := 0; i < steps; i++ {
		returned := i == steps-1 && !marked
		if i == 0 {
			returned = returned || q.SeedRtn
		} else {
			returned = returned || q.Hops[i-1].Rtn
		}
		if returned {
			for id := range live[i] {
				out[id] = true
			}
		}
	}
	return sortedIDs(out)
}

func sortedIDs(set map[graphtrek.VertexID]bool) []graphtrek.VertexID {
	ids := make([]graphtrek.VertexID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// walk is the check for the RMAT traversal V(seed).E(label)^hops, computed
// straight from the generator's edge list: level k holds every stored
// vertex at the end of some walk of exactly k edges from seed. Repeated
// (src, dst) draws collapse into one edge, as they do in the store.
func walk(edges [][2]graphtrek.VertexID, vertices int, seed graphtrek.VertexID, hops int) []graphtrek.VertexID {
	adj := make(map[graphtrek.VertexID][]graphtrek.VertexID)
	seen := make(map[[2]graphtrek.VertexID]bool, len(edges))
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	stored := func(id graphtrek.VertexID) bool { return uint64(id) < uint64(vertices) }
	level := map[graphtrek.VertexID]bool{}
	if stored(seed) {
		level[seed] = true
	}
	for k := 0; k < hops; k++ {
		next := make(map[graphtrek.VertexID]bool)
		for u := range level {
			for _, v := range adj[u] {
				if stored(v) {
					next[v] = true
				}
			}
		}
		level = next
	}
	return sortedIDs(level)
}

// diffIDs compares a result with the expected set and describes the first
// differences; it returns "" when they are equal.
func diffIDs(got, want []graphtrek.VertexID) string {
	return boundIDs(got, want, want)
}

// boundIDs checks lo ⊆ got ⊆ hi (all sorted ascending) and describes the
// first violation; it returns "" when got lies between the bounds.
func boundIDs(got, lo, hi []graphtrek.VertexID) string {
	gotSet := make(map[graphtrek.VertexID]bool, len(got))
	for i, id := range got {
		if i > 0 && got[i-1] >= id {
			return fmt.Sprintf("result not sorted and distinct at index %d", i)
		}
		gotSet[id] = true
	}
	var missing, extra []graphtrek.VertexID
	for _, id := range lo {
		if !gotSet[id] {
			missing = append(missing, id)
		}
	}
	hiSet := make(map[graphtrek.VertexID]bool, len(hi))
	for _, id := range hi {
		hiSet[id] = true
	}
	for _, id := range got {
		if !hiSet[id] {
			extra = append(extra, id)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	return fmt.Sprintf("%d results: %d expected vertices missing %v, %d unexpected vertices %v",
		len(got), len(missing), head(missing), len(extra), head(extra))
}

func head(ids []graphtrek.VertexID) []graphtrek.VertexID {
	if len(ids) > 5 {
		return ids[:5]
	}
	return ids
}
