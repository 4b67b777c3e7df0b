package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// weightedDegreeByEdgeScan is the reference WeightedDegree: an O(E) scan
// that adds the incident values in edge insertion order.
func weightedDegreeByEdgeScan(g *Graph, id, attr string) (float64, error) {
	if !g.HasNode(id) {
		return 0, fmt.Errorf("graph: node %q does not exist", id)
	}
	total := 0.0
	for _, k := range g.edgeOrder {
		if k.U != id && k.V != id {
			continue
		}
		raw, ok := g.edges[k][attr]
		if !ok {
			continue
		}
		f, ok := ToFloat(raw)
		if !ok {
			return 0, fmt.Errorf("graph: edge (%q,%q) attribute %q is not numeric", k.U, k.V, attr)
		}
		total += f
		if !g.directed && k.U == id && k.V == id {
			total += f // undirected self-loop counts twice
		}
	}
	return total, nil
}

// randomWeightedGraph builds a graph with self-loops, anti-parallel edges,
// removed edges and nodes, and a "w" attribute drawn per edge from the
// given mix: ints (some past 2^53 in total when big is set), floats, or
// missing.
func randomWeightedGraph(r *rand.Rand, directed, floats, big bool) *Graph {
	g := New()
	if directed {
		g = NewDirected()
	}
	n := 2 + r.Intn(12)
	id := func() string { return fmt.Sprintf("n%02d", r.Intn(n)) }
	for e := r.Intn(4 * n); e > 0; e-- {
		u, v := id(), id()
		if r.Intn(8) == 0 {
			v = u // self-loop
		}
		var a Attrs
		switch x := r.Intn(10); {
		case x == 0:
			// missing attribute
		case floats && x < 4:
			a = Attrs{"w": r.NormFloat64() * 1e3}
		case big && x < 6:
			a = Attrs{"w": r.Int63n(1<<53) - 1<<52}
		default:
			a = Attrs{"w": r.Intn(2001) - 1000}
		}
		g.AddEdge(u, v, a)
		if r.Intn(3) == 0 {
			g.AddEdge(v, u, Attrs{"w": r.Intn(100)}) // anti-parallel (or merge when undirected)
		}
	}
	for k := r.Intn(4); k > 0 && g.NumEdges() > 0; k-- {
		e := g.edgeOrder[r.Intn(len(g.edgeOrder))]
		if err := g.RemoveEdge(e.U, e.V); err != nil {
			panic(err)
		}
	}
	for k := r.Intn(3); k > 0 && g.NumNodes() > 1; k-- {
		if err := g.RemoveNode(g.nodeOrder[r.Intn(len(g.nodeOrder))]); err != nil {
			panic(err)
		}
	}
	return g
}

func TestPropWeightedDegreeMatchesEdgeScan(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	check := func(g *Graph, trial int) {
		t.Helper()
		for _, id := range append(g.Nodes(), "ghost") {
			want, wantErr := weightedDegreeByEdgeScan(g, id, "w")
			got, err := g.WeightedDegree(id, "w")
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d %v node %s: err %v, want %v", trial, g, id, err, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d %v node %s: %v (%#x), want %v (%#x)",
					trial, g, id, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		g := randomWeightedGraph(r, trial%2 == 0, trial%3 == 0, trial%5 == 0)
		check(g, trial)
		if g.NumEdges() == 0 {
			continue
		}
		// One non-numeric value: its endpoints must report that edge.
		e := g.edgeOrder[r.Intn(len(g.edgeOrder))]
		if err := g.SetEdgeAttr(e.U, e.V, "w", "lots"); err != nil {
			t.Fatal(err)
		}
		check(g, trial)
	}
}

// removeNodeByEdgeMap is the reference RemoveNode: it removes the incident
// edges one at a time, found by ranging over the edge map.
func removeNodeByEdgeMap(g *Graph, id string) {
	i := g.nodeIdx[id]
	var doomed []EdgeKey
	for k := range g.edges {
		if k.U == id || k.V == id {
			doomed = append(doomed, k)
		}
	}
	for _, k := range doomed {
		if err := g.RemoveEdge(k.U, k.V); err != nil {
			panic(err)
		}
	}
	g.version++
	delete(g.nodeIdx, id)
	g.nodeOrder = append(g.nodeOrder[:i], g.nodeOrder[i+1:]...)
	g.nodeAttrs = append(g.nodeAttrs[:i], g.nodeAttrs[i+1:]...)
	g.succ = append(g.succ[:i], g.succ[i+1:]...)
	g.pred = append(g.pred[:i], g.pred[i+1:]...)
	for j := i; j < len(g.nodeOrder); j++ {
		g.nodeIdx[g.nodeOrder[j]] = j
	}
	for n := range g.succ {
		for _, adj := range [][]int32{g.succ[n], g.pred[n]} {
			for j, v := range adj {
				if v > int32(i) {
					adj[j] = v - 1
				}
			}
		}
	}
}

// sameLayout reports the first difference in node order, edge order,
// adjacency order and version between two graphs, or "".
func sameLayout(a, b *Graph) string {
	if fmt.Sprint(a.nodeOrder) != fmt.Sprint(b.nodeOrder) {
		return fmt.Sprintf("node order %v vs %v", a.nodeOrder, b.nodeOrder)
	}
	if fmt.Sprint(a.edgeOrder) != fmt.Sprint(b.edgeOrder) {
		return fmt.Sprintf("edge order %v vs %v", a.edgeOrder, b.edgeOrder)
	}
	if fmt.Sprint(a.succ) != fmt.Sprint(b.succ) || fmt.Sprint(a.pred) != fmt.Sprint(b.pred) {
		return fmt.Sprintf("adjacency %v/%v vs %v/%v", a.succ, a.pred, b.succ, b.pred)
	}
	for id, i := range a.nodeIdx {
		if j, ok := b.nodeIdx[id]; !ok || i != j {
			return fmt.Sprintf("index of %s: %d vs %d", id, i, j)
		}
	}
	if a.version != b.version {
		return fmt.Sprintf("version %d vs %d", a.version, b.version)
	}
	return ""
}

func TestRemoveNodeKeepsEdgeAndAdjacencyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		g := randomWeightedGraph(r, trial%2 == 0, false, false)
		for g.NumNodes() > 0 {
			id := g.nodeOrder[r.Intn(len(g.nodeOrder))]
			want := g.Clone()
			removeNodeByEdgeMap(want, id)
			if err := g.RemoveNode(id); err != nil {
				t.Fatal(err)
			}
			if d := sameLayout(g, want); d != "" {
				t.Fatalf("trial %d: after removing %s: %s", trial, id, d)
			}
			if d := Diff(g, want); d != "" {
				t.Fatalf("trial %d: after removing %s: %s", trial, id, d)
			}
		}
	}
}
