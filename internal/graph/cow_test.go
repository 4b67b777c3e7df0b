package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// cowBase builds the same small graph on every call, so a graph reached
// through copy-on-write clones can be compared with one built unshared.
func cowBase(directed bool) *Graph {
	g := randomGraph(rand.New(rand.NewSource(5)), directed, 24, 80)
	g.AddEdge("n000", "n000", Attrs{"w": 3}) // a self-loop
	g.GraphAttrs()["app"] = "cow"
	return g
}

// cowOp is one kind of write a clone makes. It may return a graph derived
// from g (a clone of the clone) that must match its own reference.
type cowOp struct {
	name  string
	apply func(t *testing.T, g *Graph) *Graph
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

var cowOps = []cowOp{
	{"node-attr", func(t *testing.T, g *Graph) *Graph {
		must(t, g.SetNodeAttr("n003", "mark", 1))
		g.NodeAttrs("n004")["mark"] = int64(2)
		return nil
	}},
	{"edge-attr", func(t *testing.T, g *Graph) *Graph {
		e := g.EdgesView()[5]
		must(t, g.SetEdgeAttr(e.U, e.V, "w", 99))
		return nil
	}},
	{"add-edge", func(t *testing.T, g *Graph) *Graph {
		g.AddEdge("n001", "new", Attrs{"w": 7})
		return nil
	}},
	{"remove-edge", func(t *testing.T, g *Graph) *Graph {
		e := g.EdgesView()[2]
		must(t, g.RemoveEdge(e.U, e.V))
		return nil
	}},
	{"remove-node", func(t *testing.T, g *Graph) *Graph {
		must(t, g.RemoveNode("n002"))
		return nil
	}},
	{"clone-of-clone", func(t *testing.T, g *Graph) *Graph {
		must(t, g.SetNodeAttr("n006", "mark", 3))
		d := g.Clone()
		must(t, d.SetNodeAttr("n006", "mark", 4))
		e := d.EdgesView()[1]
		must(t, d.SetEdgeAttr(e.U, e.V, "w", 0))
		must(t, d.RemoveNode("n007"))
		g.AddEdge("n008", "n009", Attrs{"w": 1})
		return d
	}},
}

// extendMaster is the batch a frozen master takes between re-freezes.
func extendMaster(t *testing.T, g *Graph, round int) {
	g.AddEdge(fmt.Sprintf("x%d", round), "n010", Attrs{"w": round})
	must(t, g.SetNodeAttr("n011", "round", round))
	e := g.EdgesView()[10+round]
	must(t, g.SetEdgeAttr(e.U, e.V, "w", -round))
	e = g.EdgesView()[20+round]
	must(t, g.RemoveEdge(e.U, e.V))
	g.GraphAttrs()["round"] = int64(round)
}

// sameGraph fails unless got equals want in content and in every order the
// graph keeps.
func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if d := Diff(got, want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
	if d := sameLayout(got, want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

func TestCOWIsolationUnderConcurrentWrites(t *testing.T) {
	const copies = 3
	for _, directed := range []bool{true, false} {
		master := cowBase(directed)
		master.Freeze()
		for round := 0; round < 2; round++ {
			clones := make([]*Graph, copies*len(cowOps))
			var wg sync.WaitGroup
			for i := range clones {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					clones[i] = master.Clone()
				}(i)
			}
			wg.Wait()

			// Every clone writes while the master is extended and
			// re-frozen; readers walk the shared containers meanwhile.
			derived := make([]*Graph, len(clones))
			for i := range clones {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := clones[i]
					derived[i] = cowOps[i%len(cowOps)].apply(t, c)
					for _, id := range c.Nodes() {
						if _, err := c.WeightedDegree(id, "w"); err != nil {
							t.Error(err)
						}
					}
					c.PageRank(0.85, 20, 1e-9)
				}(i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				extendMaster(t, master, round)
				master.Freeze()
			}()
			wg.Wait()

			base := func() *Graph {
				g := cowBase(directed)
				for r := 0; r < round; r++ {
					extendMaster(t, g, r)
				}
				return g
			}
			for i, c := range clones {
				op := cowOps[i%len(cowOps)]
				want := base()
				wantDerived := op.apply(t, want)
				what := fmt.Sprintf("directed=%v round %d clone %d (%s)", directed, round, i, op.name)
				sameGraph(t, what, c, want)
				if wantDerived != nil {
					sameGraph(t, what+" derived", derived[i], wantDerived)
				}
			}
			want := base()
			extendMaster(t, want, round)
			sameGraph(t, fmt.Sprintf("directed=%v round %d master", directed, round), master, want)
		}
	}
}

// TestCOWPrivatizesOnlyTheTouchedContainer pins which containers each kind
// of write copies.
func TestCOWPrivatizesOnlyTheTouchedContainer(t *testing.T) {
	master := cowBase(true)
	master.Freeze()
	e := master.EdgesView()[0]
	for _, tc := range []struct {
		name  string
		write func(g *Graph)
		want  containers
	}{
		{"read", func(g *Graph) {
			g.NodeAttrsView("n001")
			g.EdgesView()
			_, _ = g.WeightedDegree("n001", "w")
		}, allContainers},
		{"node-attr", func(g *Graph) { _ = g.SetNodeAttr("n001", "k", 1) }, topology | edgeMap},
		{"edge-attr", func(g *Graph) { _ = g.SetEdgeAttr(e.U, e.V, "k", 1) }, topology | nodeSlots},
		{"graph-attr", func(g *Graph) { g.GraphAttrs()["k"] = 1 }, allContainers},
		{"add-edge", func(g *Graph) { g.AddEdge("n001", "new", nil) }, 0},
		{"remove-node", func(g *Graph) { _ = g.RemoveNode("n001") }, 0},
	} {
		c := master.Clone()
		tc.write(c)
		if c.shared != tc.want {
			t.Errorf("%s: shared containers %03b, want %03b", tc.name, c.shared, tc.want)
		}
	}
	if master.shared != allContainers {
		t.Errorf("clone writes changed the master's sharing to %03b", master.shared)
	}
}

var cloneSink *Graph

func TestCloneOfFrozenGraphAllocatesIndependentlyOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		g := randomGraph(rand.New(rand.NewSource(1)), true, n, 4*n)
		g.Freeze()
		cloneSink = g.Clone()
		g.AddEdge("n000", "extra", nil) // a re-frozen master shares again
		g.Freeze()
		return testing.AllocsPerRun(20, func() { cloneSink = g.Clone() })
	}
	if small, large := allocs(10), allocs(2000); large != small {
		t.Fatalf("Clone of a frozen graph allocates %v times at 10 nodes, %v at 2000", small, large)
	}
}
