package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// BFS returns nodes reachable from src in breadth-first order (following
// out-edges in directed graphs). src itself is first. Unknown src yields nil.
func (g *Graph) BFS(src string) []string {
	if !g.HasNode(src) {
		return nil
	}
	seen := map[string]bool{src: true}
	order := []string{src}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				order = append(order, nb)
				queue = append(queue, nb)
			}
		}
	}
	return order
}

// DFS returns nodes reachable from src in depth-first preorder, visiting
// neighbors in sorted order for determinism.
func (g *Graph) DFS(src string) []string {
	if !g.HasNode(src) {
		return nil
	}
	seen := map[string]bool{}
	var order []string
	var visit func(string)
	visit = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		order = append(order, n)
		for _, nb := range g.Neighbors(n) {
			visit(nb)
		}
	}
	visit(src)
	return order
}

// ShortestPath returns the minimum-hop path from src to dst (inclusive) via
// BFS, or an error if either endpoint is missing or no path exists.
func (g *Graph) ShortestPath(src, dst string) ([]string, error) {
	if !g.HasNode(src) {
		return nil, fmt.Errorf("graph: node %q does not exist", src)
	}
	if !g.HasNode(dst) {
		return nil, fmt.Errorf("graph: node %q does not exist", dst)
	}
	if src == dst {
		return []string{src}, nil
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if _, ok := prev[nb]; ok {
				continue
			}
			prev[nb] = cur
			if nb == dst {
				return rebuildPath(prev, src, dst), nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("graph: no path between %q and %q", src, dst)
}

func rebuildPath(prev map[string]string, src, dst string) []string {
	var rev []string
	for cur := dst; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// HopCount returns the number of hops (edges) on the shortest path from src
// to dst, or an error when unreachable.
func (g *Graph) HopCount(src, dst string) (int, error) {
	p, err := g.ShortestPath(src, dst)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}

type pqItem struct {
	node string
	dist float64
}

type pq []pqItem

func (p pq) Len() int      { return len(p) }
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p pq) Less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].node < p[j].node
}
func (p *pq) Push(x any) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// DijkstraPath returns the minimum-weight path from src to dst using the
// named edge attribute as weight (missing attribute counts as weight 1;
// negative weights are rejected). It also returns the total path weight.
func (g *Graph) DijkstraPath(src, dst, weightAttr string) ([]string, float64, error) {
	if !g.HasNode(src) {
		return nil, 0, fmt.Errorf("graph: node %q does not exist", src)
	}
	if !g.HasNode(dst) {
		return nil, 0, fmt.Errorf("graph: node %q does not exist", dst)
	}
	dist := map[string]float64{src: 0}
	prev := map[string]string{src: src}
	done := map[string]bool{}
	h := &pq{{node: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == dst {
			return rebuildPath(prev, src, dst), it.dist, nil
		}
		for _, nb := range g.Neighbors(it.node) {
			w := 1.0
			// Read-only attribute access: bypass EdgeAttrs so a routing
			// query does not defeat copy-on-write sharing.
			if a := g.edgeView(g.key(it.node, nb)); a != nil {
				if raw, ok := a[weightAttr]; ok {
					wf, ok := ToFloat(raw)
					if !ok {
						return nil, 0, fmt.Errorf("graph: edge (%q,%q) attribute %q is not numeric", it.node, nb, weightAttr)
					}
					w = wf
				}
			}
			if w < 0 {
				return nil, 0, fmt.Errorf("graph: negative weight on edge (%q,%q)", it.node, nb)
			}
			nd := it.dist + w
			if old, ok := dist[nb]; !ok || nd < old {
				dist[nb] = nd
				prev[nb] = it.node
				heap.Push(h, pqItem{node: nb, dist: nd})
			}
		}
	}
	return nil, 0, fmt.Errorf("graph: no path between %q and %q", src, dst)
}

// ToFloat converts a normalized attribute value to float64.
func ToFloat(v any) (float64, bool) {
	switch x := Normalize(v).(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// ConnectedComponents returns the connected components of the graph ignoring
// edge direction, each sorted, largest first (ties broken by first node).
func (g *Graph) ConnectedComponents() [][]string {
	n := len(g.nodeOrder)
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	var comps [][]string
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		var comp []string
		queue = append(queue[:0], int32(start))
		seen[start] = true
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			comp = append(comp, g.nodeOrder[cur])
			for _, nb := range g.succ[cur] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
			for _, nb := range g.pred[cur] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// StronglyConnectedComponents returns the SCCs of a directed graph using
// Tarjan's algorithm (iterative), each sorted, largest first. For an
// undirected graph it matches ConnectedComponents.
func (g *Graph) StronglyConnectedComponents() [][]string {
	if !g.directed {
		return g.ConnectedComponents()
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	next := 0

	type frame struct {
		node string
		nbrs []string
		i    int
	}
	for _, root := range g.nodeOrder {
		if _, ok := index[root]; ok {
			continue
		}
		var callStack []frame
		push := func(n string) {
			index[n] = next
			low[n] = next
			next++
			stack = append(stack, n)
			onStack[n] = true
			callStack = append(callStack, frame{node: n, nbrs: g.Neighbors(n)})
		}
		push(root)
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.i < len(f.nbrs) {
				nb := f.nbrs[f.i]
				f.i++
				if _, ok := index[nb]; !ok {
					push(nb)
				} else if onStack[nb] {
					if index[nb] < low[f.node] {
						low[f.node] = index[nb]
					}
				}
				continue
			}
			// f done: pop and propagate lowlink.
			n := f.node
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := &callStack[len(callStack)-1]
				if low[n] < low[parent.node] {
					low[parent.node] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				sort.Strings(comp)
				comps = append(comps, comp)
			}
		}
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// HasCycle reports whether a directed graph contains a directed cycle, or an
// undirected graph contains any cycle.
func (g *Graph) HasCycle() bool {
	if g.directed {
		for _, c := range g.StronglyConnectedComponents() {
			if len(c) > 1 {
				return true
			}
		}
		// Self-loops are 1-node SCCs but still cycles.
		for _, k := range g.edgeOrder {
			if k.U == k.V {
				return true
			}
		}
		return false
	}
	// Undirected: cycle exists iff edges >= nodes - components.
	return g.NumEdges() > g.NumNodes()-len(g.ConnectedComponents())
}

// TopologicalSort returns a topological order of a directed acyclic graph
// (Kahn's algorithm with lexicographic tie-breaking) or an error on cycles.
func (g *Graph) TopologicalSort() ([]string, error) {
	if !g.directed {
		return nil, fmt.Errorf("graph: topological sort requires a directed graph")
	}
	n := len(g.nodeOrder)
	indeg := make([]int, n)
	var ready []string
	for i := 0; i < n; i++ {
		indeg[i] = len(g.pred[i])
		if indeg[i] == 0 {
			ready = append(ready, g.nodeOrder[i])
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var newly []string
		for _, nbi := range g.succ[g.nodeIdx[id]] {
			indeg[nbi]--
			if indeg[nbi] == 0 {
				newly = append(newly, g.nodeOrder[nbi])
			}
		}
		sort.Strings(newly)
		ready = mergeSorted(ready, newly)
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected, topological sort impossible")
	}
	return order, nil
}

func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Density returns the graph density in [0,1]: e/(n*(n-1)) for directed
// graphs and 2e/(n*(n-1)) for undirected graphs.
func (g *Graph) Density() float64 {
	n := float64(g.NumNodes())
	if n <= 1 {
		return 0
	}
	e := float64(g.NumEdges())
	if g.directed {
		return e / (n * (n - 1))
	}
	return 2 * e / (n * (n - 1))
}

// IsolatedNodes returns nodes with zero degree, sorted.
func (g *Graph) IsolatedNodes() []string {
	var out []string
	for i, id := range g.nodeOrder {
		if len(g.succ[i]) == 0 && len(g.pred[i]) == 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// SelfLoops returns edges whose endpoints coincide, in insertion order.
func (g *Graph) SelfLoops() []Edge {
	var out []Edge
	for _, k := range g.edgeOrder {
		if k.U == k.V {
			out = append(out, Edge{U: k.U, V: k.V, Attrs: g.edges[k]})
		}
	}
	return out
}

// Diameter returns the longest shortest-path length over all reachable node
// pairs (hop metric). Returns 0 for graphs with fewer than two nodes. Pairs
// with no path are ignored; if no pair is connected the result is 0.
func (g *Graph) Diameter() int {
	n := len(g.nodeOrder)
	best := int32(0)
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for src := 0; src < n; src++ {
		g.bfsDistFrom(int32(src), g.succ, dist, &queue)
		for _, d := range dist {
			if d > best {
				best = d
			}
		}
	}
	return int(best)
}

// bfsDistFrom fills dist with hop counts from src over the given adjacency
// (-1 marks unreachable nodes), reusing the caller's queue buffer.
func (g *Graph) bfsDistFrom(src int32, adj [][]int32, dist []int32, queue *[]int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := append((*queue)[:0], src)
	for head := 0; head < len(q); head++ {
		cur := q[head]
		for _, nb := range adj[cur] {
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				q = append(q, nb)
			}
		}
	}
	*queue = q
}

// AverageShortestPathLength returns the mean hop distance over all ordered
// reachable pairs (excluding self-pairs). Returns 0 when no pair is
// reachable.
func (g *Graph) AverageShortestPathLength() float64 {
	n := len(g.nodeOrder)
	total, count := 0, 0
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for src := 0; src < n; src++ {
		g.bfsDistFrom(int32(src), g.succ, dist, &queue)
		for i, d := range dist {
			if i == src || d < 0 {
				continue
			}
			total += int(d)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// WeightedDegree sums the named numeric edge attribute over all edges
// incident to id (both directions in a directed graph). Missing attributes
// count as 0; non-numeric attributes are an error naming the first such
// edge in insertion order.
//
// The sum equals adding the values in edge insertion order, bit for bit,
// but costs O(degree): an undirected node's adjacency list already is in
// insertion order. A directed node's out- and in-lists each are too, but
// their interleaving is not kept; integers whose magnitudes total at most
// 2^53 sum exactly in any order, and any other value falls back to the
// insertion-ordered scan.
func (g *Graph) WeightedDegree(id, attr string) (float64, error) {
	i, ok := g.nodeIdx[id]
	if !ok {
		return 0, fmt.Errorf("graph: node %q does not exist", id)
	}
	if !g.directed {
		total := 0.0
		for _, nb := range g.succ[i] {
			k := g.key(id, g.nodeOrder[nb])
			raw, ok := g.edges[k][attr]
			if !ok {
				continue
			}
			f, ok := ToFloat(raw)
			if !ok {
				return 0, nonNumericWeight(k, attr)
			}
			total += f
			if int(nb) == i {
				total += f // undirected self-loop counts twice
			}
		}
		return total, nil
	}
	var sum int64
	var mag uint64
	for pass, adj := range [2][]int32{g.succ[i], g.pred[i]} {
		for _, nb := range adj {
			k := EdgeKey{U: id, V: g.nodeOrder[nb]}
			if pass == 1 {
				if int(nb) == i {
					continue // the self-loop was counted among the out-edges
				}
				k = EdgeKey{U: g.nodeOrder[nb], V: id}
			}
			raw, ok := g.edges[k][attr]
			if !ok {
				continue
			}
			v, ok := Normalize(raw).(int64)
			if !ok {
				return g.weightedDegreeScan(id, attr)
			}
			if v < 0 {
				mag += uint64(-v)
			} else {
				mag += uint64(v)
			}
			if mag > 1<<53 {
				return g.weightedDegreeScan(id, attr)
			}
			sum += v
		}
	}
	return float64(sum), nil
}

// weightedDegreeScan is WeightedDegree for a directed graph by an O(E)
// scan of the edges in insertion order.
func (g *Graph) weightedDegreeScan(id, attr string) (float64, error) {
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
			return 0, nonNumericWeight(k, attr)
		}
		total += f
	}
	return total, nil
}

func nonNumericWeight(k EdgeKey, attr string) error {
	return fmt.Errorf("graph: edge (%q,%q) attribute %q is not numeric", k.U, k.V, attr)
}

// MaxBy returns the node maximizing fn, breaking ties by node ID, and the
// maximum value. ok is false for an empty graph.
func (g *Graph) MaxBy(fn func(id string) float64) (node string, value float64, ok bool) {
	value = math.Inf(-1)
	for _, n := range g.nodeOrder {
		v := fn(n)
		if !ok || v > value || (v == value && n < node) {
			node, value, ok = n, v, true
		}
	}
	return node, value, ok
}
