package nemoeval

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
	"repro/internal/traffic"
)

// isolationWriter is one program that writes through an instance's state.
// touches names the backends whose state it must change; the state of
// every other backend bound by the same instance must stay intact.
type isolationWriter struct {
	backend string
	src     string
	touches []string
}

// Writers that reach every mutation path a request has: graph edits, frame
// set_cell/append_row, SQL UPDATE/DELETE/INSERT, and, on the federated
// backend, frame writes and SQL writes on an instance whose frames and DB
// are clones of the same frozen frames.
var isolationWriters = []isolationWriter{
	{prompt.BackendNetworkX, `let n = graph.nodes()[0]
graph.set_node_attr(n, "ip", "10.9.9.9")
let e = graph.edges()[0]
graph.set_edge_attr(e.src, e.dst, "bytes", 7)
graph.add_node("zz", {"ip": "10.9.9.8"})
return nil`, []string{prompt.BackendNetworkX}},
	{prompt.BackendPandas, `edges_df.set_cell(0, "bytes", 7)
nodes_df.set_cell(0, "ip", "10.9.9.9")
nodes_df.append_row("zz", "10.9.9.8")
return nil`, []string{prompt.BackendPandas}},
	{prompt.BackendSQL, `db.exec("UPDATE edges SET bytes = 7 WHERE bytes > 1000")
db.exec("DELETE FROM edges WHERE connections > 5")
db.exec("INSERT INTO nodes VALUES ('zz', '10.9.9.8')")
return nil`, []string{prompt.BackendSQL}},
	{prompt.BackendFederated, `nodes_df.set_cell(0, "ip", "10.9.9.9")
edges_df.append_row("zz", "zy", 1, 1, 1)
return nil`, []string{prompt.BackendPandas}},
	{prompt.BackendFederated, `db.exec("UPDATE nodes SET ip = '10.9.9.9'")
db.exec("DELETE FROM edges WHERE bytes > 1000")
db.exec("INSERT INTO edges VALUES ('zz', 'zy', 1, 1, 1)")
return nil`, []string{prompt.BackendSQL}},
}

// TestInstanceIsolationUnderConcurrentWrites pins copy-on-write isolation
// of the frozen per-epoch masters: every traffic golden and every writer
// above runs concurrently on instances from one builder, and afterwards a
// new instance must still equal a fresh, unshared derivation of the same
// config on every backend. Run under -race it also proves no write reaches
// storage another request reads, including the frames the frames master
// and the DB master share.
func TestInstanceIsolationUnderConcurrentWrites(t *testing.T) {
	cfg := traffic.Config{Nodes: 40, Edges: 120, Seed: 11}
	build := TrafficDataset(cfg)
	g := traffic.Generate(cfg)
	nodes, edges := traffic.Frames(g)
	fresh := &Instance{Graph: g, Nodes: nodes, Edges: edges, DB: traffic.Database(g)}

	var writers []isolationWriter
	for _, q := range queries.Traffic() {
		for _, backend := range prompt.Backends {
			writers = append(writers, isolationWriter{backend: backend, src: q.Golden[backend]})
		}
	}
	writers = append(writers, isolationWriters...)

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(writers))
	for r := 0; r < rounds; r++ {
		for _, w := range writers {
			wg.Add(1)
			go func(w isolationWriter) {
				defer wg.Done()
				inst := build()
				if res := sandbox.Run(w.src, inst.Bindings(w.backend), sandbox.DefaultPolicy); !res.OK() {
					errs <- fmt.Errorf("%s program failed: %v\n%s", w.backend, res.Err, w.src)
					return
				}
				if w.touches == nil {
					return
				}
				for _, backend := range []string{prompt.BackendNetworkX, prompt.BackendPandas, prompt.BackendSQL} {
					if w.backend != prompt.BackendFederated && backend != w.backend {
						continue
					}
					want := !slices.Contains(w.touches, backend)
					if StateEqual(backend, inst, fresh) != want {
						errs <- fmt.Errorf("%s writer: %s state equal to fresh = %v, want %v\n%s",
							w.backend, backend, !want, want, w.src)
					}
				}
			}(w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	after := build()
	for _, backend := range prompt.Backends {
		if !StateEqual(backend, after, fresh) {
			t.Errorf("%s: instance built after concurrent writes differs from a fresh derivation", backend)
		}
	}
}
