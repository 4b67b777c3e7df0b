package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/llm"
	"repro/internal/nemoeval"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/service"
)

// Program is one distinct request payload: a raw program pinned to a
// backend, or a catalog query id run on a pinned backend.
type Program struct {
	Backend string
	Src     string // raw NQL program ("" for catalog requests)
	QueryID string // catalog query id ("" for raw programs)
}

// Source is the NQL program p runs: its raw source, or the golden program
// of its catalog query on its backend.
func (p Program) Source() string {
	if p.QueryID == "" {
		return p.Src
	}
	q, _ := queries.ByID(p.QueryID)
	return q.Golden[p.Backend]
}

// Request is one request of a stream: which program and which tenant.
type Request struct {
	Prog   int // index into Stream.Programs
	Tenant string
}

// Stream is a workload's seeded request sequence and the distinct programs
// it draws from. References[i] is the expected outcome of Programs[i].
type Stream struct {
	Programs   []Program
	References []Reference
	Requests   []Request
}

// oneOffTemplate is the parameterised federated scan service.RunLoad
// sends; each one-off fills it with a fresh seeded constant, so it misses
// the vet and program caches.
const oneOffTemplate = `return fed.scan("frame", "edges").filter("src", "==", %q).count()`

// tenants is the tenant population; arrivals pick one by a Zipf draw.
const tenants = 8

// generatedPrograms returns the distinct (backend, program) pairs the
// simulated models produce for the traffic suite on every backend: the
// programs `nemoeval -table 2` evaluates, plus the federated backend.
// Generation failures (token-window overflows) produce no program.
func generatedPrograms() []Program {
	inst := nemoeval.DatasetFor(queries.AppTraffic)()
	seen := map[Program]bool{}
	var out []Program
	for _, name := range llm.ModelNames {
		sim, err := llm.NewSim(name)
		if err != nil {
			panic(err)
		}
		for _, backend := range prompt.AllBackends {
			for _, q := range queries.Traffic() {
				p := prompt.BuildCodePrompt(inst.Wrapper, backend, q.Text)
				for t := 1; t <= trials(name); t++ {
					resp, err := sim.Generate(llm.Request{Prompt: p, Attempt: t})
					if err != nil {
						continue
					}
					pr := Program{Backend: backend, Src: resp.Text}
					if !seen[pr] {
						seen[pr] = true
						out = append(out, pr)
					}
				}
			}
		}
	}
	return out
}

// trials is the number of trials nemoeval's runner gives a model.
var trials = nemoeval.NewRunner().TrialsFor

// catalogPrograms returns every (traffic query, backend) pair that has a
// golden program, in a fixed order.
func catalogPrograms() []Program {
	var out []Program
	for _, q := range queries.Traffic() {
		for _, backend := range prompt.AllBackends {
			if _, ok := q.Golden[backend]; ok {
				out = append(out, Program{Backend: backend, QueryID: q.ID})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].QueryID < out[j].QueryID })
	return out
}

// rawStream draws n requests: three in four from the generated corpus,
// uniformly, and one in four a one-off scan with a fresh constant.
func rawStream(seed int64, n int) *Stream {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, tenants-1)
	st := &Stream{Programs: generatedPrograms()}
	corpus := len(st.Programs)
	for i := 0; i < n; i++ {
		r := Request{Tenant: fmt.Sprintf("tenant-%02d", zipf.Uint64())}
		if rng.Intn(4) == 0 {
			src := fmt.Sprintf(oneOffTemplate, fmt.Sprintf("h%03d", rng.Intn(100000)))
			st.Programs = append(st.Programs, Program{Backend: prompt.BackendFederated, Src: src})
			r.Prog = len(st.Programs) - 1
		} else {
			r.Prog = rng.Intn(corpus)
		}
		st.Requests = append(st.Requests, r)
	}
	return st
}

// catalogStream draws n catalog requests as back-to-back seeded
// permutations of every (query, backend) pair, so each block of
// len(catalogPrograms()) requests runs every pair once.
func catalogStream(seed int64, n int) *Stream {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, tenants-1)
	st := &Stream{Programs: catalogPrograms()}
	var perm []int
	for i := 0; i < n; i++ {
		if len(perm) == 0 {
			perm = rng.Perm(len(st.Programs))
		}
		st.Requests = append(st.Requests, Request{Prog: perm[0], Tenant: fmt.Sprintf("tenant-%02d", zipf.Uint64())})
		perm = perm[1:]
	}
	return st
}

// queryBody is the POST /v1/query body the generator sends.
type queryBody struct {
	Tenant  string `json:"tenant"`
	Query   string `json:"query,omitempty"`
	QueryID string `json:"query_id,omitempty"`
	Backend string `json:"backend"`
}

// Body renders request i as its JSON body.
func (st *Stream) Body(i int) []byte {
	r := st.Requests[i]
	p := st.Programs[r.Prog]
	b, err := json.Marshal(queryBody{Tenant: r.Tenant, Query: p.Src, QueryID: p.QueryID, Backend: p.Backend})
	if err != nil {
		panic(err)
	}
	return b
}

// ServiceRequest renders request i as the in-process service request.
func (st *Stream) ServiceRequest(i int) *service.Request {
	r := st.Requests[i]
	p := st.Programs[r.Prog]
	return &service.Request{Tenant: r.Tenant, Query: p.Src, QueryID: p.QueryID, Backend: p.Backend}
}
