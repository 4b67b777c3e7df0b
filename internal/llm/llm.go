// Package llm defines the language-model interface of the framework (box 4
// in Figure 2) and provides simulated implementations of the four models
// the paper evaluates (GPT-4, GPT-3, text-davinci-003, Bard).
//
// The simulation substitutes for live API access: each
// model emits real NQL programs — the golden program when the calibrated
// outcome is a pass, or a program derived from the golden by a
// class-specific fault mutator when it is a fail. Everything downstream
// (prompting, parsing, sandboxed execution, evaluation, error
// classification, cost accounting) runs exactly as it would with a live
// model; swapping one in only requires implementing Model.
//
// Live and recorded serving enter through the Provider seam: a Provider
// answers generation requests for any named model, and NewProviderModel
// adapts one back to the per-model Model interface. The model-serving
// gateway (package internal/modelserve) implements Provider and supplies
// the production plumbing — request batching under the evaluation worker
// pool, per-model rate limiting, bounded retry with backoff, and a
// deterministic record/replay cache — so the pipeline runs
// simulate → record → replay without any consumer changing.
package llm

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/tokens"
)

// Request is one generation call.
type Request struct {
	Prompt      string
	Temperature float64 // 0 = deterministic; >0 enables attempt sequencing
	Attempt     int     // 1-based sample index (pass@k); 0 means 1
}

// Response is the model output with token accounting.
type Response struct {
	Text             string
	PromptTokens     int
	CompletionTokens int
}

// Model is the minimal LLM interface the framework depends on.
type Model interface {
	Name() string
	Generate(req Request) (*Response, error)
}

// ModelNames lists the simulated models in the paper's order.
var ModelNames = []string{"gpt-4", "gpt-3", "text-davinci-003", "bard"}

// Provider is the model-serving seam: one entry point that answers
// generation requests for any named model. The gateway in
// internal/modelserve implements it (batching, rate limiting, retry,
// record/replay); this package only defines the contract so consumers
// never import the serving layer.
type Provider interface {
	Generate(model string, req Request) (*Response, error)
}

// providerModel adapts a Provider to the Model interface for one model
// name — the gateway-backed Model constructor the evaluation pipeline
// uses when a serving gateway is configured.
type providerModel struct {
	name string
	p    Provider
}

// NewProviderModel returns a Model whose generations are served by p
// under the given model name.
func NewProviderModel(p Provider, name string) Model {
	return &providerModel{name: name, p: p}
}

// Name implements Model.
func (m *providerModel) Name() string { return m.name }

// Generate implements Model.
func (m *providerModel) Generate(req Request) (*Response, error) {
	return m.p.Generate(m.name, req)
}

// SimModel is a calibrated simulated LLM.
type SimModel struct {
	name string
	// oracle answers strawman prompts: queryText -> correct direct answer.
	oracle map[string]string
}

// NewSim creates a simulated model by name (must be one of ModelNames).
func NewSim(name string) (*SimModel, error) {
	if _, ok := tokens.Specs[name]; !ok {
		return nil, fmt.Errorf("llm: unknown model %q", name)
	}
	return &SimModel{name: name, oracle: map[string]string{}}, nil
}

// Name implements Model.
func (m *SimModel) Name() string { return m.name }

// SetOracle installs the direct answer a strawman prompt for queryText
// should yield when the model answers correctly. The benchmark computes it
// by executing the golden program — the stand-in for the model "knowing"
// the answer.
func (m *SimModel) SetOracle(queryText, answer string) {
	m.oracle[queryText] = answer
}

// maxCompletionTokens reserves room in the context window for the reply.
const maxCompletionTokens = 512

// Generate implements Model. The returned error is non-nil only for token
// window overflows (the provider-side failure); bad generations are
// returned as syntactically/semantically faulty program text, as a real
// model would produce them.
func (m *SimModel) Generate(req Request) (*Response, error) {
	pt := tokens.Count(req.Prompt)
	spec := tokens.Specs[m.name]
	if pt+maxCompletionTokens > spec.ContextWindow {
		return nil, &tokens.ErrTokenLimit{Model: m.name, Tokens: pt + maxCompletionTokens, Limit: spec.ContextWindow}
	}
	attempt := req.Attempt
	if attempt <= 0 {
		attempt = 1
	}
	qText, ok := prompt.QueryOf(req.Prompt)
	if !ok {
		return m.reply(pt, "# unable to identify the request\nreturn nil"), nil
	}
	q, ok := queries.ByText(qText)
	if !ok {
		return m.reply(pt, "# query not in training distribution\nreturn nil"), nil
	}
	backend, isCode := prompt.BackendOf(req.Prompt)
	if !isCode {
		return m.generateStrawman(pt, q), nil
	}

	golden := q.Golden[backend]
	if prompt.IsRepairPrompt(req.Prompt) {
		if selfDebugFixes(m.name, backend, q.ID) {
			return m.reply(pt, golden), nil
		}
		// The model repeats a (differently seeded) faulty attempt.
		out := outcomeFor(m.name, q.App, backend, q.ID, attempt, req.Temperature)
		return m.reply(pt, Mutate(golden, out.Class, backend, q, m.name+"/repair")), nil
	}
	out := outcomeFor(m.name, q.App, backend, q.ID, attempt, req.Temperature)
	if out.Pass {
		return m.reply(pt, golden), nil
	}
	return m.reply(pt, Mutate(golden, out.Class, backend, q, fmt.Sprintf("%s/%d", m.name, attempt))), nil
}

func (m *SimModel) reply(promptTokens int, text string) *Response {
	ct := tokens.Count(text)
	if ct > maxCompletionTokens {
		ct = maxCompletionTokens
	}
	return &Response{Text: text, PromptTokens: promptTokens, CompletionTokens: ct}
}

func (m *SimModel) generateStrawman(pt int, q queries.Query) *Response {
	answer, ok := m.oracle[q.Text]
	if !ok {
		answer = "unknown"
	}
	out := strawmanOutcome(m.name, q.ID)
	if out {
		return m.reply(pt, answer)
	}
	return m.reply(pt, corruptAnswer(answer, m.name+q.ID))
}

// corruptAnswer simulates the arithmetic slips and hallucinations of
// direct-answer mode: digits drift and the phrasing hedges.
func corruptAnswer(answer, seed string) string {
	r := rand.New(rand.NewSource(int64(hashString(seed))))
	var sb strings.Builder
	changed := false
	for _, c := range answer {
		if c >= '0' && c <= '9' && r.Intn(3) == 0 {
			c = '0' + (c-'0'+1+rune(r.Intn(8)))%10
			changed = true
		}
		sb.WriteRune(c)
	}
	out := sb.String()
	if !changed {
		out = "approximately " + out
	}
	return out
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
