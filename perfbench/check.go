package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"

	"repro/internal/nemoeval"
	"repro/internal/nql"
	"repro/internal/nql/analysis"
	"repro/internal/sandbox"
)

// matrixSHA256 pins the stdout of `nemoeval -all`.
const matrixSHA256 = "8d4e3503845747fb8fb5c802ca3e36f57456e51a421c8aeea94e2902d21ad7bc"

// Reference is a program's expected outcome: the status netqueryd must
// answer with (200, 400 or 422) and, for 200, the result text.
type Reference struct {
	Status int
	Result string
}

// Failure kinds. An outcome that is none of these is a success.
const (
	failTransport = "transport" // no HTTP response
	failShed      = "shed"      // 429
	failServer    = "server"    // 5xx, including 504
	failMismatch  = "mismatch"  // status or result differs from the reference
	failAbandoned = "abandoned" // never sent: the phase ran out of drain time
)

// Classify judges one outcome against its reference; "" means success.
func Classify(o Outcome, ref Reference) string {
	switch {
	case !o.Sent:
		return failAbandoned
	case o.Status == 0:
		return failTransport
	case o.Status == http.StatusTooManyRequests:
		return failShed
	case o.Status >= 500:
		return failServer
	case o.Status != ref.Status:
		return failMismatch
	case o.Status != http.StatusOK:
		return "" // a 400 or 422 that matches its reference
	}
	var body struct {
		Result string `json:"result"`
	}
	if json.Unmarshal(o.Body, &body) != nil || body.Result != ref.Result {
		return failMismatch
	}
	return ""
}

// MatrixOK reports whether a `nemoeval -all` stdout matches the pin.
func MatrixOK(stdout []byte) bool {
	sum := sha256.Sum256(stdout)
	return hex.EncodeToString(sum[:]) == matrixSHA256
}

// References computes every program's reference outcome on fresh
// instances from build, reproducing netqueryd's decisions with the
// layers' public functions: a raw program with an error-severity vet
// finding (sandbox.Vet plus name resolution against its backend) is a 400,
// a program that fails to run is a 422, anything else is a 200 with the
// rendered result.
func References(build nemoeval.InstanceBuilder, progs []Program) []Reference {
	out := make([]Reference, len(progs))
	for i, p := range progs {
		out[i] = reference(build, p)
	}
	return out
}

func reference(build nemoeval.InstanceBuilder, p Program) Reference {
	if p.QueryID == "" && vetRejects(p.Backend, p.Src) {
		return Reference{Status: http.StatusBadRequest}
	}
	inst := build()
	r := sandbox.Run(p.Source(), inst.Bindings(p.Backend), sandbox.DefaultPolicy)
	if !r.OK() {
		return Reference{Status: http.StatusUnprocessableEntity}
	}
	return Reference{Status: http.StatusOK, Result: nql.Repr(r.Value)}
}

// vetRejects reports whether netqueryd's pre-admission vet rejects src on
// backend.
func vetRejects(backend, src string) bool {
	diags, err := sandbox.Vet(src)
	if err != nil {
		return true
	}
	if prog, cerr := sandbox.Compile(src); cerr == nil {
		diags = append(diags[:len(diags):len(diags)], analysis.CheckNames(prog, nemoeval.StaticGlobals(backend))...)
	}
	for _, d := range diags {
		if d.Severity == analysis.Error {
			return true
		}
	}
	return false
}
