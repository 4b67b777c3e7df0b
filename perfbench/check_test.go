package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

// postOutcome sends one stream request to url and records the outcome.
func postOutcome(t *testing.T, url string, body []byte) Outcome {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return Outcome{Sent: true, Status: resp.StatusCode, Body: b}
}

// TestReferencesJudgeRealResponses sends one generated program of each
// reference class through netqueryd's handler: each matches its reference,
// and a corrupted reference turns the same response into a failure.
func TestReferencesJudgeRealResponses(t *testing.T) {
	w := serveWorkloads["serve-small"]
	svc, err := newService(w)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	st := w.stream(1, 400)
	st.References = References(w.builder(), st.Programs)
	seen := map[int]bool{}
	for i, r := range st.Requests {
		ref := st.References[r.Prog]
		if seen[ref.Status] {
			continue
		}
		seen[ref.Status] = true
		out := postOutcome(t, srv.URL, st.Body(i))
		if kind := Classify(out, ref); kind != "" {
			t.Errorf("status %d program: matching response judged %q: %s", ref.Status, kind, out.Body)
		}
		bad := ref
		if ref.Status == http.StatusOK {
			bad.Result += " (corrupted)"
		} else {
			bad.Status = http.StatusOK
		}
		if kind := Classify(out, bad); kind != failMismatch {
			t.Errorf("status %d program: corrupted reference judged %q, want %q", ref.Status, kind, failMismatch)
		}
	}
	for _, status := range []int{http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity} {
		if !seen[status] {
			t.Errorf("the serve-small stream has no program whose reference is %d", status)
		}
	}
}

func TestClassifyFailureKinds(t *testing.T) {
	ref := Reference{Status: http.StatusOK, Result: "1"}
	for _, c := range []struct {
		out  Outcome
		want string
	}{
		{Outcome{Sent: true, Status: 200, Body: []byte(`{"result":"1"}`)}, ""},
		{Outcome{Sent: true, Status: 200, Body: []byte(`{"result":"2"}`)}, failMismatch},
		{Outcome{Sent: true, Status: 429}, failShed},
		{Outcome{Sent: true, Status: 504}, failServer},
		{Outcome{Sent: true}, failTransport},
		{Outcome{}, failAbandoned},
	} {
		if got := Classify(c.out, ref); got != c.want {
			t.Errorf("Classify(%d %s) = %q, want %q", c.out.Status, c.out.Body, got, c.want)
		}
	}
}

// TestWrongMatrixOutputFails runs the matrix workload against a stand-in
// nemoeval whose output differs from the pin: every pass is a failure.
func TestWrongMatrixOutputFails(t *testing.T) {
	if MatrixOK([]byte("Table 2: not the pinned tables\n")) {
		t.Fatal("MatrixOK accepted output that differs from the pin")
	}
	dir := t.TempDir()
	fake := filepath.Join(dir, "nemoeval")
	if err := os.WriteFile(fake, []byte("#!/bin/sh\necho 'Table 2: not the pinned tables'\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A stand-in for the set-up and probe workers (`perfbench -worker
	// <kind> ...`) that reports fixed times.
	setup := filepath.Join(dir, "perfbench")
	script := "#!/bin/sh\ncase $2 in probe) echo '[140]' ;; *) echo 10000000 ;; esac\n"
	if err := os.WriteFile(setup, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	res := newResult()
	if err := runMatrix(&options{nemoeval: fake, self: setup}, res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("wrong output: correct=%v attempted=%d failed=%d, want every pass failed",
			res.Correct, res.Attempted, res.Failed)
	}
	if got := res.Metrics["ok_ratio"].Value; got != 0 {
		t.Errorf("ok_ratio = %g, want 0", got)
	}
}
