package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestServiceConfigMatchesNetqueryd checks that the Service the untraced
// worker builds uses netqueryd's flag defaults, so the two cannot drift
// apart unnoticed.
func TestServiceConfigMatchesNetqueryd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds netqueryd")
	}
	bin := filepath.Join(t.TempDir(), "netqueryd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/netqueryd").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// -h exits non-zero after printing the flag list.
	help, _ := exec.Command(bin, "-h").CombinedOutput()
	defaults := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+).*\n.*\(default ([^)]*)\)$`).FindAllStringSubmatch(string(help), -1) {
		defaults[m[1]] = m[2]
	}

	cfg := serviceConfig(serveWorkloads["serve-small"])
	for flag, got := range map[string]any{
		"default-timeout":       cfg.DefaultTimeout,
		"max-timeout":           cfg.MaxTimeout,
		"breaker-threshold":     cfg.BreakerThreshold,
		"breaker-cooldown":      cfg.BreakerCooldown,
		"slo-availability":      cfg.SLOAvailability,
		"slo-latency-target":    cfg.SLOLatencyTarget,
		"slo-latency-threshold": cfg.SLOLatencyThreshold,
		"flight-capacity":       cfg.FlightCapacity,
		"flight-sample":         cfg.FlightSampleEvery,
		"flight-slow-factor":    cfg.FlightSlowFactor,
	} {
		want, ok := defaults[flag]
		if !ok {
			t.Errorf("netqueryd -h shows no default for -%s", flag)
			continue
		}
		if s := fmt.Sprint(got); s != want {
			t.Errorf("-%s: serviceConfig has %s, netqueryd's default is %s", flag, s, want)
		}
	}
	// TraceSample defaults to 0 (off), which -h does not print.
	if cfg.TraceSample != 0 {
		t.Errorf("TraceSample = %g, netqueryd's default is 0", cfg.TraceSample)
	}
}

// TestCatalogPhasesAreWholePermutations checks that every serve-large
// phase runs each catalog program equally often.
func TestCatalogPhasesAreWholePermutations(t *testing.T) {
	block := len(catalogPrograms())
	for _, p := range serveWorkloads["serve-large"].plan() {
		if p.n%block != 0 {
			t.Errorf("phase %s sends %d requests, not a multiple of %d", p.label, p.n, block)
		}
	}
}
