package main

import (
	"os"
	"testing"
	"time"
)

// TestProcCPUCountsCPUTime checks that procCPU parses /proc/<pid>/stat: a
// process that keeps a processor busy sees its CPU time grow.
func TestProcCPUCountsCPUTime(t *testing.T) {
	pid := os.Getpid()
	before, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1e6; i++ {
			x += i
		}
		now, err := procCPU(pid)
		if err != nil {
			t.Fatal(err)
		}
		if now-before >= 50*time.Millisecond {
			return
		}
	}
	t.Fatalf("CPU time grew by less than 50ms in 5s of spinning (x=%d)", x)
}
