package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestUnknownEngineExits2 requires an -engine the pipeline does not have
// to end the run with exit status 2 and a one-line error before any
// experiment starts (validate would otherwise build a workload and panic).
func TestUnknownEngineExits2(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	args, stderr := os.Args, os.Stderr
	os.Args = []string{"genax-bench", "-engine", "banded", "validate"}
	os.Stderr = w
	code := run()
	os.Args, os.Stderr = args, stderr
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	msg := strings.TrimSuffix(string(out), "\n")
	if strings.Contains(msg, "\n") || !strings.Contains(msg, `unknown engine "banded"`) {
		t.Fatalf("stderr %q, want one line naming the unknown engine", out)
	}
}
