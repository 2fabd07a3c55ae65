package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// runWith calls run with args on fresh flags and returns its exit status
// and what it wrote to stdout and stderr.
func runWith(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	capture := func() (*os.File, <-chan string) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			r.Close()
			done <- string(b)
		}()
		return w, done
	}
	outW, outC := capture()
	errW, errC := capture()
	oldArgs, oldOut, oldErr, oldFlags := os.Args, os.Stdout, os.Stderr, flag.CommandLine
	os.Args = append([]string{"genax-bench"}, args...)
	os.Stdout, os.Stderr = outW, errW
	flag.CommandLine = flag.NewFlagSet("genax-bench", flag.ExitOnError)
	code = run()
	os.Args, os.Stdout, os.Stderr, flag.CommandLine = oldArgs, oldOut, oldErr, oldFlags
	outW.Close()
	errW.Close()
	return code, <-outC, <-errC
}

// TestQuickValidateMatchesGolden drives the whole CLI: -quick validate
// exits 0 and prints the bench package's validate golden, plus the
// newline Println adds.
func TestQuickValidateMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../internal/bench/testdata/validate.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runWith(t, "-quick", "validate")
	if code != 0 {
		t.Fatalf("exit status %d, want 0; stderr %q", code, stderr)
	}
	if out != string(want)+"\n" {
		t.Errorf("stdout differs from validate.golden:\n%s\nwant:\n%s", out, want)
	}
}

// TestUnknownExperimentExits2 requires an experiment name the driver does
// not have to end the run with exit status 2 and a stderr that names it.
func TestUnknownExperimentExits2(t *testing.T) {
	code, _, stderr := runWith(t, "fig99")
	if code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown experiment "fig99"`) {
		t.Fatalf("stderr %q, want it to name the unknown experiment", stderr)
	}
}
