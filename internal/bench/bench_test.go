package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares a figure's rendering with the checked-in
// testdata/<name>.golden. The renderings compared this way hold model
// numbers and work counts only, no host timings, so they repeat byte for
// byte at any GOMAXPROCS. A change that means to move a number edits the
// file in the same diff and says why; every other change must leave it
// byte-identical. Fig 14 and Fig 15 have host-timed rows and stay out.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s; if the change means to move it, replace the file with:\n%s\nwant:\n%s", name, path, got, want)
	}
}

func TestFig12(t *testing.T) {
	r := Fig12()
	if len(r.Edit) != 15 || len(r.Traceback) != 15 {
		t.Fatalf("sweep sizes %d/%d", len(r.Edit), len(r.Traceback))
	}
	s := r.String()
	for _, want := range []string{"Figure 12", "0.012", "1.41", "9.7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
	checkGolden(t, "fig12", s)
}

func TestFig13Quick(t *testing.T) {
	r := Fig13(QuickWorkload())
	if r.Reads == 0 {
		t.Fatal("no reads")
	}
	if r.BrokenFraction < 0 || r.BrokenFraction > 0.5 {
		t.Errorf("broken fraction %.3f implausible", r.BrokenFraction)
	}
	sum := 0.0
	for _, f := range r.Histogram {
		sum += f
	}
	if r.BrokenFraction > 0 && (sum < 0.99 || sum > 1.01) {
		t.Errorf("histogram sums to %.3f", sum)
	}
	if !strings.Contains(r.String(), "7.59") {
		t.Error("paper anchor missing from rendering")
	}
	checkGolden(t, "fig13", r.String())
}

func TestFig14Quick(t *testing.T) {
	r := Fig14(QuickWorkload(), 200)
	if r.BandedSWKhits <= 0 || r.SillaXModelKhits <= 0 {
		t.Fatalf("degenerate rates: %+v", r)
	}
	if r.AvgExtensionCycles < 100 || r.AvgExtensionCycles > 2000 {
		t.Errorf("avg extension cycles %.0f outside the N+5K regime", r.AvgExtensionCycles)
	}
	// Who-wins shape: the SillaX model must beat the single-thread
	// software baselines by a large factor.
	if r.SillaXModelKhits < 10*r.BandedSWKhits {
		t.Errorf("SillaX model (%.0f) not clearly ahead of banded SW (%.0f)", r.SillaXModelKhits, r.BandedSWKhits)
	}
	t.Log(r.String())
}

func TestFig16Quick(t *testing.T) {
	r := Fig16(QuickWorkload())
	if r.NaiveHits <= r.BinaryHits {
		t.Errorf("naive hits %.1f not above optimized %.1f", r.NaiveHits, r.BinaryHits)
	}
	if r.SMEMHits < r.BinaryHits {
		t.Errorf("SMEM-only hits %.1f below binary-extension hits %.1f", r.SMEMHits, r.BinaryHits)
	}
	if r.ProbingLookups > r.LinearLookups {
		t.Errorf("probing lookups %.1f above linear %.1f", r.ProbingLookups, r.LinearLookups)
	}
	if r.ExactFraction <= 0 || r.ExactFraction >= 1 {
		t.Errorf("exact fraction %.3f degenerate", r.ExactFraction)
	}
	checkGolden(t, "fig16", r.String())
}

func TestFig15Quick(t *testing.T) {
	r := Fig15(QuickWorkload())
	if r.Model.ReadsPerSec <= 0 {
		t.Fatalf("model throughput %.0f", r.Model.ReadsPerSec)
	}
	if r.SWReadsPerSec <= 0 {
		t.Fatal("software baseline did not run")
	}
	// Shape: the GenAx model must dominate the extrapolated software rate.
	if r.Model.ReadsPerSec < 5*r.SW56ReadsPerSec {
		t.Errorf("GenAx model %.0f not clearly above software %.0f", r.Model.ReadsPerSec, r.SW56ReadsPerSec)
	}
	if r.GenAxPowerW <= 0 || r.GenAxPowerW > 30 {
		t.Errorf("power %.1f W implausible", r.GenAxPowerW)
	}
	t.Log(r.String())
}

func TestValidateQuick(t *testing.T) {
	r := Validate(QuickWorkload())
	if r.BothAligned == 0 {
		t.Fatal("nothing aligned")
	}
	if r.ScoreVariance > 0.02 {
		t.Errorf("score variance %.4f%% too high vs paper's 0.0023%%", 100*r.ScoreVariance)
	}
	checkGolden(t, "validate", r.String())
	if !strings.Contains(Table2String(), "172.78") {
		t.Error("Table II anchor missing")
	}
	checkGolden(t, "table2", Table2String())
}
