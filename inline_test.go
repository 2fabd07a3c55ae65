package genax_test

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// inlineRow names a package and the functions in it that must stay within
// the compiler's inlining budget. Each is called from a hot loop, where a
// function that grows past the budget pays a call every time and nothing
// else fails.
type inlineRow struct {
	pkg   string
	funcs []string
}

var inlined = []inlineRow{
	// Every seeding probe ends in Seeder.lookup or hitsAt, which read the
	// lane's probe table; the per-segment loop extracts each window's row
	// and ranks each held k-mer in its column.
	{"./internal/seed", []string{"(*Seeder).lookup", "(*Seeder).hitsAt", "(*SegmentIndex).row", "(*SegmentIndex).colRank"}},
	// The forward step resolves every offer with pick and liveAt and
	// commits it with put; the bound pass's peeled edge cells call
	// wideCell.
	{"./internal/bitsilla", []string{"pick", "liveAt", "(*wordAcc).put", "wideCell"}},
}

// TestHotPathInlines asks the compiler, package by package, whether each
// row's functions still inline. The test needs the go tool: without it, it
// fails rather than skip.
func TestHotPathInlines(t *testing.T) {
	for _, r := range inlined {
		t.Run(strings.TrimPrefix(r.pkg, "./"), func(t *testing.T) {
			out, err := exec.Command("go", "build", "-gcflags=-m=2", r.pkg).CombinedOutput()
			if err != nil {
				t.Fatalf("go build -gcflags=-m=2 %s: %v\n%s", r.pkg, err, out)
			}
			for _, fn := range r.funcs {
				if bytes.Contains(out, []byte("can inline "+fn+" with cost")) {
					continue
				}
				why := "no inlining decision reported"
				for _, line := range strings.Split(string(out), "\n") {
					if strings.Contains(line, "inline "+fn+":") {
						why = line
					}
				}
				t.Errorf("%s no longer inlines: %s", fn, why)
			}
		})
	}
}
