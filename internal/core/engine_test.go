package core

import (
	"testing"

	"genax/internal/dna"
)

// TestEngineConfigPlumbing pins the Config.Engine pass-through: the
// cycle-level oracle and the bit-parallel default must produce identical
// alignments through the public API, and an unknown selector must be
// rejected by New (via pipeline validation).
func TestEngineConfigPlumbing(t *testing.T) {
	wl := testWorkload(320, 25000, 0.03)
	reads := make([]dna.Seq, 50)
	for i := range reads {
		reads[i] = wl.Reads[i].Seq
	}

	cfg := smallConfig()
	cfg.Engine = EngineSillaX
	oracle, err := New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracle.AlignBatch(reads)

	cfg = smallConfig() // Engine left empty: resolves to bitsilla
	def, err := New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := def.AlignBatch(reads)
	sameResults(t, "bitsilla vs sillax", got, want)

	cfg = smallConfig()
	cfg.Engine = "fpga"
	if _, err := New(wl.Ref, cfg); err == nil {
		t.Error("unknown engine accepted")
	}
}
