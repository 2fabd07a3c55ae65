package bench

import (
	"fmt"
	"strings"

	"genax/internal/hw"
)

// Fig12Result is the per-PE area/power frequency sweep of Figure 12.
type Fig12Result struct {
	Edit, Traceback []hw.SweepPoint
}

// Fig12 evaluates the hardware model sweep.
func Fig12() Fig12Result {
	return Fig12Result{
		Edit:      hw.FrequencySweep(hw.EditPE, 1, 8, 0.5),
		Traceback: hw.FrequencySweep(hw.TracebackPE, 1, 8, 0.5),
	}
}

// String renders the figure as a table with the paper's anchor points.
func (r Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: SillaX per-PE area and power vs frequency (28 nm model)\n")
	fmt.Fprintf(&b, "%-8s %-14s %-14s %-14s %-14s\n", "GHz", "edit µm²", "edit µW", "tb µm²", "tb µW")
	for i := range r.Edit {
		mark := " "
		if r.Edit[i].Optimal {
			mark = "*" // the paper's 2 GHz inflection point
		}
		fmt.Fprintf(&b, "%-7.1f%s %-14.2f %-14.2f %-14.1f %-14.1f\n",
			r.Edit[i].GHz, mark, r.Edit[i].AreaUm2, r.Edit[i].PowerUw,
			r.Traceback[i].AreaUm2, r.Traceback[i].PowerUw)
	}
	fmt.Fprintf(&b, "paper anchors: edit machine @2GHz = 0.012 mm²/0.047 W (K=40);\n")
	fmt.Fprintf(&b, "  traceback @2GHz = 1.41 mm²/1.54 W; edit PE @5GHz = 9.7 µm² (30x under banded-SW's %.0f µm²)\n", hw.BandedSWPEAreaUm2)
	fmt.Fprintf(&b, "model: edit machine @2GHz = %.4f mm²/%.4f W; traceback = %.3f mm²/%.3f W; edit PE @5GHz = %.2f µm²\n",
		hw.MachineArea(hw.EditPE, 40, 2), hw.MachinePower(hw.EditPE, 40, 2),
		hw.MachineArea(hw.TracebackPE, 40, 2), hw.MachinePower(hw.TracebackPE, 40, 2),
		hw.PEArea(hw.EditPE, 5))
	return b.String()
}
