// Package pipeline holds the chip's seed:extend lane geometry (§VI). The
// host aligner in internal/core runs fused lanes that each seed, filter
// and extend; the 128:4 split survives here only as a model, for the hw
// lane model and utilization denominators.
package pipeline

// Chip lane counts (§VI): 128 seeding lanes feed 4 SillaX lanes.
const (
	ChipSeedLanes   = 128
	ChipExtendLanes = 4
)

// SplitLanes splits a lane budget in the chip's 128:4 seed:extend
// proportion, keeping at least one lane on each side; the chip's own
// budget of 132 maps exactly to (128, 4). It describes the chip, not the
// host: it schedules nothing — every host lane is fused.
func SplitLanes(budget int) (seedLanes, extendLanes int) {
	if budget < 1 {
		budget = 1
	}
	extendLanes = budget * ChipExtendLanes / (ChipSeedLanes + ChipExtendLanes)
	if extendLanes < 1 {
		extendLanes = 1
	}
	seedLanes = budget - extendLanes
	if seedLanes < 1 {
		seedLanes = 1
	}
	return seedLanes, extendLanes
}
