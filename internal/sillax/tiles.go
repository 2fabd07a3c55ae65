package sillax

import (
	"fmt"

	"genax/internal/dna"
)

// The composable-array model of §IV-D (Fig 10). A physical SillaX die
// carries a p×p grid of square tile slots; each slot holds two triangular
// engines — one forward-oriented, one flipped — and each triangle alone is
// a complete edit-distance-K engine. Reconfiguration muxes combine four
// triangles (one full square plus the forward triangles of its right and
// lower neighbours) into a single engine of edit distance 2K+1, and so on:
// a p×p array reaches p*(K+1)-1.

// Orientation of a triangular tile engine inside its square slot.
type Orientation int

// Tile orientations: Forward propagates activations from the origin corner
// outward; Flipped is the mirrored triangle completing the square.
const (
	Forward Orientation = iota
	Flipped
)

// TileID names one triangular engine on the die.
type TileID struct {
	Row, Col int
	Orient   Orientation
}

func (t TileID) String() string {
	return fmt.Sprintf("(%d,%d)|%d", t.Row, t.Col, int(t.Orient))
}

// TileArray manages the die's tile slots and builds composed engines.
type TileArray struct {
	baseK int
	p     int
	used  map[TileID]bool
}

// NewTileArray builds a p×p array of square slots whose triangles are
// edit-distance-baseK engines.
func NewTileArray(baseK, p int) *TileArray {
	if baseK < 0 || p < 1 {
		panic("sillax: invalid tile array shape")
	}
	return &TileArray{baseK: baseK, p: p, used: make(map[TileID]bool)}
}

// NumTriangles returns the total triangular engines on the die (2 p²).
func (ta *TileArray) NumTriangles() int { return 2 * ta.p * ta.p }

// FreeTriangles returns how many triangles are unallocated.
func (ta *TileArray) FreeTriangles() int {
	return ta.NumTriangles() - len(ta.used)
}

// MaxK returns the largest edit distance one composed engine can reach on
// this die: p*(K+1)-1 (§IV-D: "edit distances ranging from K to pK").
func (ta *TileArray) MaxK() int { return ta.p*(ta.baseK+1) - 1 }

// Release returns a composed machine's triangles to the free pool.
func (ta *TileArray) Release(cm *ComposedEditMachine) {
	for _, id := range cm.tiles {
		delete(ta.used, id)
	}
	cm.tiles = nil
}

// Compose allocates tiles for an engine of edit distance k and returns the
// composed machine. side = ceil((k+1)/(baseK+1)) square slots per axis are
// spanned; the triangles needed are exactly those intersecting the state
// triangle i+d <= k. It fails when the die cannot supply them.
func (ta *TileArray) Compose(k int) (*ComposedEditMachine, error) {
	if k > ta.MaxK() {
		return nil, fmt.Errorf("sillax: edit distance %d exceeds die maximum %d", k, ta.MaxK())
	}
	w := ta.baseK + 1
	side := (k + w) / w // ceil((k+1)/w)
	var need []TileID
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			// Forward triangle of slot (r,c) covers local i+d <= baseK,
			// i.e. global states from (r*w + c*w) up; it is needed when
			// its lowest state is inside the engine triangle.
			if r*w+c*w <= k {
				need = append(need, TileID{r, c, Forward})
			}
			// Flipped triangle covers local i+d > baseK; needed when any
			// of its states is inside: smallest i+d there is r*w+c*w+baseK+1.
			if r*w+c*w+w <= k {
				need = append(need, TileID{r, c, Flipped})
			}
		}
	}
	// Claim with rollback: a conflict mid-allocation releases every tile
	// this composition already took, so a failed Compose never leaks —
	// the die is exactly as free afterwards as it was before the call.
	for n, id := range need {
		if ta.used[id] {
			for _, claimed := range need[:n] {
				delete(ta.used, claimed)
			}
			return nil, fmt.Errorf("sillax: tile %v already allocated", id)
		}
		ta.used[id] = true
	}
	return newComposedEditMachine(ta.baseK, k, need), nil
}

// ComposedEditMachine is an edit machine whose state grid is distributed
// over triangular tiles. It behaves exactly like a monolithic EditMachine
// of the same K (the equivalence the tests pin down); in addition it
// counts inter-tile signal crossings, the mux overhead of §IV-D.
type ComposedEditMachine struct {
	k     int
	baseK int
	w     int
	tiles []TileID
	em    *EditMachine

	// MuxCrossings counts state-transition edges that cross a tile
	// boundary during the last Distance call — signals that traverse the
	// reconfiguration muxes instead of intra-tile wires.
	MuxCrossings int
}

func newComposedEditMachine(baseK, k int, tiles []TileID) *ComposedEditMachine {
	return &ComposedEditMachine{
		k: k, baseK: baseK, w: baseK + 1,
		tiles: tiles,
		em:    NewEditMachine(k),
	}
}

// K returns the composed edit bound.
func (cm *ComposedEditMachine) K() int { return cm.k }

// Tiles returns the allocated triangles.
func (cm *ComposedEditMachine) Tiles() []TileID { return cm.tiles }

// tileOf maps a global state to the triangle hosting it.
func (cm *ComposedEditMachine) tileOf(i, d int) TileID {
	r, c := i/cm.w, d/cm.w
	o := Forward
	if i%cm.w+d%cm.w > cm.baseK {
		o = Flipped
	}
	return TileID{r, c, o}
}

// Cycles reports the cycle count of the last Distance call.
func (cm *ComposedEditMachine) Cycles() int { return cm.em.Cycles }

// Distance computes the bounded edit distance on the composed array. The
// datapath is the monolithic edit machine — composition changes wiring,
// not semantics — while the mux counter audits every boundary crossing an
// edit transition would make.
func (cm *ComposedEditMachine) Distance(r, q dna.Seq) (int, bool) {
	cm.MuxCrossings = 0
	// Count boundary crossings along the state triangle once per call:
	// each ins edge (i,d)->(i+1,d), del edge (i,d)->(i,d+1) and merge
	// edge (i,d)->(i+1,d+1) that changes tiles runs through a mux.
	for i := 0; i <= cm.k; i++ {
		for d := 0; d+i <= cm.k; d++ {
			from := cm.tileOf(i, d)
			if i+1+d <= cm.k && cm.tileOf(i+1, d) != from {
				cm.MuxCrossings++
			}
			if i+d+1 <= cm.k && cm.tileOf(i, d+1) != from {
				cm.MuxCrossings++
			}
			if i+d+2 <= cm.k && cm.tileOf(i+1, d+1) != from {
				cm.MuxCrossings++
			}
		}
	}
	return cm.em.Distance(r, q)
}
