package indexio

import (
	"fmt"
	"sync"
)

// ShardResidency streams a mapped index one shard group at a time: the
// seed stage announces which segment each lane is about to walk
// (Acquire) and when it is done (Release), and the controller bounds how
// many shard groups may be resident at once — the index analog of the
// credit accounting every other pipeline stage already does. It
// implements core.Residency.
//
// Protocol: a lane calls Acquire(s) before binding segment s and
// Release(s) after the per-segment barrier. Acquire blocks while the
// segment's group is non-resident and the residency budget is exhausted;
// a group is retired — refcount zero after its *last* segment releases —
// before the next group is admitted, so the seed walk's ascending
// segment order plus release-before-acquire makes maxResident=1 live:
// the chip's "one segment's tables in SRAM at a time" regime.
//
// Residency transitions are kernel advice (madvise), so correctness
// never depends on them: an access to a retired group's pages refaults
// transparently. The controller only bounds the working set and counts
// the traffic.
type ShardResidency struct {
	m   *Mapped
	mu  sync.Mutex
	cnd *sync.Cond

	refs     []int // active lanes per group
	resident []bool
	nRes     int
	maxRes   int

	admits int // groups made resident (shard-group "fetches")
	drops  int // groups retired
	waits  int // Acquire calls that had to block
}

// NewShardResidency bounds m's residency to maxResident shard groups
// (minimum 1). The seed stage admits one window at a time (its per-window
// barrier holds all lanes in lockstep), so even maxResident=1 cannot
// deadlock: the ascending walk guarantees the held group's last segment
// is always released before any lane needs the next group admitted.
func NewShardResidency(m *Mapped, maxResident int) *ShardResidency {
	if maxResident < 1 {
		maxResident = 1
	}
	n := m.NumShardGroups()
	r := &ShardResidency{
		m:        m,
		refs:     make([]int, n),
		resident: make([]bool, n),
		maxRes:   maxResident,
	}
	r.cnd = sync.NewCond(&r.mu)
	return r
}

// Acquire blocks until segment seg's shard group is resident and pins it
// for the calling lane.
func (r *ShardResidency) Acquire(seg int) {
	g := r.m.GroupOf(seg)
	if g < 0 || g >= len(r.refs) {
		return
	}
	r.mu.Lock()
	waited := false
	for !r.resident[g] && r.nRes >= r.maxRes {
		waited = true
		r.cnd.Wait()
	}
	if waited {
		r.waits++
	}
	if !r.resident[g] {
		r.resident[g] = true
		r.nRes++
		r.admits++
		r.mu.Unlock()
		// Advice outside the lock: WILLNEED may start I/O.
		r.m.adviseGroup(g, true)
		r.mu.Lock()
	}
	r.refs[g]++
	r.mu.Unlock()
}

// Release unpins segment seg for the calling lane; when the group's last
// segment has fully released, the group is retired and its residency
// credit returned.
func (r *ShardResidency) Release(seg int) {
	g := r.m.GroupOf(seg)
	if g < 0 || g >= len(r.refs) {
		return
	}
	lastSeg := min((g+1)*r.m.ShardGroupSize(), len(r.m.Index().Samples)) - 1
	r.mu.Lock()
	r.refs[g]--
	retire := r.refs[g] == 0 && seg == lastSeg && r.resident[g]
	if retire {
		r.resident[g] = false
		r.nRes--
		r.drops++
	}
	r.mu.Unlock()
	if retire {
		r.m.adviseGroup(g, false)
		r.cnd.Broadcast()
	}
}

// Stats reports the admission/retire/wait counters.
func (r *ShardResidency) Stats() (admits, drops, waits int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admits, r.drops, r.waits
}

// String renders the counters for -stats output.
func (r *ShardResidency) String() string {
	a, d, w := r.Stats()
	return fmt.Sprintf("shard residency: %d groups (size %d), max resident %d, admits %d, drops %d, blocked acquires %d",
		r.m.NumShardGroups(), r.m.ShardGroupSize(), r.maxRes, a, d, w)
}
