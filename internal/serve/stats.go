package serve

import (
	"sort"

	"genax/internal/core"
)

// GenomeStats is one genome's slice of the /statsz snapshot: registry
// residency, admission counters, and the pipeline work counters
// accumulated across its coalesced flushes.
type GenomeStats struct {
	Name       string `json:"name"`
	State      string `json:"state"` // "cold", "loading", or "ready"
	Refcnt     int    `json:"refcnt"`
	CacheBytes int    `json:"cache_bytes"`

	Admitted     int64 `json:"admitted"`
	Rejected     int64 `json:"rejected"`
	Expired      int64 `json:"expired"`
	QueueDepth   int64 `json:"queue_depth"`
	Batches      int64 `json:"batches"`
	BatchedReads int64 `json:"batched_reads"`
	MaxBatch     int64 `json:"max_batch"`

	Pipeline core.Stats `json:"pipeline"`
}

// RegistryStats aggregates the registry's counters.
type RegistryStats struct {
	Hits       int64 `json:"hits"`
	Loads      int64 `json:"loads"`
	Rebuilds   int64 `json:"rebuilds"`
	Evictions  int64 `json:"evictions"`
	OverBudget int64 `json:"over_budget"`
}

// Snapshot is the /statsz payload.
type Snapshot struct {
	Draining         bool          `json:"draining"`
	CoalesceWindowUS int64         `json:"coalesce_window_us"`
	MaxBatchLimit    int           `json:"max_batch_limit"`
	QueueLimit       int           `json:"queue_limit"`
	MaxResident      int           `json:"max_resident"`
	Registry         RegistryStats `json:"registry"`
	Genomes          []GenomeStats `json:"genomes"`
}

// Snapshot captures the server's counters at this instant: per-genome
// admission/coalescing tallies and accumulated pipeline stats, plus the
// registry's load/eviction history. Safe to call concurrently with
// serving.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Draining:         s.draining.Load(),
		CoalesceWindowUS: s.cfg.CoalesceWindow.Microseconds(),
		MaxBatchLimit:    s.cfg.MaxBatch,
		QueueLimit:       s.cfg.QueueLimit,
		MaxResident:      s.cfg.MaxResident,
		Registry: RegistryStats{
			Hits:       s.reg.hits.Load(),
			Loads:      s.reg.loads.Load(),
			Rebuilds:   s.reg.rebuilds.Load(),
			Evictions:  s.reg.evictions.Load(),
			OverBudget: s.reg.overBudget.Load(),
		},
	}
	for name, g := range s.genomes {
		gs := GenomeStats{
			Name:         name,
			State:        "cold",
			Admitted:     g.admitted.Load(),
			Rejected:     g.rejected.Load(),
			Expired:      g.expired.Load(),
			QueueDepth:   int64(len(g.in)),
			Batches:      g.batches.Load(),
			BatchedReads: g.batched.Load(),
			MaxBatch:     g.maxBatch.Load(),
		}
		g.mu.Lock()
		gs.Pipeline = g.pstats
		g.mu.Unlock()
		s.reg.mu.Lock()
		switch {
		case g.loading:
			gs.State = "loading"
		case g.aligner != nil:
			gs.State = "ready"
			gs.CacheBytes = g.mapped.SizeBytes()
		}
		gs.Refcnt = g.refcnt
		s.reg.mu.Unlock()
		snap.Genomes = append(snap.Genomes, gs)
	}
	sort.Slice(snap.Genomes, func(i, j int) bool { return snap.Genomes[i].Name < snap.Genomes[j].Name })
	return snap
}
