package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"genax/internal/bitsilla"
	"genax/internal/chain"
	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/extend"
	"genax/internal/indexio"
	"genax/internal/pipeline"
	"genax/internal/seed"
	"genax/internal/serve"
)

// layerRun carries the traced run's state: the metric map every phase
// writes into and the tracer. bench.tr points at the same tracer only while
// the traced passes run, so every other pass is measured with tracing off.
type layerRun struct {
	*bench
	m      map[string]float64
	tracer *tracer
	micro  time.Duration // time one micro-pass may spend on repeat visits
}

// bestOf times fn up to tracePasses times — fewer when a visit is so slow
// that the micro budget is spent first, never fewer than one — and
// returns the fastest visit. Each visit is a span.
func (l *layerRun) bestOf(name string, fn func()) time.Duration {
	var best time.Duration
	begin := time.Now()
	for v := 0; v < tracePasses && (v == 0 || time.Since(begin) < l.micro); v++ {
		runtime.GC()
		id := l.tracer.begin(-1, name, v)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		l.tracer.end(id)
		if v == 0 || d < best {
			best = d
		}
	}
	return best
}

// traced produces every per-layer metric. The order matters only in that
// end-to-end style passes run first, while the heap is still small.
func (b *bench) traced(seconds int, coldLoad time.Duration) (map[string]float64, []span, error) {
	l := &layerRun{bench: b, m: map[string]float64{}, tracer: newTracer(),
		micro: time.Duration(seconds) * time.Second / 12}
	b.n = b.w.traceSlices() * b.w.sliceReads
	// A layer the workload never enters reads 0, written here once; every
	// other metric must be computed below or emit refuses the run.
	for _, name := range b.w.offPath() {
		l.m[name] = 0
	}
	if b.w.served {
		l.m["serve.cold_load_s"] = coldLoad.Seconds()
	}

	// Phase 1: tracing off. Best-of-visits and median rates, and one pass
	// bracketed by process counters.
	plain, _, err := b.setup()
	if err != nil {
		return nil, nil, err
	}
	b.warmUp(plain)
	var ref []outcome
	times := b.passes(plain, tracePasses, time.Now().Add(time.Duration(seconds)*time.Second/5), &ref)
	times = append(times, l.counterPass(plain, ref))
	untraced := bestOfVisits(times)
	l.m["core.batch_rps_median"] = float64(b.n) / medianPass(times).Seconds()
	l.m["core.noise_frac"] = noiseFrac(times)
	b.locusGate(ref)

	// The offline aligner every layer below borrows its index from: the
	// plain target itself, or for the served workload one bound to the
	// mapped cache (the plain server is closed first, so only one mapping
	// of the file is resident at a time).
	var al *core.Aligner
	if ct, ok := plain.(*coreTarget); ok {
		al = ct.al
	} else {
		plain.close()
		var m *indexio.Mapped
		if al, m, err = b.offlineAligner(); err != nil {
			return nil, nil, err
		}
		defer m.Close()
	}

	// Phase 2: the same passes with the stage instrument on the
	// benchmark's clock and a span around every call.
	b.tr = l.tracer
	inst := &core.Instrument{Now: l.tracer.now}
	tracedTarget, err := l.tracedTarget(al, inst)
	if err != nil {
		return nil, nil, err
	}
	stats := l.tracedPasses(tracedTarget, inst, &ref, untraced)
	b.tr = nil
	if st, ok := tracedTarget.(*serveTarget); ok {
		l.openLoop(st, time.Duration(seconds)*time.Second/6, ref)
		// The server folds only work counters; outcome tallies come from
		// offline AlignBatch on the same reads, which the answers must
		// equal anyway.
		stats = b.checkOffline(al, ref)
	}
	tracedTarget.close()
	l.counts(stats)

	// Phase 3: the same reads through the windowed stream API.
	stream := l.streamPasses(al, ref)
	l.m["core.stream_rps"] = float64(b.n) / stream.Seconds()
	if b.w.served {
		l.m["serve.overhead_us_per_read"] = (untraced - stream).Seconds() * 1e6 / float64(b.n)
	}

	// Phase 4: one layer at a time.
	sx := l.seedLayer(al.Index())
	l.extendLayer()
	if b.w.readLen == 0 {
		l.chainLayer(al.Index())
	}
	if b.w.served {
		l.dnaLayer()
		l.indexioLayer(sx)
	}
	return l.m, l.tracer.spans, nil
}

// counterPass is one untraced pass bracketed by getrusage and MemStats,
// and for the server by its own counters and per-request latencies. On the
// served workload the process figures include the in-process callers.
func (l *layerRun) counterPass(t target, ref []outcome) []time.Duration {
	b := l.bench
	st, served := t.(*serveTarget)
	var g0 serve.GenomeStats
	if served {
		st.lat = make([]time.Duration, b.n)
		g0 = st.srv.Snapshot().Genomes[0]
	}
	out := make([]outcome, b.n)
	row := make([]time.Duration, b.slices())
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	bad := t.pass(b, out, row, -1)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	b.attempted += b.n
	b.failed += bad + mismatches(out, ref)

	n := float64(b.n)
	l.m["core.cpu_us_per_read"] = cpu.Seconds() * 1e6 / n
	l.m["core.allocs_per_read"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	l.m["core.alloc_bytes_per_read"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	l.m["core.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if served {
		g := st.srv.Snapshot().Genomes[0]
		batches := float64(g.Batches - g0.Batches)
		l.m["serve.batches"] = batches
		l.m["serve.mean_batch"] = float64(g.BatchedReads-g0.BatchedReads) / batches
		l.m["serve.window_share"] = batches * serve.DefaultCoalesceWindow.Seconds() / wall.Seconds()
		l.m["serve.rejected_frac"] = float64(g.Rejected-g0.Rejected) / n
		lat := make([]float64, len(st.lat))
		for i, d := range st.lat {
			lat[i] = float64(d) / 1e6
		}
		st.lat = nil
		l.m["serve.closed_p50_ms"] = percentile(lat, 50)
		l.m["serve.closed_p99_ms"] = percentile(lat, 99)
	}
	return row
}

// tracedTarget is the plain target's twin with the instrument attached. The
// offline one reuses the index already built, which is also what core.new_s
// times: core.New minus the index build.
func (l *layerRun) tracedTarget(al *core.Aligner, inst *core.Instrument) (target, error) {
	cfg := l.w.config()
	cfg.Index = al.Index()
	cfg.Instrument = inst
	var twin *core.Aligner
	var err error
	l.m["core.new_s"] = l.bestOf("core.New", func() {
		twin, err = core.New(al.Ref(), cfg)
	}).Seconds()
	if err != nil {
		return nil, err
	}
	if l.w.served {
		t, _, err := l.setupServer(inst)
		return t, err
	}
	return &coreTarget{al: twin}, nil
}

// stageBusy reads the instrument's busy clocks: seed, filter, extend.
func stageBusy(i *core.Instrument) [3]int64 {
	return [3]int64{i.Seed.BusyNanos.Load(), i.Filter.BusyNanos.Load(), i.Extend.BusyNanos.Load()}
}

// tracedPasses runs the traced bulk passes, charging each stage its
// least-busy visit, and returns the work counters of the passes (zero for
// the server, which keeps its own).
func (l *layerRun) tracedPasses(t target, inst *core.Instrument, ref *[]outcome, untraced time.Duration) core.Stats {
	b := l.bench
	seedLanes, extendLanes := pipeline.SplitLanes(lanes)
	workers := float64(seedLanes + 2*extendLanes) // the filter pool is sized like the extend pool
	var times [][]time.Duration
	var busy [3][]float64
	util := 0.0
	for r := 0; r < tracePasses; r++ {
		s0 := stageBusy(inst)
		t0 := time.Now()
		times = append(times, b.onePass(t, ref, r))
		wall := time.Since(t0)
		total := 0.0
		for i, s1 := range stageBusy(inst) {
			d := float64(s1 - s0[i])
			busy[i] = append(busy[i], d)
			total += d
		}
		util = max(util, total/(float64(wall)*workers))
	}
	n := float64(b.n)
	sd, fl, ex := slices.Min(busy[0]), slices.Min(busy[1]), slices.Min(busy[2])
	l.m["pipeline.seed_busy_us_per_read"] = sd / 1e3 / n
	l.m["pipeline.filter_busy_us_per_read"] = fl / 1e3 / n
	l.m["pipeline.extend_busy_us_per_read"] = ex / 1e3 / n
	l.m["pipeline.extend_busy_share"] = ex / (sd + fl + ex)
	l.m["pipeline.seed_out_queue_avg"] = inst.Seed.AvgQueue()
	l.m["pipeline.filter_out_queue_avg"] = inst.Filter.AvgQueue()
	l.m["pipeline.lane_util"] = util
	l.m["core.trace_overhead_frac"] = float64(bestOfVisits(times)-untraced) / float64(untraced)
	if ct, ok := t.(*coreTarget); ok {
		return ct.stats
	}
	return core.Stats{}
}

// counts turns the work counters of whole passes into per-read figures;
// they are exact and must repeat run to run.
func (l *layerRun) counts(st core.Stats) {
	n := float64(st.Reads)
	l.m["seed.index_lookups_per_read"] = float64(st.IndexLookups) / n
	l.m["seed.cam_lookups_per_read"] = float64(st.CAMLookups) / n
	l.m["seed.seeds_per_read"] = float64(st.SeedsEmitted) / n
	l.m["seed.hits_per_read"] = float64(st.HitsEmitted) / n
	l.m["seed.exact_read_frac"] = float64(st.ExactReads) / n
	l.m["extend.extensions_per_read"] = float64(st.Extensions) / n
	l.m["extend.reruns_per_read"] = float64(st.ReRuns) / n
	l.m["chain.anchors_per_read"] = float64(st.ChainAnchors) / n
	if l.w.readLen == 0 {
		l.m["chain.kept_frac"] = float64(st.ChainKept) / float64(max(st.ChainAnchors, 1))
	}
}

// streamPasses times the bulk list through AlignStream, slice s ending
// when its last result is emitted; best-of-visits like the bulk path.
func (l *layerRun) streamPasses(al *core.Aligner, ref []outcome) time.Duration {
	b := l.bench
	per := b.w.sliceReads
	seqs := b.in.seqs[:b.n]
	var times [][]time.Duration
	res := make([]core.ReadResult, 0, b.n)
	for r := 0; r < tracePasses; r++ {
		runtime.GC()
		// Sized to the whole list: the producer is not what is measured.
		in := make(chan dna.Seq, len(seqs))
		for _, s := range seqs {
			in <- s
		}
		close(in)
		row := make([]time.Duration, 0, b.slices())
		res = res[:0]
		id := l.tracer.begin(-1, "core.AlignStream", r)
		last := time.Now()
		out, _ := al.AlignStream(context.Background(), in)
		for rr := range out {
			res = append(res, rr)
			if len(res)%per == 0 {
				now := time.Now()
				row = append(row, now.Sub(last))
				last = now
			}
		}
		l.tracer.end(id)
		times = append(times, row)
		b.attempted += b.n
		for i, rr := range res {
			if toOutcome(rr) != ref[i] {
				b.failed++
			}
		}
	}
	return bestOfVisits(times)
}

// seedLayer times the index build and the seeder alone. The seeding
// sample is up to 2000 reads of the full list, both strands against every
// segment, which is what one read costs the seed stage.
func (l *layerRun) seedLayer(idx *seed.SegmentedIndex) *seed.SegmentedIndex {
	b := l.bench
	cfg := b.w.config()
	var built *seed.SegmentedIndex
	var err error
	l.m["seed.index_build_s"] = l.bestOf("seed.BuildSegmentedIndex", func() {
		built, err = seed.BuildSegmentedIndex(b.in.ref, cfg.SegmentLen, cfg.Overlap, cfg.KmerLen)
	}).Seconds()
	if err != nil {
		b.violate("index build: %v", err)
		return nil
	}
	bytes := 0
	for _, si := range built.Samples {
		bytes += si.IndexTableBytes() + si.PositionTableBytes()
	}
	l.m["seed.index_mib"] = float64(bytes) / (1 << 20)

	sample := b.in.seqs[:min(2000, len(b.in.seqs))]
	revs := make([]dna.Seq, len(sample))
	for i, s := range sample {
		revs[i] = s.RevComp()
	}
	sd := seed.NewSeeder(idx.Samples[0], cfg.Seeding)
	d := l.bestOf("seed.Seeder.Seed", func() {
		for _, si := range idx.Samples {
			sd.Reset(si)
			for i := range sample {
				sd.Seed(sample[i])
				sd.Seed(revs[i])
			}
		}
	})
	l.m["seed.seed_us_per_read"] = d.Seconds() * 1e6 / float64(len(sample))
	return built
}

// extendLayer times the default engine's Extend alone: each read of the
// traced list against the reference window at its true locus, anchored at
// the read's first base. K decides which datapath that is.
func (l *layerRun) extendLayer() {
	b := l.bench
	cfg := b.w.config()
	eng := extend.BitSillaEngine{M: bitsilla.New(cfg.K, cfg.Scoring)}
	reads := b.in.reads[:min(b.n, 300)]
	type call struct{ ref, query dna.Seq }
	calls := make([]call, 0, len(reads))
	for _, rd := range reads {
		q := rd.Seq
		if rd.Reverse {
			q = q.RevComp()
		}
		lo := max(rd.TruePos, 0)
		hi := min(lo+len(q)+cfg.K, len(b.in.ref))
		calls = append(calls, call{b.in.ref[lo:hi], q})
	}
	cycles := 0
	d := l.bestOf("extend.Engine.Extend", func() {
		cycles = 0
		for _, c := range calls {
			cycles += eng.Extend(c.ref, c.query).Cycles
		}
	})
	name := "extend.narrow_us_per_call"
	if cfg.K > bitsilla.MaxWordK {
		name = "extend.wide_us_per_call"
	}
	l.m[name] = d.Seconds() * 1e6 / float64(len(calls))
	l.m["extend.cycles_per_call"] = float64(cycles) / float64(len(calls))
}

// chainLayer times the chainer alone on the anchor groups the filter
// stage would hand it: per (read, strand, segment), the seeder's hits
// deduplicated by diagonal, groups of two or more.
func (l *layerRun) chainLayer(idx *seed.SegmentedIndex) {
	b := l.bench
	cfg := b.w.config()
	var groups [][]chain.Anchor
	sd := seed.NewSeeder(idx.Samples[0], cfg.Seeding)
	for _, si := range idx.Samples {
		sd.Reset(si)
		for _, s := range b.in.seqs[:b.n] {
			for _, q := range []dna.Seq{s, s.RevComp()} {
				var g []chain.Anchor
				seen := map[int32]bool{}
				for _, sdd := range sd.Seed(q) {
					for _, h := range sdd.Positions {
						if diag := h - int32(sdd.Start); !seen[diag] {
							seen[diag] = true
							g = append(g, chain.Anchor{Q0: int32(sdd.Start), Q1: int32(sdd.End), R: h})
						}
					}
				}
				if len(g) >= 2 {
					groups = append(groups, g)
				}
			}
		}
	}
	if len(groups) == 0 {
		b.violate("no long read produced an anchor group to chain")
		return
	}
	var c chain.Chainer
	d := l.bestOf("chain.Chainer.Collapse", func() {
		for _, g := range groups {
			c.Reset()
			for _, a := range g {
				c.Add(a.Q0, a.Q1, a.R)
			}
			c.Collapse(int32(cfg.K))
		}
	})
	l.m["chain.collapse_us_per_group"] = d.Seconds() * 1e6 / float64(len(groups))
}

// openLoop offers the server a fixed 1000 requests a second regardless of
// how fast it answers. Each request is timed from when it was due, so a
// stall charges the requests queued behind it; lateness is how far behind
// schedule the generator itself sent.
func (l *layerRun) openLoop(t *serveTarget, dur time.Duration, ref []outcome) {
	b := l.bench
	const rate = 1000
	n := int(dur.Seconds() * rate)
	lat, late := make([]float64, n), make([]float64, n)
	codes, bodies := make([]int, n), make([][]byte, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * time.Second / rate)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			codes[i], bodies[i] = t.post(b, i%b.n)
			lat[i] = float64(time.Since(due)) / 1e6
			late[i] = float64(sent.Sub(due)) / 1e6
		}()
	}
	wg.Wait()
	b.attempted += n
	for i := range codes {
		if o, ok := decode(codes[i], bodies[i]); !ok || o != ref[i%b.n] {
			b.failed++
		}
	}
	l.m["serve.open_p50_ms"] = percentile(lat, 50)
	l.m["serve.open_p99_ms"] = percentile(lat, 99)
	l.m["serve.open_late_p99_ms"] = percentile(late, 99)
}

// dnaLayer times what the server does with text: the reference FASTA at
// start-up and one ParseSeq per request body.
func (l *layerRun) dnaLayer() {
	b := l.bench
	l.m["dna.read_fasta_s"] = l.bestOf("dna.ReadFasta", func() {
		f, err := os.Open(b.srv.fasta)
		if err != nil {
			b.violate("open reference: %v", err)
			return
		}
		defer f.Close()
		if _, err := dna.ReadFasta(f, dna.FastaOptions{}); err != nil {
			b.violate("read reference: %v", err)
		}
	}).Seconds()
	bodies := b.srv.bodies[:b.n]
	bases := 0
	for _, s := range bodies {
		bases += len(s)
	}
	d := l.bestOf("dna.ParseSeq", func() {
		for _, s := range bodies {
			if _, err := dna.ParseSeq(s); err != nil {
				b.violate("parse body: %v", err)
			}
		}
	})
	l.m["dna.parse_seq_ns_per_base"] = float64(d) / float64(bases)
}

// indexioLayer times each step of the cache's life against the file the
// server uses, and a fresh write of the same index beside it.
func (l *layerRun) indexioLayer(sx *seed.SegmentedIndex) {
	b := l.bench
	cfg := b.w.config()
	fail := func(what string, err error) {
		if err != nil {
			b.violate("indexio %s: %v", what, err)
		}
	}
	path, err := indexio.CachePath(b.srv.dir, b.in.ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
	fail("cache path", err)
	if fi, err := os.Stat(path); err == nil {
		l.m["indexio.file_mib"] = float64(fi.Size()) / (1 << 20)
	}
	l.m["indexio.probe_s"] = l.bestOf("indexio.Probe", func() {
		if reason := indexio.Probe(path, b.in.ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap); reason != "" {
			fail("probe", fmt.Errorf("%s", reason))
		}
	}).Seconds()
	l.m["indexio.open_mapped_s"] = l.bestOf("indexio.OpenMapped", func() {
		m, err := indexio.OpenMapped(path)
		fail("open mapped", err)
		if err == nil {
			fail("close", m.Close()) // nothing was touched, so the unmap is free
		}
	}).Seconds()
	if m, err := indexio.OpenMapped(path); err == nil {
		l.m["indexio.verify_s"] = l.bestOf("indexio.Mapped.Verify", func() { fail("verify", m.Verify()) }).Seconds()
		fail("close", m.Close())
	}
	if sx != nil {
		tmp := filepath.Join(b.srv.dir, "rewrite.gaxi")
		l.m["indexio.write_s"] = l.bestOf("indexio.WriteFileShards", func() {
			fail("write", indexio.WriteFileShards(tmp, sx, b.in.ref, indexio.GroupSizeForShards(sx.NumSegments(), 0)))
		}).Seconds()
		fail("remove the rewritten cache", os.Remove(tmp))
	}
}
