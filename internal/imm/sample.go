package imm

import (
	"sort"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/par"
	"influmax/internal/rng"
	"influmax/internal/rrr"
)

// minDynamicChunk is the chunk-size floor handed to par.Dynamic: small
// enough that the tail of a skewed batch can be re-balanced at per-sample
// granularity is unnecessary — a handful of samples amortizes the CAS per
// chunk while still splitting hub-heavy stragglers finely.
const minDynamicChunk = 8

// BatchSampler owns the per-run sampling machinery of Algorithm 3: one
// reverse-traversal sampler, pseudorandom generator and output arena per
// worker, reused across batches so steady-state sampling performs zero
// per-sample allocations. In LeapFrog RNG mode every worker holds a
// persistent substream of one global LCG sequence (the paper's TRNG
// discipline); in PerSample mode each sample's stream is re-derived in
// place from its global index, making the collection independent of both
// the worker count and the schedule. Options.RNG picks the engine: the
// fused kernel under work-stealing for PerSample, the scalar kernel on the
// static split for LeapFrog.
//
// It is exported for the distributed ranks (internal/dist), which sample
// disjoint global index ranges into rank-local collections via SampleAt.
// A dense draw skips the lists altogether: sampleMatrix keeps the fused
// kernel's lane words as a bit matrix (DESIGN.md §13.6).
// A BatchSampler is not safe for concurrent use.
type BatchSampler struct {
	g      *graph.Graph
	opt    Options
	nextID uint64 // global index of the next sample Sample generates

	streams  []*rng.Rand // worker-pinned substreams (nil in PerSample mode)
	samplers []*diffuse.Sampler
	fused    []*diffuse.FusedSampler // per-worker fused kernels (PerSample mode)
	gens     []*rng.SplitMix64       // pooled per-sample generators (PerSample mode)
	rands    []*rng.Rand             // pooled wrappers over gens
	arenas   []batchArena
	merge    []chunkRec // scratch for the deterministic chunk merge

	naiveBuf []graph.Vertex // scratch for the sequential baseline path

	// fusedTotals accumulates the fused kernel's work counters across all
	// Sample calls (all workers; zero when the scalar kernel ran); see
	// diffuse.FusedStats.
	fusedTotals diffuse.FusedStats

	// Work accumulates, per worker, the number of RRR-set entries it
	// generated: the sampling-load balance across workers bounds the
	// strong-scaling efficiency of the sampling phase.
	Work []int64

	// steals and chunks count the work-stealing operations (zero under the
	// static split) and the scheduler chunks executed so far. Scheduling
	// telemetry — not deterministic.
	steals, chunks int64

	// Instrumentation resolved once from Options.Metrics (all nil when
	// metrics are disabled, keeping the hot path branch-and-go).
	mSamples   *metrics.Counter
	mEntries   *metrics.Counter
	mSize      *metrics.Histogram
	mSteals    *metrics.Counter
	mChunks    *metrics.Counter
	mPasses    *metrics.Counter
	mCoins     *metrics.Counter
	mOccupancy *metrics.Gauge
}

// batchArena buffers one worker's freshly generated chunks before the
// deterministic global-index-order merge. Its slices keep their capacity
// across batches (reset to length zero, never reallocated once warm).
type batchArena struct {
	verts   []graph.Vertex
	offsets []int64
	recs    []chunkRec
	sizes   []int32 // fused-kernel scratch: per-sample cardinalities
}

// chunkRec locates one executed chunk's output inside a worker's arena.
// lo, the chunk's first global index within the batch, is the merge key
// that makes the appended collection independent of which worker ran the
// chunk and in what order.
type chunkRec struct {
	lo     int
	worker int
	v0, v1 int // verts span within the worker's arena
	o0, o1 int // offsets span within the worker's arena
}

// NewBatchSampler prepares sampling over g. opt must have its defaults
// resolved (Workers > 0); Run and RunCollect do this, external callers
// like internal/dist resolve their own.
func NewBatchSampler(g *graph.Graph, opt Options) *BatchSampler {
	b := &BatchSampler{
		g:        g,
		opt:      opt,
		samplers: make([]*diffuse.Sampler, opt.Workers),
		gens:     make([]*rng.SplitMix64, opt.Workers),
		rands:    make([]*rng.Rand, opt.Workers),
		arenas:   make([]batchArena, opt.Workers),
		Work:     make([]int64, opt.Workers),
	}
	for w := range b.samplers {
		b.samplers[w] = diffuse.NewSampler(g, opt.Model)
		b.gens[w] = rng.NewSplitMix64(0) // re-pointed per sample via Reseed
		b.rands[w] = rng.New(b.gens[w])
	}
	if opt.fused() {
		// The read-only coin-threshold tables are built once and shared by
		// every worker's sampler — they scale with the edge count, where
		// the per-worker scratch scales with the vertex count.
		shared := diffuse.NewFusedShared(g, opt.Model)
		b.fused = make([]*diffuse.FusedSampler, opt.Workers)
		for w := range b.fused {
			b.fused[w] = diffuse.NewFusedSamplerShared(g, opt.Model, shared)
		}
	}
	if opt.RNG == LeapFrog {
		base := rng.NewLCG(opt.Seed)
		b.streams = make([]*rng.Rand, opt.Workers)
		for w := range b.streams {
			b.streams[w] = rng.New(base.LeapFrog(w, opt.Workers))
		}
	}
	if opt.Metrics != nil {
		b.mSamples = opt.Metrics.Counter("rrr/samples")
		b.mEntries = opt.Metrics.Counter("rrr/entries")
		b.mSize = opt.Metrics.Histogram("rrr/size")
		b.mSteals = opt.Metrics.Counter("par/steals")
		b.mChunks = opt.Metrics.Counter("par/chunks")
		if b.fused != nil {
			b.mPasses = opt.Metrics.Counter("rrr/frontier-passes")
			b.mCoins = opt.Metrics.Counter("rrr/coins-generated")
			b.mOccupancy = opt.Metrics.Gauge("rrr/batch-occupancy")
		}
	}
	return b
}

// SetStreams replaces the worker-pinned streams (the distributed LeapFrog
// discipline, where worker t of rank r holds substream r*threads+t of
// size*threads). Pinned streams force the static schedule: which worker
// executes a sample then decides its randomness.
func (b *BatchSampler) SetStreams(streams []*rng.Rand) {
	if len(streams) != b.opt.Workers {
		panic("imm: SetStreams length != Workers")
	}
	b.streams = streams
}

// WorkBalance returns avg/max of per-worker sampling work (1.0 = perfect
// balance), or 0 if no work was recorded.
func (b *BatchSampler) WorkBalance() float64 { return metrics.WorkBalanceOf(b.Work) }

// Sample generates count new RRR sets in parallel (Algorithm 3) and
// appends them to col, assigning the next count global sample indexes.
func (b *BatchSampler) Sample(col *rrr.Collection, count int) {
	if count <= 0 {
		return
	}
	b.SampleAt(col, b.nextID, count)
	b.nextID += uint64(count)
}

// SampleAt generates count RRR sets whose global indexes are
// [base, base+count) and appends them to col in index order. Roots are
// drawn uniformly at random. In PerSample mode the appended layout is a
// pure function of (seed, base, count) — independent of worker count and
// kernel; in LeapFrog mode it depends on the worker count (as in the
// paper) and base is ignored.
func (b *BatchSampler) SampleAt(col *rrr.Collection, base uint64, count int) {
	if count <= 0 {
		return
	}
	n := b.g.NumVertices()
	p := b.opt.Workers
	if p > count {
		p = count
	}
	for w := 0; w < p; w++ {
		a := &b.arenas[w]
		a.verts = a.verts[:0]
		a.offsets = a.offsets[:0]
		a.recs = a.recs[:0]
	}

	pinned := b.streams != nil
	useFused := b.fused != nil && !pinned
	run := func(rank, lo, hi int) {
		a := &b.arenas[rank]
		v0, o0 := len(a.verts), len(a.offsets)
		a.offsets = append(a.offsets, 0)
		if useFused {
			// Fused CSR frontier kernel: the chunk's samples expand in
			// batches of up to diffuse.MaxLanes per pass; the appended
			// layout is byte-identical to the scalar loop below.
			a.sizes = a.sizes[:0]
			a.verts, a.sizes = b.fused[rank].Generate(b.opt.Seed, base+uint64(lo), hi-lo, a.verts, a.sizes)
			off := int64(0)
			for _, sz := range a.sizes {
				off += int64(sz)
				a.offsets = append(a.offsets, off)
			}
		} else {
			sampler := b.samplers[rank]
			stream := b.rands[rank]
			if pinned {
				stream = b.streams[rank]
			}
			gen := b.gens[rank]
			for i := lo; i < hi; i++ {
				if !pinned {
					gen.Reseed(b.opt.Seed, base+uint64(i))
				}
				root := graph.Vertex(stream.Intn(n))
				a.verts = sampler.GenerateRR(stream, root, a.verts)
				a.offsets = append(a.offsets, int64(len(a.verts)-v0))
			}
		}
		a.recs = append(a.recs, chunkRec{lo: lo, worker: rank, v0: v0, v1: len(a.verts), o0: o0, o1: len(a.offsets)})
		b.Work[rank] += int64(len(a.verts) - v0)
	}

	b.schedule(count, p, minDynamicChunk, run)

	// Deterministic merge: append every chunk in global-index order. Chunk
	// boundaries always tile [0, count) contiguously, so sorting records by
	// lo reconstructs the exact layout a sequential pass would have written,
	// regardless of which worker ran which chunk or when.
	first := col.Count()
	b.merge = b.merge[:0]
	var entries int64
	for w := 0; w < p; w++ {
		b.merge = append(b.merge, b.arenas[w].recs...)
		entries += int64(len(b.arenas[w].verts))
	}
	sort.Slice(b.merge, func(i, j int) bool { return b.merge[i].lo < b.merge[j].lo })
	col.Reserve(count, entries)
	for _, r := range b.merge {
		a := &b.arenas[r.worker]
		col.AppendArena(a.verts[r.v0:r.v1], a.offsets[r.o0:r.o1])
	}
	if useFused {
		b.recordFused(p)
	}
	b.recordRange(col, first)
}

// sampleMatrix generates count new RRR sets, the next count global sample
// indexes, straight into the bit matrix m as the fused kernel's lane
// words (diffuse.FusedSampler.GenerateBlock): no list, arena or merge
// exists. m must hold exactly the samples drawn so far. The scheduler
// hands out whole 64-id blocks, so every block is written by one worker
// and no atomics are needed; a call that starts mid-block ORs its lanes
// in at that block's shift. Every word is a pure function of (seed, id),
// so m does not depend on the worker count or the schedule. It needs the
// fused kernel (PerSample RNG).
func (b *BatchSampler) sampleMatrix(m *rrr.Matrix, count int) {
	if count <= 0 {
		return
	}
	if b.fused == nil || b.streams != nil || uint64(m.Count()) != b.nextID {
		panic("imm: sampleMatrix needs the fused kernel and a matrix of every sample drawn so far")
	}
	base := b.nextID
	end := base + uint64(count)
	sizes := m.Grow(count)
	first := int(base >> 6)
	blocks := int((end-1)>>6) - first + 1
	p := min(b.opt.Workers, blocks)
	run := func(rank, lo, hi int) {
		for blk := first + lo; blk < first+hi; blk++ {
			idLo := max(base, uint64(blk)<<6)
			idHi := min(end, uint64(blk+1)<<6)
			sz := sizes[idLo-base : idHi-base]
			b.fused[rank].GenerateBlock(b.opt.Seed, idLo, int(idHi-idLo), uint(idLo&63), m.Row(blk), sz)
			for _, s := range sz {
				b.Work[rank] += int64(s)
			}
		}
	}
	b.schedule(blocks, p, 1, run)
	b.nextID = end
	b.recordFused(p)
	b.recordSizes(sizes)
}

// schedule runs fn over [0, count) with p <= count workers: under
// work-stealing with chunks of at least chunk items, or on the static
// split when one worker runs, the options force it or pinned streams
// (LeapFrog) make randomness a function of the executing worker, which
// only the static split keeps well-defined. It adds the chunk and steal
// counts to the totals and the metrics.
func (b *BatchSampler) schedule(count, p, chunk int, fn func(rank, lo, hi int)) {
	st := par.StealStats{Chunks: int64(p)} // the static split runs fn once per worker
	if b.streams == nil && !b.opt.static && p > 1 {
		st = par.DynamicSteal(count, p, chunk, fn)
	} else {
		par.ForEach(count, p, fn)
	}
	b.steals += st.Steals
	b.chunks += st.Chunks
	if b.mChunks != nil {
		b.mSteals.Add(st.Steals)
		b.mChunks.Add(st.Chunks)
	}
}

// Release drops every worker's arena, each a copy of the entries the last
// batch merged into its collection. A sampler that grows one collection
// batch by batch calls it after each batch, so the copy is not resident
// beside the index built next; the next batch regrows the arenas. Without
// it, steady-state batches reuse the arenas and allocate nothing per
// sample.
func (b *BatchSampler) Release() {
	clear(b.arenas)
}

// recordFused drains the per-worker fused-kernel counters into the
// cumulative totals and the optional metrics registry. Pass and batch
// counts depend on chunk boundaries (schedule telemetry, like steal
// counts); coin and occupancy aggregates are near-schedule-independent.
func (b *BatchSampler) recordFused(p int) {
	var delta diffuse.FusedStats
	for w := 0; w < p; w++ {
		delta.Add(b.fused[w].TakeStats())
	}
	b.fusedTotals.Add(delta)
	if b.mPasses != nil {
		b.mPasses.Add(delta.Passes)
		b.mCoins.Add(delta.Coins)
		// Permille, because gauges are integers: 1000 = every lane of
		// every pass held a live frontier.
		b.mOccupancy.Set(int64(b.fusedTotals.Occupancy() * 1000))
	}
}

// recordRange feeds the samples col gained since count was first into the
// optional metrics registry: sample and entry counters plus the
// RRR-set-size histogram. Iterating the merged collection (not the
// arenas) keeps the observation order schedule-independent.
func (b *BatchSampler) recordRange(col *rrr.Collection, first int) {
	if b.mSize == nil {
		return
	}
	b.mSamples.Add(int64(col.Count() - first))
	var entries int64
	for i := first; i < col.Count(); i++ {
		sz := int64(len(col.Sample(i)))
		entries += sz
		b.mSize.Observe(sz)
	}
	b.mEntries.Add(entries)
}

// recordSizes is recordRange for samples whose cardinalities are sizes,
// in id order.
func (b *BatchSampler) recordSizes(sizes []int32) {
	if b.mSize == nil {
		return
	}
	b.mSamples.Add(int64(len(sizes)))
	var entries int64
	for _, sz := range sizes {
		entries += int64(sz)
		b.mSize.Observe(int64(sz))
	}
	b.mEntries.Add(entries)
}

// sampleNaive is the sequential sampling path of the Tang-style baseline:
// one thread, one stream, bidirectional store.
func (b *BatchSampler) sampleNaive(store *rrr.NaiveStore, count int) {
	if count <= 0 {
		return
	}
	n := b.g.NumVertices()
	sampler := b.samplers[0]
	for i := 0; i < count; i++ {
		stream := b.rands[0]
		if b.streams != nil {
			stream = b.streams[0]
		} else {
			b.gens[0].Reseed(b.opt.Seed, b.nextID+uint64(i))
		}
		root := graph.Vertex(stream.Intn(n))
		b.naiveBuf = sampler.GenerateRR(stream, root, b.naiveBuf[:0])
		store.Append(b.naiveBuf)
		if b.mSize != nil {
			b.mSamples.Inc()
			b.mEntries.Add(int64(len(b.naiveBuf)))
			b.mSize.Observe(int64(len(b.naiveBuf)))
		}
	}
	b.nextID += uint64(count)
}
