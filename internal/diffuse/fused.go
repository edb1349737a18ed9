package diffuse

import (
	"math"
	"math/bits"

	"influmax/internal/graph"
	"influmax/internal/rng"
	"influmax/internal/rrr"
)

// MaxLanes is the fused kernel's batch width: the number of samples one
// batch expands together. 64 lanes pack one visited bit per lane into a
// single rrr.Bitset word per vertex, so the whole batch drains — sorted,
// deduplicated per lane — in one ascending walk over the touched words.
const MaxLanes = 64

// coinBlock is the starting size of the IC kernel's gather and coin
// buffers; each grows to the longest in-list it has scanned (see
// expandLane and scanGeneral).
const coinBlock = 64

// FusedSampler generates random reverse reachable sets with the fused CSR
// frontier kernel. A batch of up to MaxLanes samples shares one packed
// visited bitset (word v = the lane mask of vertex v), one L1-resident
// byte visited map reused lane after lane, and one sorted drain pass over
// the touched words; each lane's coins are Mix64 finalizations of a pure
// counter state, drawn inline (or, on IC's general path, in one exact-size
// block per scan) instead of one dispatched generator call per edge. See
// DESIGN.md §14 for the full cost model.
//
// The kernel is byte-identical to the scalar Sampler in per-sample RNG
// mode: lane b of a batch holding global sample id i consumes the exact
// stream rng.Derive(seed, i), in the exact order the scalar kernel
// would. Lanes are mutually independent (no coin crosses lanes), which
// frees the scheduler to expand them in any interleaving; the IC kernel
// drains each lane's BFS queue to exhaustion before the next so the byte
// map stays hot. It therefore only supports per-sample stream
// derivation — worker-pinned (leap-frog) streams interleave all samples
// of a worker on one sequence, which a batched expansion cannot
// reproduce; callers fall back to the scalar kernel there.
//
// A FusedSampler owns per-batch scratch and is NOT safe for concurrent
// use — create one per worker goroutine.
type FusedSampler struct {
	g     *graph.Graph
	model Model

	// visited holds MaxLanes visited bits per vertex: word v is the lane
	// mask of vertex v (bit b set = lane b has added v to its sample).
	// The packed words turn the batch drain into one ascending walk that
	// emits every lane already sorted — where the scalar kernel pays a
	// sort per sample — and make clearing O(touched words).
	visited rrr.Bitset

	// vbyte is the expanding lane's visited map, one byte per vertex (IC
	// only). At one byte instead of one 64-lane word per vertex it stays
	// L1-resident at working scales, so the per-edge visited test — the
	// kernel's most frequent random access — hits L1 instead of L2. Fires
	// update both views; vbyte is cleared by walking the lane's queue when
	// the lane finishes.
	vbyte []uint8

	// dirty summarizes the packed bitset for the drain: bit v&63 of word
	// v/64 is set iff visited[v] != 0. Fires are rare next to visited
	// tests, so maintaining the summary costs one OR on the fire path and
	// saves the drain from reading n words per batch (it reads n/64 plus
	// the touched ones).
	dirty []uint64

	// shared holds the read-only tables all workers' samplers can reuse
	// (the IC coin thresholds, the LT pick classes).
	shared *FusedShared

	stream [MaxLanes]uint64 // lane b's sample id (stream index) this batch

	// Per-lane SplitMix64 states and IC coin buffers. The IC kernel draws
	// each scan's coins inline in the decide loop (uniform thresholds) or
	// as one exact-size block into coinBits (general path, after the
	// gather phase has packed vertex+threshold words into gather); the LT
	// kernel draws one float64 inline per walk step. Only IC allocates
	// the buffers.
	state    [MaxLanes]uint64
	gather   []uint64
	gatherU  []graph.Vertex
	coinBits []uint32

	// queue[b] is lane b's sample in discovery order: under IC its BFS
	// FIFO, the root plus every fired vertex (consuming it in order
	// reproduces the scalar reverseBFS coin order exactly); under LT its
	// walk.
	queue [MaxLanes][]graph.Vertex

	// outs collects each lane's sorted sample members for the drain.
	outs [MaxLanes][]graph.Vertex

	// frontier/next are the LT walk lists: one entry per lane still
	// walking.
	frontier, next []laneVertex

	stats FusedStats
}

// laneVertex is one LT walk slot: the vertex lane's reverse walk sits on.
type laneVertex struct {
	v    graph.Vertex
	lane uint32
}

// FusedStats counts the kernel's work since the last TakeStats call. The
// counters are aggregates over finished batches; under a work-stealing
// schedule the batch boundaries may vary run to run, like steal counts —
// telemetry, not part of the deterministic output.
type FusedStats struct {
	// Batches is the number of fused batches executed.
	Batches int64
	// Passes is the total number of frontier expansions (BFS levels per
	// lane for IC, walk rounds for LT) across all batches.
	Passes int64
	// Coins is the number of pseudorandom coins generated: edge draws
	// (one per LT walk step) plus one root draw per sample.
	Coins int64
	// LaneSlots is Batches times the full batch width MaxLanes, and
	// ActiveLanes the slots that carried a sample; ActiveLanes/LaneSlots
	// is the batch occupancy — how full the fused batches actually ran
	// (partial tail batches and B > theta drag it down).
	LaneSlots   int64
	ActiveLanes int64
}

// Occupancy returns the mean fraction of lane slots that carried a sample
// per batch (0 when no batches ran).
func (s FusedStats) Occupancy() float64 {
	if s.LaneSlots == 0 {
		return 0
	}
	return float64(s.ActiveLanes) / float64(s.LaneSlots)
}

// Add accumulates other into s.
func (s *FusedStats) Add(other FusedStats) {
	s.Batches += other.Batches
	s.Passes += other.Passes
	s.Coins += other.Coins
	s.LaneSlots += other.LaneSlots
	s.ActiveLanes += other.ActiveLanes
}

// FusedShared holds the read-only tables fused samplers over the same
// graph share: build it once and hand it to one NewFusedSamplerShared per
// worker so the per-edge thresholds exist once per run, not once per
// worker.
type FusedShared struct {
	// thresh maps each in-CSR edge slot to its integer coin threshold: the
	// edge fires iff the coin's top-24-bit integer k satisfies
	// k < thresh[slot], which decides exactly like the scalar kernel's
	// float32(k)*2^-24 < w (see icThreshold). Empty for LT.
	thresh []uint32
	// uniform[v] classifies v's in-edge scan. When all in-edges share one
	// threshold t (both of the paper's standard IC weightings are uniform
	// per list: constant p trivially, weighted cascade because every
	// in-edge of v carries 1/indeg(v)) the whole scan compares against one
	// register: uniform[v] = t if the list is also free of parallel
	// duplicate sources (every unvisited neighbor then consumes a coin
	// unconditionally), or t|dupMark if duplicates are present (the scan
	// re-tests visited before each draw, which handles duplicates exactly
	// as the scalar kernel does). nonUniform marks distinct per-edge
	// thresholds, routed to the general path.
	uniform []uint32
	// ltUniform[v] marks an LT in-list of d copies of one weight, where a
	// walk step picks its edge in O(1) (see uniformLT). Empty for IC.
	ltUniform []bool
}

// dupMark flags a uniform-threshold vertex whose in-list contains parallel
// duplicate sources; real thresholds are at most 2^24, leaving the bit
// free. nonUniform (all ones, dupMark included) marks per-edge thresholds.
const (
	dupMark    = uint32(1) << 30
	nonUniform = ^uint32(0)
)

// pow2AtLeast returns the smallest power of two >= max(n, 1).
func pow2AtLeast(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// icThreshold converts an IC edge weight into the integer coin threshold
// equivalent to the scalar comparison. The scalar kernel keeps an edge of
// weight w when Float32() < w with Float32() = float32(k) * 2^-24 for the
// coin's top 24 bits k — both sides exact, so c < w iff k < w*2^24 iff
// k < ceil(w*2^24) over integers. float64(w)*2^24 is exact for any
// float32 w, making the ceiling exact too; clamping to [0, 2^24] covers
// w <= 0 (never fires, as c >= 0) and w >= 1 (always fires, as c < 1).
func icThreshold(w float32) uint32 {
	t := math.Ceil(float64(w) * (1 << 24))
	if !(t > 0) { // also catches NaN: scalar c < NaN is false
		return 0
	}
	if t > 1<<24 {
		return 1 << 24
	}
	return uint32(t)
}

// uniformLT reports whether an LT in-list may take pickUniform: d > 0
// copies, d < 2^29, of one finite weight w > 0. The scalar walk's running
// float64 sum over such a list is exact — w has a 24-bit significand, so
// j·w needs at most 53 bits for j < 2^29 — and equals j·w after j terms.
// Every other list (mixed weights, w <= 0, NaN, Inf) keeps the scan.
func uniformLT(ws []float32) bool {
	if len(ws) == 0 || len(ws) >= 1<<29 {
		return false
	}
	w := ws[0]
	if !(w > 0) || math.IsInf(float64(w), 1) {
		return false
	}
	for _, x := range ws[1:] {
		if x != w {
			return false
		}
	}
	return true
}

// pickUniform returns the in-edge the scalar walk's running sum selects
// for coin t over d copies of weight w (a uniformLT list): the first i
// with t < (i+1)·w, or d if there is none — floor(t/w), which the
// correctly rounded quotient q keeps exactly. For an integer m <= d, m·w
// is exact: t >= m·w gives q >= m, as rounding is monotone; t < m·w
// means t <= m·w - u, where the gap u below m·w is at least m·w·2^-53, so
// t/w lies at least m·2^-53 below m, past the midpoint between m and the
// float below it, and q < m. q is clamped in float before the conversion
// to int, which is undefined out of range.
func pickUniform(t, w float64, d int) int {
	if q := t / w; q < float64(d) {
		return int(q)
	}
	return d
}

// NewFusedShared precomputes the shared tables for fused sampling over g.
func NewFusedShared(g *graph.Graph, model Model) *FusedShared {
	return (*FusedShared)(nil).Rebind(nil, g, model, nil)
}

// Rebind returns the shared tables for ng, given that s holds them for
// prev and ng differs from prev only in the in-lists of the vertices
// changed marks (over the same vertex set): every other vertex keeps its
// class, and its thresholds are copied to its slots in ng, so only the
// changed in-lists are classified again. A nil s or prev classifies
// every in-list, as NewFusedShared does.
func (s *FusedShared) Rebind(prev, ng *graph.Graph, model Model, changed []bool) *FusedShared {
	out := &FusedShared{}
	n := ng.NumVertices()
	if model == LT {
		out.ltUniform = make([]bool, n)
		for v := range n {
			if s != nil && prev != nil && !changed[v] {
				out.ltUniform[v] = s.ltUniform[v]
			} else {
				_, ws := ng.InNeighbors(graph.Vertex(v))
				out.ltUniform[v] = uniformLT(ws)
			}
		}
		return out
	}
	out.thresh = make([]uint32, ng.NumEdges())
	out.uniform = make([]uint32, n)
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for v := 0; v < n; v++ {
		base := ng.InEdgeBase(graph.Vertex(v))
		srcs, ws := ng.InNeighbors(graph.Vertex(v))
		if s != nil && prev != nil && !changed[v] {
			copy(out.thresh[base:base+int64(len(ws))], s.thresh[prev.InEdgeBase(graph.Vertex(v)):])
			out.uniform[v] = s.uniform[v]
			continue
		}
		uni := uint32(0)
		sameT := true
		dupFree := true
		for i, w := range ws {
			t := icThreshold(w)
			out.thresh[base+int64(i)] = t
			if i == 0 {
				uni = t
			} else if t != uni {
				sameT = false
			}
			if seen[srcs[i]] == int32(v) {
				dupFree = false // parallel duplicate source
			}
			seen[srcs[i]] = int32(v)
		}
		switch {
		case sameT && dupFree:
			out.uniform[v] = uni
		case sameT:
			out.uniform[v] = uni | dupMark
		default:
			out.uniform[v] = nonUniform
		}
	}
	return out
}

// newFusedSampler returns a fused sampler over g for the given model,
// building its own shared tables. For LT the graph's in-weights must form
// a valid configuration, as for NewSampler. Workers sampling the same
// graph should build one FusedShared and use NewFusedSamplerShared.
func newFusedSampler(g *graph.Graph, model Model) *FusedSampler {
	return NewFusedSamplerShared(g, model, NewFusedShared(g, model))
}

// NewFusedSamplerShared returns a fused sampler over g reusing previously
// built shared tables (which must come from NewFusedShared over the same
// graph and model).
func NewFusedSamplerShared(g *graph.Graph, model Model, shared *FusedShared) *FusedSampler {
	f := &FusedSampler{
		g:       g,
		model:   model,
		shared:  shared,
		visited: rrr.NewBitset(g.NumVertices() * MaxLanes),
		dirty:   make([]uint64, (g.NumVertices()+63)/64),
	}
	switch model {
	case IC:
		// Scan blocks are sized to each adjacency list; start small and
		// grow to the maximum in-degree on demand.
		f.gather = make([]uint64, coinBlock)
		f.gatherU = make([]graph.Vertex, coinBlock)
		f.coinBits = make([]uint32, coinBlock)
		f.vbyte = make([]uint8, g.NumVertices())
	case LT: // walks draw their coins inline and scan the CSR directly
	default:
		panic("diffuse: unknown model")
	}
	return f
}

// Model returns the diffusion model the sampler was built for.
func (f *FusedSampler) Model() Model { return f.model }

// TakeStats returns the work counters accumulated since the previous call
// and resets them.
func (f *FusedSampler) TakeStats() FusedStats {
	s := f.stats
	f.stats = FusedStats{}
	return s
}

// Generate appends count samples to verts, the i-th drawn from the stream
// rng.Derive(seed, base+uint64(i)) with a uniform random root — exactly
// the per-sample discipline of the scalar path. Each sample's vertex list
// is appended sorted ascending, and its cardinality is appended to sizes.
// Samples appear in index order, so the appended layout is byte-identical
// to count sequential scalar GenerateRR calls over the same streams.
func (f *FusedSampler) Generate(seed, base uint64, count int, verts []graph.Vertex, sizes []int32) ([]graph.Vertex, []int32) {
	for done := 0; done < count; done += MaxLanes {
		lanes := min(count-done, MaxLanes)
		for b := range lanes {
			f.stream[b] = base + uint64(done+b)
		}
		verts, sizes = f.batch(seed, lanes, verts, sizes)
	}
	return verts, sizes
}

// GenerateIDs is Generate over an arbitrary list of stream indices: the
// i-th appended sample is drawn from rng.Derive(seed, uint64(ids[i])), so
// it is byte-identical to the sample a contiguous Generate emits for that
// global index. Ids may be unsorted, repeated or gapped; they are
// expanded in batches of MaxLanes in list order.
func (f *FusedSampler) GenerateIDs(seed uint64, ids []int32, verts []graph.Vertex, sizes []int32) ([]graph.Vertex, []int32) {
	for done := 0; done < len(ids); done += MaxLanes {
		lanes := min(len(ids)-done, MaxLanes)
		for b, id := range ids[done : done+lanes] {
			f.stream[b] = uint64(id)
		}
		verts, sizes = f.batch(seed, lanes, verts, sizes)
	}
	return verts, sizes
}

// GenerateBlock expands the lanes samples first, first+1, ... as Generate
// draws them, but emits them as words instead of lists: it ORs each
// touched vertex's lane mask, shifted left by shift, into row[v], so bit
// shift+i of row[v] says that sample first+i contains v, and it stores
// sample first+i's cardinality in sizes[i]. This is the bit matrix's
// writer (rrr.Matrix): lanes+shift must not exceed MaxLanes, and row is
// the n-word row of the block the samples fall in. Like the drain, it
// clears every word it reads for the next batch.
func (f *FusedSampler) GenerateBlock(seed, first uint64, lanes int, shift uint, row []uint64, sizes []int32) {
	for b := range lanes {
		f.stream[b] = first + uint64(b)
	}
	f.expand(seed, lanes)
	for b := range lanes {
		sizes[b] = int32(len(f.queue[b])) // the queue IS the sample
	}
	for di, dw := range f.dirty {
		if dw == 0 {
			continue
		}
		f.dirty[di] = 0
		base := di << 6
		for ; dw != 0; dw &= dw - 1 {
			v := base + bits.TrailingZeros64(dw)
			row[v] |= f.visited[v] << shift
			f.visited[v] = 0
		}
	}
}

// batch runs one fused expansion of `lanes` samples (lanes <= MaxLanes),
// lane b drawing from the stream rng.Derive(seed, f.stream[b]), and
// appends them to verts as sorted lists.
func (f *FusedSampler) batch(seed uint64, lanes int, verts []graph.Vertex, sizes []int32) ([]graph.Vertex, []int32) {
	f.expand(seed, lanes)
	return f.drainByExtraction(lanes, verts, sizes)
}

// expand runs the expansion of a batch: every lane's root, then its
// reverse BFS (IC) or walk (LT), leaving the lanes' members in their
// queues and set in visited and the dirty summary.
func (f *FusedSampler) expand(seed uint64, lanes int) {
	n := uint64(f.g.NumVertices())
	f.frontier = f.frontier[:0]
	f.next = f.next[:0]

	// Roots: each lane's first draw is Intn(n) off its own fresh stream
	// (Lemire multiply-shift, exactly as rng.Rand.Intn computes it).
	for b := 0; b < lanes; b++ {
		st := rng.SplitMixState(seed, f.stream[b]) + rng.SplitMixGamma
		f.state[b] = st
		root, _ := bits.Mul64(rng.Mix64(st), n)
		f.queue[b] = append(f.queue[b][:0], graph.Vertex(root))
		// Under IC the packed bit and dirty mark follow at the end of the
		// lane's expansion (see expandIC).
		if f.model == LT {
			f.frontier = append(f.frontier, laneVertex{graph.Vertex(root), uint32(b)})
			f.visited[root] |= 1 << uint(b)
			f.dirty[root>>6] |= 1 << (root & 63)
		}
	}
	f.stats.Coins += int64(lanes)
	f.stats.Batches++
	f.stats.LaneSlots += MaxLanes
	f.stats.ActiveLanes += int64(lanes)

	switch f.model {
	case IC:
		f.expandIC(lanes)
	case LT:
		f.walkLT()
	}
}

// drainByExtraction reconstructs every lane's sample from the visited
// lane masks in one ascending walk: vertex v with bit b set belongs to
// lane b's sample, so scattering v in walk order emits every lane already
// sorted — the fused drain needs no sort at all, under either model,
// where the scalar kernel pays a pdqsort per sample. The dirty summary
// narrows the walk to n/64 summary words plus the words actually touched,
// and the walk clears everything it reads for the next batch.
func (f *FusedSampler) drainByExtraction(lanes int, verts []graph.Vertex, sizes []int32) ([]graph.Vertex, []int32) {
	for b := 0; b < lanes; b++ {
		f.outs[b] = f.outs[b][:0]
	}
	for di, dw := range f.dirty {
		if dw == 0 {
			continue
		}
		f.dirty[di] = 0
		base := di << 6
		for dw != 0 {
			v := base + bits.TrailingZeros64(dw)
			dw &= dw - 1
			w := f.visited[v]
			f.visited[v] = 0
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				f.outs[b] = append(f.outs[b], graph.Vertex(v))
			}
		}
	}
	for b := 0; b < lanes; b++ {
		verts = append(verts, f.outs[b]...)
		sizes = append(sizes, int32(len(f.outs[b])))
	}
	return verts, sizes
}

// expandIC is the fused IC kernel. Lanes are mutually independent (coins
// come from per-lane streams), so any schedule that consumes each lane's
// queue in order is byte-identical to the scalar kernel; this one drains
// each lane to exhaustion before starting the next, against the one-byte
// visited map vbyte. The byte map is the point: at one byte per vertex it
// stays L1-resident across the entire batch where the packed 64-lane
// words (or the scalar kernel's per-sample epoch ints) overflow L1, and
// the per-edge visited test is the kernel's most frequent random access.
// Fires also set the lane's bit in the packed bitset, which the batch
// drain turns into sorted per-lane samples in one walk; the lane's byte
// map entries are undone by walking its queue — exactly its sample —
// when it finishes.
func (f *FusedSampler) expandIC(lanes int) {
	allThresh := f.shared.thresh
	uniform := f.shared.uniform
	vb := f.vbyte
	var levels, coins int64
	for b := 0; b < lanes; b++ {
		vb[f.queue[b][0]] = 1
		c, l := f.expandLane(uint32(b), uniform, allThresh)
		coins += c
		levels += l
		// Lane done: its queue IS its sample. One short walk resets the
		// byte map and publishes the lane's bits to the packed bitset and
		// the drain's dirty summary — moving both random stores off the
		// fire path keeps the decide loops lean.
		bit := uint64(1) << uint(b)
		for _, v := range f.queue[b] {
			vb[v] = 0
			f.visited[v] |= bit
			f.dirty[v>>6] |= 1 << (v & 63)
		}
	}
	f.stats.Passes += levels
	f.stats.Coins += coins
}

// expandLane drains lane b's BFS queue to exhaustion and returns the
// coins consumed and the BFS levels expanded. The lane's stream state and
// queue stay in registers across all its scans — per-scan spills to the
// sampler struct would cost as much as the scans themselves on low-degree
// graphs. The scan over a uniform duplicate-free in-list (both standard IC
// weightings) is inlined here in two branch-disciplined phases:
//
//  1. gather — a branch-free pass that compacts the unvisited neighbors,
//     hand unrolled to keep several visited-byte loads in flight. A
//     per-edge visited branch would mispredict constantly (cascades are
//     locally clustered, so scans mix visited and unvisited neighbors
//     with no pattern); the unconditional store + counter bump never
//     mispredicts.
//  2. decide — the lane's next coin generated and compared per gathered
//     neighbor in one loop. The state chain is plain adds and the Mix64
//     chains are independent across iterations, so the compare overlaps
//     the next coin's finalization; every gathered neighbor consumes a
//     coin unconditionally (no duplicates), keeping the stream aligned
//     with the scalar kernel by construction.
//
// Lists with duplicate sources or per-edge thresholds take the out-of-
// line scanDup/scanGeneral paths (the lane state is written back around
// the call).
func (f *FusedSampler) expandLane(b uint32, uniform, allThresh []uint32) (coins, levels int64) {
	g := f.g
	vb := f.vbyte
	st := f.state[b]
	q := f.queue[b]
	// Each outer pass expands one level, which ends where the queue stood
	// when it began: the inner bound is the only per-vertex compare.
	for head := 0; head < len(q); levels++ {
		levelEnd := len(q)
		for qi := head; qi < levelEnd; qi++ {
			srcs := g.InSources(q[qi])
			if len(srcs) == 0 {
				continue
			}
			uni := uniform[q[qi]]
			if uni&dupMark != 0 {
				// Outcome-dependent coin consumption: spill the lane state,
				// run the ordered out-of-line scan, reload.
				f.state[b] = st
				f.queue[b] = q
				if uni != nonUniform {
					coins += f.scanDup(srcs, uni&^dupMark, b)
				} else {
					coins += f.scanGeneral(q[qi], srcs, allThresh, b)
				}
				st = f.state[b]
				q = f.queue[b]
				continue
			}

			gu := f.gatherU
			if len(gu) < len(srcs) {
				gu = make([]graph.Vertex, pow2AtLeast(len(srcs)))
				f.gatherU = gu
			}
			cnt := 0
			i := 0
			for ; i+4 <= len(srcs); i += 4 {
				u0, u1, u2, u3 := srcs[i], srcs[i+1], srcs[i+2], srcs[i+3]
				h0, h1, h2, h3 := vb[u0], vb[u1], vb[u2], vb[u3]
				gu[cnt] = u0
				cnt += 1 - int(h0)
				gu[cnt] = u1
				cnt += 1 - int(h1)
				gu[cnt] = u2
				cnt += 1 - int(h2)
				gu[cnt] = u3
				cnt += 1 - int(h3)
			}
			for ; i < len(srcs); i++ {
				u := srcs[i]
				gu[cnt] = u
				cnt += 1 - int(vb[u])
			}
			coins += int64(cnt)

			for _, u := range gu[:cnt] {
				st += rng.SplitMixGamma
				if rng.Mix64Hi24(st) < uni {
					vb[u] = 1
					q = append(q, u)
				}
			}
		}
		head = levelEnd
	}
	f.state[b] = st
	f.queue[b] = q
	return coins, levels
}

// scanDup is the scan for a uniform in-list that carries parallel
// duplicate sources: whether a later occurrence of a duplicate draws a
// coin depends on whether an earlier one fired, so the scan must
// interleave the visited test and the draw exactly as the scalar kernel
// does — one fused pass: test, draw inline, decide.
func (f *FusedSampler) scanDup(srcs []graph.Vertex, t uint32, lane uint32) int64 {
	vb := f.vbyte
	st := f.state[lane]
	q := f.queue[lane]
	drawn := 0
	for _, u := range srcs {
		if vb[u] != 0 {
			continue
		}
		drawn++
		st += rng.SplitMixGamma
		if rng.Mix64Hi24(st) < t {
			vb[u] = 1
			q = append(q, u)
		}
	}
	f.queue[lane] = q
	f.state[lane] = st
	return int64(drawn)
}

// scanGeneral is the scan for distinct per-edge thresholds (parallel
// duplicates possible). Three phases:
//
//  1. gather — branch-free compaction of the unvisited neighbors, packed
//     as threshold<<32 | vertex so the decide loop reads one sequential
//     stream and never touches the CSR again.
//  2. coin block — the lane's next cnt coins in one exact-size block.
//  3. decide — threshold compare and append. A re-check of the visited
//     byte catches parallel edges to a vertex won earlier in this same
//     scan, which must not consume a coin (the scalar kernel's visited
//     test precedes its draw); the lane's stream state advances by
//     exactly the coins consumed, so the block's over-generated tail is
//     discarded without desynchronizing the stream.
func (f *FusedSampler) scanGeneral(v graph.Vertex, srcs []graph.Vertex, allThresh []uint32, lane uint32) int64 {
	vb := f.vbyte
	base := f.g.InEdgeBase(v)
	thresh := allThresh[base : base+int64(len(srcs))]
	if cap(f.gather) < len(srcs) {
		f.gather = make([]uint64, len(srcs))
		f.coinBits = make([]uint32, len(srcs))
	}

	gather := f.gather[:len(srcs)]
	cnt := 0
	for i := 0; i < len(srcs); i++ {
		u := srcs[i]
		gather[cnt] = uint64(thresh[i])<<32 | uint64(u)
		cnt += 1 - int(vb[u])
	}
	if cnt == 0 {
		return 0
	}

	st := f.state[lane]
	cblock := f.coinBits[:cnt]
	for j := range cblock {
		st += rng.SplitMixGamma
		cblock[j] = rng.Mix64Hi24(st)
	}

	q := f.queue[lane]
	used := 0
	for _, packed := range gather[:cnt] {
		u := graph.Vertex(packed)
		if vb[u] != 0 {
			continue // parallel edge to a vertex won this scan: no coin
		}
		k := cblock[used]
		used++
		if uint64(k) < packed>>32 {
			vb[u] = 1
			q = append(q, u)
		}
	}
	f.queue[lane] = q
	f.state[lane] += rng.SplitMixGamma * uint64(used)
	return int64(cnt)
}

// walkLT is the fused LT kernel: all lanes advance their reverse walk one
// step per pass. Each step draws one Float64 coin inline off the lane's
// state to select at most one in-edge of the lane's current vertex,
// exactly as the scalar reverseWalk does: a uniformLT list picks in O(1)
// with pickUniform, any other list runs the scalar kernel's running sum.
func (f *FusedSampler) walkLT() {
	g := f.g
	visited := f.visited
	dirty := f.dirty
	uniform := f.shared.ltUniform
	var coins int64
	for len(f.frontier) > 0 {
		f.stats.Passes++
		f.next = f.next[:0]
		for _, fe := range f.frontier {
			srcs, ws := g.InNeighbors(fe.v)
			if len(srcs) == 0 {
				continue
			}
			lane := fe.lane
			st := f.state[lane] + rng.SplitMixGamma
			f.state[lane] = st
			t := float64(rng.Mix64(st)>>11) * (1.0 / (1 << 53)) // rng.Rand.Float64
			coins++
			i := 0
			if uniform[fe.v] {
				i = pickUniform(t, float64(ws[0]), len(ws))
			} else {
				cum := 0.0
				for ; i < len(ws); i++ {
					cum += float64(ws[i])
					if t < cum {
						break
					}
				}
			}
			if i == len(ws) {
				continue // no edge selected: the walk dies here
			}
			u := srcs[i]
			bit := uint64(1) << uint(lane)
			if visited[u]&bit != 0 {
				continue // reached an already-selected vertex: stop
			}
			visited[u] |= bit
			dirty[u>>6] |= 1 << (u & 63)
			f.queue[lane] = append(f.queue[lane], u)
			f.next = append(f.next, laneVertex{u, lane})
		}
		f.frontier, f.next = f.next, f.frontier
	}
	f.stats.Coins += coins
}
