package graph

import "fmt"

// Dynamic-graph deltas: an ordered batch of edge insertions and deletions
// applied to an immutable CSR Graph through an Overlay, then compacted
// on demand into a fresh CSR. The overlay never mutates its base — queries
// keep reading the old graph while a batch is being prepared — and
// compaction produces a canonical edge order that incremental RRR
// maintenance (internal/imm) and the snapshot replay path both depend on:
//
//	per vertex, surviving base edges in base CSR order,
//	then inserted edges in batch op order.
//
// That order puts every inserted edge at the tail of its endpoint's
// adjacency lists, which is what lets the per-sample RNG streams of a
// regenerated RRR sample consume coins in exactly the order a cold build
// over the compacted graph would (DESIGN.md §15).

// DeltaOpKind discriminates the two edge mutations.
type DeltaOpKind uint8

const (
	// DeltaInsert adds a directed edge Src->Dst with probability W. The
	// edge must not already exist (parallel edges cannot be created
	// through deltas, though a base graph may contain them).
	DeltaInsert DeltaOpKind = iota
	// DeltaDelete removes the directed edge Src->Dst (W is ignored). The
	// edge must exist; with base-graph parallel edges, the first live
	// occurrence in canonical order is removed.
	DeltaDelete
)

// String names the kind, matching the /v1/graph/delta wire values.
func (k DeltaOpKind) String() string {
	switch k {
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	}
	return fmt.Sprintf("DeltaOpKind(%d)", uint8(k))
}

// DeltaOp is one edge mutation.
type DeltaOp struct {
	Kind     DeltaOpKind
	Src, Dst Vertex
	W        float32
}

// Delta is one ordered batch of edge mutations. Order matters: a batch may
// insert an edge and delete it again, and incremental RRR maintenance
// processes the ops in sequence.
type Delta []DeltaOp

// DeltaError reports the first op of a batch that failed validation. It is
// the typed rejection surfaced as HTTP 400 by the /v1/graph/delta
// endpoint.
type DeltaError struct {
	// Index is the offending op's position within the batch.
	Index int
	// Op is the offending op.
	Op DeltaOp
	// Reason describes the violation.
	Reason string
}

func (e *DeltaError) Error() string {
	return fmt.Sprintf("graph: delta op %d (%s %d->%d): %s",
		e.Index, e.Op.Kind, e.Op.Src, e.Op.Dst, e.Reason)
}

// insRec is one inserted edge held by an Overlay until compaction.
type insRec struct {
	src, dst Vertex
	w        float32
	dead     bool  // deleted again later in the same batch
	inSlot   int64 // in-CSR slot in the compacted graph (set by Compact)
}

// Overlay stages one Delta batch over an immutable base Graph: deletions
// are marks on base in-CSR slots, insertions are held in op order, and
// Compact materializes the mutated graph as a fresh CSR in canonical edge
// order. The base graph is never modified.
//
// An Overlay is single-use: Apply it once, then Compact. If Apply returns
// an error the overlay holds a partially applied batch and must be
// discarded (callers build overlays per batch, so atomicity is "discard on
// error").
type Overlay struct {
	base *Graph

	deadIn    []uint64 // bitset over base in-CSR slots, allocated lazily
	deadCount int64

	ins      []insRec
	insByDst map[Vertex][]int32 // dst -> indices into ins, op order
	insBySrc map[Vertex][]int32 // src -> indices into ins, op order
	liveIns  int64

	applied bool
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{
		base:     base,
		insByDst: make(map[Vertex][]int32),
		insBySrc: make(map[Vertex][]int32),
	}
}

// Base returns the immutable graph the overlay stages mutations over.
func (ov *Overlay) Base() *Graph { return ov.base }

// deadSlot reports whether base in-CSR slot j is marked deleted.
func (ov *Overlay) deadSlot(j int64) bool {
	return ov.deadIn != nil && ov.deadIn[j>>6]&(1<<(uint64(j)&63)) != 0
}

// markDead marks base in-CSR slot j deleted.
func (ov *Overlay) markDead(j int64) {
	if ov.deadIn == nil {
		ov.deadIn = make([]uint64, (len(ov.base.inSrc)+63)/64)
	}
	ov.deadIn[j>>6] |= 1 << (uint64(j) & 63)
	ov.deadCount++
}

// findBase returns the in-CSR slot of the first live base edge src->dst,
// or -1. Base in-lists hold edges in original construction order, so "first
// live" matches the first surviving occurrence in canonical order.
func (ov *Overlay) findBase(src, dst Vertex) int64 {
	lo, hi := ov.base.inOff[dst], ov.base.inOff[dst+1]
	for j := lo; j < hi; j++ {
		if ov.base.inSrc[j] == src && !ov.deadSlot(j) {
			return j
		}
	}
	return -1
}

// findIns returns the index into ov.ins of the live inserted edge
// src->dst, or -1. At most one can be live: Apply rejects duplicate
// insertions.
func (ov *Overlay) findIns(src, dst Vertex) int32 {
	for _, ri := range ov.insByDst[dst] {
		if r := &ov.ins[ri]; r.src == src && !r.dead {
			return ri
		}
	}
	return -1
}

// Apply stages the batch d onto the overlay, validating each op in order:
// endpoints must be in range, an inserted edge must not already exist
// (live in the base or inserted earlier in the batch) and a deleted edge
// must. The first violation returns a *DeltaError identifying the op; the
// overlay is then partially applied and must be discarded.
func (ov *Overlay) Apply(d Delta) error {
	if ov.applied {
		return &DeltaError{Reason: "overlay already holds a batch"}
	}
	ov.applied = true
	n := Vertex(ov.base.n)
	for t, op := range d {
		if op.Src >= n || op.Dst >= n {
			return &DeltaError{Index: t, Op: op, Reason: fmt.Sprintf("endpoint out of range [0,%d)", n)}
		}
		switch op.Kind {
		case DeltaInsert:
			if !(op.W >= 0 && op.W <= 1) { // also rejects NaN
				return &DeltaError{Index: t, Op: op, Reason: fmt.Sprintf("weight %v outside [0,1]", op.W)}
			}
			if ov.findBase(op.Src, op.Dst) >= 0 || ov.findIns(op.Src, op.Dst) >= 0 {
				return &DeltaError{Index: t, Op: op, Reason: "edge already exists"}
			}
			ri := int32(len(ov.ins))
			ov.ins = append(ov.ins, insRec{src: op.Src, dst: op.Dst, w: op.W})
			ov.insByDst[op.Dst] = append(ov.insByDst[op.Dst], ri)
			ov.insBySrc[op.Src] = append(ov.insBySrc[op.Src], ri)
			ov.liveIns++
		case DeltaDelete:
			if j := ov.findBase(op.Src, op.Dst); j >= 0 {
				ov.markDead(j)
			} else if ri := ov.findIns(op.Src, op.Dst); ri >= 0 {
				ov.ins[ri].dead = true
				ov.liveIns--
			} else {
				return &DeltaError{Index: t, Op: op, Reason: "edge does not exist"}
			}
		default:
			return &DeltaError{Index: t, Op: op, Reason: fmt.Sprintf("unknown op kind %d", uint8(op.Kind))}
		}
	}
	return nil
}

// Mutated reports whether the applied batch changed the edge set at all.
func (ov *Overlay) Mutated() bool { return ov.deadCount > 0 || ov.liveIns > 0 }

// Compact materializes the mutated graph as a fresh CSR in canonical edge
// order: per vertex, surviving base edges keep their base relative order
// (in BOTH adjacency directions) and inserted edges follow in batch op
// order. The base graph is untouched; the two graphs share no storage.
// Weights are carried over verbatim — callers re-derive scheme-dependent
// weights (weighted cascade, LT normalization) on the result.
func (ov *Overlay) Compact() *Graph {
	g := ov.base
	n := g.n
	m := int64(len(g.inSrc)) - ov.deadCount + ov.liveIns
	ng := &Graph{
		n:       n,
		outOff:  make([]int64, n+1),
		outDst:  make([]Vertex, m),
		outW:    make([]float32, m),
		inOff:   make([]int64, n+1),
		inSrc:   make([]Vertex, m),
		inW:     make([]float32, m),
		outToIn: make([]int64, m),
	}

	// In side: offsets, then fill; record each surviving base slot's new
	// position (for the outToIn remap) and each live insert's new slot.
	newInPos := make([]int64, len(g.inSrc))
	var pos int64
	for v := 0; v < n; v++ {
		ng.inOff[v] = pos
		for j := g.inOff[v]; j < g.inOff[v+1]; j++ {
			if ov.deadSlot(j) {
				newInPos[j] = -1
				continue
			}
			ng.inSrc[pos] = g.inSrc[j]
			ng.inW[pos] = g.inW[j]
			newInPos[j] = pos
			pos++
		}
		for _, ri := range ov.insByDst[Vertex(v)] {
			if r := &ov.ins[ri]; !r.dead {
				ng.inSrc[pos] = r.src
				ng.inW[pos] = r.w
				r.inSlot = pos
				pos++
			}
		}
	}
	ng.inOff[n] = pos

	// Out side, mapping each edge to its in-slot as it lands.
	pos = 0
	for u := 0; u < n; u++ {
		ng.outOff[u] = pos
		for k := g.outOff[u]; k < g.outOff[u+1]; k++ {
			ip := newInPos[g.outToIn[k]]
			if ip < 0 {
				continue
			}
			ng.outDst[pos] = g.outDst[k]
			ng.outW[pos] = g.outW[k]
			ng.outToIn[pos] = ip
			pos++
		}
		for _, ri := range ov.insBySrc[Vertex(u)] {
			if r := &ov.ins[ri]; !r.dead {
				ng.outDst[pos] = r.dst
				ng.outW[pos] = r.w
				ng.outToIn[pos] = r.inSlot
				pos++
			}
		}
	}
	ng.outOff[n] = pos
	return ng
}
