package server

import (
	"errors"
	"fmt"
	"net/http"

	"influmax/internal/front"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/rrr"
)

// Dynamic-graph serving: the server owns one imm.DynamicSketch, applies
// POST /v1/graph/delta batches to it under dynMu, and republishes an
// immutable Sketch after each batch; queries load the latest published
// view lock-free (bounded staleness, DESIGN.md §15).

// initDynamic builds or restores the dynamic sketch and publishes the
// first serving view. Called once from New, before any handler runs.
func (s *Server) initDynamic() error {
	opt := imm.Options{
		K: s.cfg.KMax, Epsilon: s.cfg.Epsilon, Model: s.cfg.Model,
		Workers: s.cfg.Workers, Seed: s.cfg.Seed, Metrics: s.reg,
	}
	if warm := s.cfg.Sketch; warm != nil {
		// Warm restart: decode the persisted store back to the mutable
		// flat arena maintenance needs, then replay the delta log over the
		// base graph to recover the mutated topology.
		flat := rrr.NewCollection(warm.Col.NumVertices())
		var buf []graph.Vertex
		for i := 0; i < warm.Col.Count(); i++ {
			buf = warm.Col.SampleSorted(i, buf[:0])
			flat.Append(buf)
		}
		dyn, err := imm.RestoreDynamicSketch(s.cfg.Graph, opt, s.cfg.WeightPolicy, flat, warm.Theta, warm.Deltas)
		if err != nil {
			return err
		}
		s.dyn = dyn
	} else {
		dyn, _, err := imm.NewDynamicSketch(s.cfg.Graph, opt, s.cfg.WeightPolicy)
		if err != nil {
			return err
		}
		s.mBuilds.Inc()
		s.dyn = dyn
	}
	s.publishDynamicLocked()
	return nil
}

// publishDynamicLocked snapshots the dynamic sketch into an immutable
// Sketch (transcoding into the configured store) and publishes it for
// queries. Caller holds dynMu (or is still inside New).
func (s *Server) publishDynamicLocked() *Sketch {
	sk := &Sketch{
		Key: s.DefaultKey(),
		Col: imm.Transcode(s.dyn.Collection(), s.cfg.Store, s.cfg.Workers),
		// The incidence index is labeling-invariant, so the dynamic
		// sketch's own (rebuilt per batch, then immutable) carries over.
		Idx:        s.dyn.Index(),
		Theta:      s.dyn.Theta(),
		LowerBound: s.dyn.LowerBound(),
		Source:     "dynamic",
		Deltas:     s.dyn.Log(),
		DeltaEpoch: s.dyn.Epoch(),
		DeltaStats: s.dyn.Stats(),
	}
	s.dynSk.Store(sk)
	s.mSketches.Set(1)
	return sk
}

// ServingSketch returns the currently served dynamic sketch view (nil
// outside dynamic mode). The returned sketch is immutable and carries the
// delta log, so it is what a shutdown persists for a warm restart.
func (s *Server) ServingSketch() *Sketch {
	if !s.cfg.Dynamic {
		return nil
	}
	return s.dynSk.Load()
}

// deltaOpRequest is one edge mutation on the wire.
type deltaOpRequest struct {
	Op  string  `json:"op"` // "insert" or "delete"
	Src uint32  `json:"src"`
	Dst uint32  `json:"dst"`
	W   float32 `json:"w,omitempty"`
}

// deltaRequest is the POST /v1/graph/delta body: one ordered batch.
type deltaRequest struct {
	Ops []deltaOpRequest `json:"ops"`
}

// deltaResponse reports one applied batch. Under sustained write load
// several queued client batches may be folded into one repair pass
// (coalescing); Coalesced then reports how many batches the pass carried,
// and the counters describe the merged batch, not just this client's ops.
type deltaResponse struct {
	Epoch              uint64 `json:"epoch"`
	Applied            int    `json:"applied"`
	Candidates         int    `json:"candidates"`
	SamplesInvalidated int64  `json:"samplesInvalidated"`
	Theta              int64  `json:"theta"`
	Coalesced          int    `json:"coalesced,omitempty"`
}

// pendingDelta is one decoded mutation batch queued for the repair pass,
// and the channel its handler waits on.
type pendingDelta struct {
	d    graph.Delta
	done chan deltaOutcome
}

type deltaOutcome struct {
	resp deltaResponse
	err  error
}

// handleDelta applies one mutation batch: decode, validate-or-400
// (rejected batches leave graph and sketch untouched), repair, publish,
// report. Batches are coalesced under load: each handler queues its batch
// and races for the mutation lock; the winner folds the whole queue in
// with ONE repair pass (one epoch, one reweight, one publish), which keeps
// repair cost amortized when writers outpace the repair rate.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	d, err := s.decodeDelta(w, r)
	if err != nil {
		s.front.Error(w, err)
		return
	}

	pd := &pendingDelta{d: d, done: make(chan deltaOutcome, 1)}
	s.deltaMu.Lock()
	s.deltaPending = append(s.deltaPending, pd)
	s.deltaMu.Unlock()

	// Race for the mutation lock. By the time this acquisition succeeds,
	// pd has been drained — by us or by whichever handler held the lock
	// while we queued — so the receive below never blocks on an idle
	// server.
	s.dynMu.Lock()
	s.drainDeltasLocked()
	s.dynMu.Unlock()

	out := <-pd.done
	var de *graph.DeltaError
	switch {
	case errors.As(out.err, &de):
		s.front.Error(w, front.BadRequest(out.err))
	case out.err != nil:
		s.front.Error(w, fmt.Errorf("applying delta: %w", out.err))
	default:
		front.WriteJSON(w, http.StatusOK, out.resp)
	}
}

// decodeDelta refuses the batch outright (not in dynamic mode, draining)
// or decodes and validates its ops.
func (s *Server) decodeDelta(w http.ResponseWriter, r *http.Request) (graph.Delta, error) {
	if !s.cfg.Dynamic {
		return nil, front.BadRequest(errors.New("server is not in dynamic mode; /v1/graph/delta requires it"))
	}
	if s.draining.Load() {
		return nil, front.Unavailable(errors.New("draining"))
	}
	var req deltaRequest
	if err := front.Decode(w, r, &req); err != nil {
		return nil, err
	}
	if len(req.Ops) == 0 {
		return nil, front.BadRequest(errors.New("empty batch: ops is required"))
	}
	if len(req.Ops) > s.cfg.MaxDeltaOps {
		return nil, front.BadRequest(fmt.Errorf("batch of %d ops exceeds the %d-op limit", len(req.Ops), s.cfg.MaxDeltaOps))
	}
	d := make(graph.Delta, len(req.Ops))
	for i, op := range req.Ops {
		switch op.Op {
		case "insert":
			d[i].Kind = graph.DeltaInsert
		case "delete":
			d[i].Kind = graph.DeltaDelete
		default:
			return nil, front.BadRequest(fmt.Errorf("ops[%d].op = %q, want \"insert\" or \"delete\"", i, op.Op))
		}
		d[i].Src = graph.Vertex(op.Src)
		d[i].Dst = graph.Vertex(op.Dst)
		d[i].W = op.W
	}
	return d, nil
}

// drainDeltasLocked folds every queued batch into the sketch. A multi-
// batch drain is concatenated into one merged batch and repaired in a
// single pass; if the merged batch fails validation (one client's bad op
// must not poison the others), it falls back to applying each batch
// individually so every client gets its own verdict. Caller holds dynMu.
func (s *Server) drainDeltasLocked() {
	for {
		s.deltaMu.Lock()
		batch := s.deltaPending
		s.deltaPending = nil
		s.deltaMu.Unlock()
		if len(batch) == 0 {
			return
		}
		if len(batch) == 1 {
			s.applyOneLocked(batch[0])
			continue
		}
		total := 0
		for _, pd := range batch {
			total += len(pd.d)
		}
		merged := make(graph.Delta, 0, total)
		for _, pd := range batch {
			merged = append(merged, pd.d...)
		}
		res, err := s.dyn.ApplyDelta(merged)
		if err != nil {
			for _, pd := range batch {
				s.applyOneLocked(pd)
			}
			continue
		}
		s.mCoalesced.Add(int64(len(batch) - 1))
		resp := s.publishLocked(res)
		resp.Coalesced = len(batch)
		for _, pd := range batch {
			pd.done <- deltaOutcome{resp: resp}
		}
	}
}

// applyOneLocked applies a single queued batch and delivers its outcome.
// Caller holds dynMu.
func (s *Server) applyOneLocked(pd *pendingDelta) {
	res, err := s.dyn.ApplyDelta(pd.d)
	if err != nil {
		pd.done <- deltaOutcome{err: err}
		return
	}
	pd.done <- deltaOutcome{resp: s.publishLocked(res)}
}

// publishLocked publishes the view an applied batch produced and reports
// its repair counters. Caller holds dynMu.
func (s *Server) publishLocked(res imm.BatchResult) deltaResponse {
	s.publishDynamicLocked()
	s.mDeltaBatches.Inc()
	return deltaResponse{
		Epoch:              res.Epoch,
		Applied:            res.Ops,
		Candidates:         res.Candidates,
		SamplesInvalidated: res.SamplesInvalidated,
		Theta:              s.dyn.Theta(),
	}
}
