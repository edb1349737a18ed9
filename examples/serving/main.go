// Serving: the resident sketch-serving subsystem (immserve) driven as a
// library — build a query-ready sketch once, persist it as a snapshot,
// warm-start a server from the file, and answer a seed query over HTTP
// without any resampling.
//
//	go run ./examples/serving
//
// The sketch is sized for kMax: any query with k <= kMax is an indexed
// greedy selection over the same theta samples (greedy is
// prefix-consistent, so the answer equals a fresh selection at that k).
// With the per-sample RNG discipline everything below is deterministic,
// including the served seed set.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"influmax"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the build -> snapshot -> serve -> query pipeline and
// writes the demonstration output to w (the Example test pins this
// output).
func run(w io.Writer) error {
	// A deterministic scaled analog of the cit-HepTh citation network.
	g := influmax.Generate("cit-HepTh", 0.02, 3)
	g.AssignUniform(11)

	// Build the sketch: the full IMM estimation + sampling pipeline at
	// K = kMax, byte-coded and indexed. This is the expensive step the
	// serving layer exists to amortize.
	key := influmax.SketchKey{
		GraphDigest: g.Digest(), Model: influmax.IC,
		Epsilon: 0.5, KMax: 25, Seed: 42,
	}
	sketch, err := influmax.BuildSketch(g, key, 2, influmax.StoreFlat, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sketch built: %d samples for kMax %d (source %q)\n",
		sketch.Theta, key.KMax, sketch.Source)

	// Persist and reload: the snapshot carries the byte-coded samples,
	// the incidence index, and the graph digest that guards against
	// serving it on the wrong graph.
	dir, err := os.MkdirTemp("", "immserve-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sketch.snap")
	if err := influmax.SaveSnapshot(path, sketch); err != nil {
		return err
	}
	loaded, err := influmax.LoadSnapshot(path, g, 2, influmax.StoreFlat)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "snapshot reloaded: source %q, theta %d\n", loaded.Source, loaded.Theta)

	// Serve from the loaded snapshot — the warm start a restarted
	// immserve process takes.
	srv, err := influmax.Serve(influmax.ServeConfig{
		Graph: g, Model: influmax.IC, Epsilon: 0.5, KMax: 25, Seed: 42,
		Workers: 2, Sketch: loaded,
	})
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())

	resp, err := http.Post("http://"+addr.String()+"/v1/seeds", "application/json",
		strings.NewReader(`{"k":10}`))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		K      int               `json:"k"`
		Seeds  []influmax.Vertex `json:"seeds"`
		Source string            `json:"source"`
		Report struct {
			PhaseSeconds map[string]float64 `json:"phaseSeconds"`
		} `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}

	fmt.Fprintf(w, "query k=%d served from %q sketch (status %d)\n",
		out.K, out.Source, resp.StatusCode)
	fmt.Fprintf(w, "sampling time on the query path: %v s\n",
		out.Report.PhaseSeconds["Sample"])
	fmt.Fprintf(w, "seeds: %v\n", out.Seeds)

	// The served answer is exactly what a fresh selection over the
	// sampled (never persisted) sketch returns.
	fresh, _ := sketch.Query(10, 2)
	fmt.Fprintf(w, "matches fresh in-process selection: %v\n", slices.Equal(out.Seeds, fresh))
	return nil
}
