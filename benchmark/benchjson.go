package main

import (
	"encoding/json"
	"io"
)

// benchmarkJSON is BENCHMARK.json: the contract between this program and
// whoever runs it. The file at the repository root is this value, printed
// by -print-benchmark-json; the drift test holds the two together.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the length of a timed section the driver asks for, and
// the one the sizes in defs.go were tuned for.
const runSeconds = 10

func currentBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, sp := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, endToEndJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, perLayerJSON{d.Name, d.Unit, d.Better})
	}
	return b
}

func writeBenchmarkJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(currentBenchmarkJSON())
}
