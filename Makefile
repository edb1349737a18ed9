# Developer entry points. `make check` is the tier-1 gate every change
# must keep green (see DESIGN.md §7); the other targets are conveniences
# over the same underlying go commands.

GO ?= go

.PHONY: check build vet test race bench bench-baseline bench-gate bench-gate-runs bench-e2e bench-e2e-smoke fmt fmt-check clean

# The benchmark runs the CI bench gate pins: the fused-vs-scalar sampling
# kernel comparison, delta-vs-cold-rebuild maintenance, the budgeted
# query loop and the four served-regime query shapes (internal/imm), and
# end-to-end seed selection (root). BenchmarkServeQuery is the only one
# outside the paper regime: n far above the sample size, where a cost per
# vertex per round is the whole query.
# -benchtime 1x yields one ns/op
# sample per run; -count=5 gives cmd/benchdiff five samples per benchmark
# to take a median over.
BENCH_GATE_RUNS = { $(GO) test -run '^$$' -bench '^BenchmarkSelectSeeds$$' -benchtime 1x -count=5 . \
	&& $(GO) test -run '^$$' -bench '^BenchmarkSampleBatch$$' -benchtime 1x -count=5 ./internal/imm \
	&& $(GO) test -run '^$$' -bench '^BenchmarkApplyDelta$$' -benchtime 1x -count=5 ./internal/imm \
	&& $(GO) test -run '^$$' -bench '^BenchmarkSelectBudgeted$$' -benchtime 1x -count=5 ./internal/imm \
	&& $(GO) test -run '^$$' -bench '^BenchmarkServeQuery$$' -benchtime 1x -count=5 ./internal/imm ; }

## check: the CI-grade gate — compile everything, check formatting, vet,
## and run the full test suite under the race detector.
check: build fmt-check vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fmt: rewrite the tree into canonical gofmt form.
fmt:
	gofmt -w .

## fmt-check: fail (listing offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## bench: run every paper-figure benchmark once (long), plus the
## sampler's static-vs-dynamic schedule benchmark.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/imm

## bench-baseline: regenerate the committed bench-gate baseline
## (results/bench_baseline.json). Run this deliberately, on the reference
## machine, when a change is *supposed* to shift the benchmarks — the
## baseline encodes absolute speeds, so a laptop-written baseline makes
## the CI gate meaningless.
bench-baseline:
	$(BENCH_GATE_RUNS) | $(GO) run ./cmd/benchdiff -write -baseline results/bench_baseline.json

## bench-gate: compare current benchmark medians against the committed
## baseline; fails on a >15% median regression or a missing benchmark
## (see cmd/benchdiff). CI runs this on every PR.
bench-gate:
	$(BENCH_GATE_RUNS) | $(GO) run ./cmd/benchdiff -baseline results/bench_baseline.json

## bench-gate-runs: print the raw output of the gated benchmark runs, the
## input bench-gate and bench-baseline reduce. CI pipes it into a file so
## the list of gated benchmarks lives only in BENCH_GATE_RUNS.
bench-gate-runs:
	@$(BENCH_GATE_RUNS)

## bench-e2e-smoke: vet and test the nested benchmark/ module (~7 s). It
## imports influmax/internal/{imm,server,cluster,rrr} directly but sits
## outside the root `go test ./...`, so this is what catches a refactor
## that breaks it. CI runs this on every PR.
bench-e2e-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## bench-e2e: the repo's end-to-end + per-layer benchmark, every workload
## (see benchmark/README.md; results land in benchmark/out/).
bench-e2e:
	bash benchmark/run.sh

clean:
	$(GO) clean ./...
