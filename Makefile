GO ?= go

.PHONY: build build-arm64 vet test race fuzz detect-smoke bce bench-smoke bench-check ab soak soak-smoke fleet-smoke trace-smoke lint loc check

build:
	$(GO) build ./...

# The assembly kernels are amd64-only; everywhere else internal/nn builds
# panel_other.go's stubs and serves through the portable Go kernels.
# Nothing else compiles that side, so a kernel declared in panel_amd64.go
# and forgotten in panel_other.go would go unnoticed: cross-build the
# tree and vet the kernel package (stub signatures included) for arm64.
build-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/nn

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the packages with concurrency: the UDP transport + chaos
# harness, the kernels, the model core and its serving lane, the sharded
# engine, the parallel ingest pipeline, the telemetry registry, the
# feature extractor with the registries it reads (blocklists, attack
# history, spoof checker) — the only state shard goroutines share on every
# step —, the serving node (its gap-filling sink is fed by every
# aggregation worker) and the root-package integration tests.
race:
	$(GO) test -race ./internal/netflow ./internal/nn ./internal/core ./internal/engine ./internal/ingest ./internal/cluster ./internal/telemetry ./internal/trace \
		./internal/features ./internal/attackhist ./internal/blocklist ./internal/spoof .

# The float32 serving kernels (quantized panel matmuls, gate
# nonlinearities, widen/narrow) and the batched training kernels (tape
# forward/backward, gradient matmuls, sparse input projection) must compile
# with zero per-element bounds checks: these files are the inner loops of
# every online detection step and every training step. The compiler's
# check_bce debug pass prints every check it could not prove away; any
# `Found IsInBounds` in the named kernel files fails the build. One-time
# slice-header constructions (IsSliceInBounds, O(1) per kernel call) are
# setup cost, not inner-loop cost, and are not gated. The non-zero-column
# kernels' data-dependent loads (panel32.go: the column list built by
# NonZero32, followed by panelMulNZgo) are in the gated files and proven
# by explicit length guards, not excluded. Load-time quantization
# (quantize32.go), the dynamic-index gather/scatter loops of the serving
# lane (core/batchrunner32.go), and the once-per-chunk strided transposes
# (nn/transpose.go) are deliberately excluded.
BCE_KERNELS := internal/nn/f32.go internal/nn/panel32.go internal/nn/lstm32.go \
	internal/nn/batchgrad.go internal/nn/batchtape.go internal/nn/sparsetrain.go
bce:
	@out=$$($(GO) build -gcflags='-d=ssa/check_bce' ./internal/nn/ ./internal/core/ 2>&1 \
		| grep 'Found IsInBounds' \
		| grep -E 'nn/f32\.go|nn/panel32\.go|nn/lstm32\.go|nn/batchgrad\.go|nn/batchtape\.go|nn/sparsetrain\.go' || true); \
	if [ -n "$$out" ]; then \
		echo "bounds checks in hot kernels ($(BCE_KERNELS)):"; \
		echo "$$out"; exit 1; \
	fi; \
	echo "bce: hot serving and training kernels are bounds-check-free"

# Static analysis: vet + gofmt always; staticcheck when installed (CI
# installs it, local machines may not have it).
lint: vet
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

# Go source size outside the benchmark module (bench/), the figure a
# simplicity change is measured by: all lines, then non-test lines. Fails
# when the non-test count exceeds the budget in scripts/loc-budget; a
# change that raises the budget says why in CHANGES.md.
loc:
	@files=$$(find . -name '*.go' -not -path './bench/*' -not -path './.*'); \
	nontest=$$(cat $$(echo "$$files" | grep -v '_test\.go$$') | wc -l); \
	budget=$$(cat scripts/loc-budget); \
	echo "go lines outside bench/: $$(cat $$files | wc -l) total, $$nontest non-test (budget $$budget)"; \
	if [ "$$nontest" -gt "$$budget" ]; then \
		echo "loc: $$nontest non-test lines exceed the budget of $$budget (scripts/loc-budget)"; exit 1; fi

# One-iteration pass over every microbenchmark: catches benchmarks that no
# longer compile or crash without paying for real measurement. They are
# working tools, not baselines: performance claims are made with the
# packet-to-verdict benchmark (bench/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The packet-to-verdict benchmark (bench/, BENCHMARK.json) is its own
# module, so `build`, `vet` and `test` above never compile it: without this
# target an API it uses can be renamed and nothing fails until a benchmark
# run does. Vet it, run its tests, and run every workload at smoke size
# through its correctness gates (~20 s).
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	bash bench/run.sh -smoke

# A/B comparison of the packet-to-verdict benchmark: REV (default HEAD)
# against the working tree in alternating pairs, printing the -compare
# table and wins/N per metric (scripts/ab). AB_ARGS passes -pairs,
# -workloads, -seed, -trace, -seconds, -smoke or -aa (the working tree
# against itself: the noise floor). E.g.
#   make ab REV=main AB_ARGS='-pairs 5 -workloads narrow_flood -seed 2'
REV ?= HEAD
AB_ARGS ?=
ab:
	bash scripts/ab $(REV) $(AB_ARGS)

# The acceptance harness (cmd/xatu-fleet): train in-process, replay the
# simulated test window through coordinator -> table-following router ->
# seeded chaos UDP -> engine nodes under a schedule of events, and compare
# each matched episode's detection step from the coordinator's fan-in with
# a baseline run of the same path (±5 steps outside 30-step settle
# windows, and at least one episode compared). The scenarios differ only
# in schedule:
# - `fleet-smoke` (churn, 2-day world): 1 node, a live join at 2 nodes,
#   and join/rebalance/kill/rejoin at 4; live migration must happen;
# - `trace-smoke`: the 2-node run at 1/64 flow tracing must yield
#   coordinator-assembled cross-node timelines (export->seal->step on the
#   nodes joined with the fan-in span), and an in-process exporter->ingest
#   replay must hold tracing-on throughput within 5% of tracing-off
#   (median of paired runs);
# - `soak-smoke` / `soak` (chaos): a 1-node fleet under loss, dup and
#   reorder ramps, injected shard panics, a live checkpoint/restore and a
#   forced degradation drill, against a clean 1-node run; one supervised
#   restart per panic, healthy at the end, and a flight-recorder dump per
#   panic and health change. `soak` is the full 14-day schedule that
#   regenerates the committed BENCH_soak.json; `soak-smoke` the CI cut-down
#   (one loss ramp, one panic).
soak:
	$(GO) run ./cmd/xatu-fleet -soak -days 14 -assert -out BENCH_soak.json > /dev/null

soak-smoke:
	$(GO) run ./cmd/xatu-fleet -soak -smoke -assert -out /tmp/BENCH_soak_smoke.json > /dev/null

fleet-smoke:
	$(GO) run ./cmd/xatu-fleet -smoke -assert > /dev/null

trace-smoke:
	$(GO) run ./cmd/xatu-fleet -smoke -assert -trace 64 > /dev/null

# Short fuzz pass over every reader of bytes from the wire or disk: the
# NetFlow v5 decoder, the XTR1 trace-trailer probe, the journal (writer
# round trip and reader), the model reader, the detector-state readers
# (XSC1 stream, XMC1 monitor checkpoints, and XMC1's version-2 shard
# framing through Engine.Restore and RestoreCustomers) and the three
# registry files xatu-detect loads next to the models (blocklists.txt,
# routes.txt, history.snap); the WAL's vector encoding, which must
# round-trip every float64 bit pattern; a serving node's control plane
# (/v1/table and /v1/steps bodies, then a routed step), on a standalone
# node that dials no peer; and the coordinator's (join, heartbeat, leave
# and alert bodies), which must serve only routable tables and never hold
# one alert identity twice. Ten seconds each from the
# committed seed corpora (CI smoke; run longer locally with -fuzztime as
# needed). The model reader may legitimately allocate a model of up to
# 1<<24 parameters for a mutated header, so it fuzzes on one worker.
fuzz:
	$(GO) test ./internal/netflow -run '^$$' -fuzz FuzzDecodeV5 -fuzztime 10s
	$(GO) test ./internal/netflow -run '^$$' -fuzz FuzzParseTrailerV1 -fuzztime 10s
	$(GO) test ./internal/netflow -run '^$$' -fuzz FuzzJournalRoundTrip -fuzztime 10s
	$(GO) test ./internal/netflow -run '^$$' -fuzz FuzzJournalReader -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLoad -fuzztime 10s -parallel 1
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRestoreStream -fuzztime 10s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzMonitorRestore -fuzztime 10s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzEngineRestore -fuzztime 10s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzWALVector -fuzztime 10s
	$(GO) test ./internal/blocklist -run '^$$' -fuzz FuzzBlocklistLoadText -fuzztime 10s
	$(GO) test ./internal/routing -run '^$$' -fuzz FuzzRoutingLoadText -fuzztime 10s
	$(GO) test ./internal/attackhist -run '^$$' -fuzz FuzzAttackhistLoad -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzNodeControl -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzCoordinatorControl -fuzztime 10s

# xatu-detect's two inputs and two modes end to end: a tiny model, then the
# steps around ispgen's first attack as a journal through -replay, as
# NetFlow v5 over loopback UDP into a live detector stopped with SIGINT,
# and as the journal through -replay on a one-node fleet under xatu-coord.
# All three must print the same non-empty set of ALERT lines, and the live
# run must lose no record and decode every datagram (~5 s;
# scripts/detect-smoke.sh).
detect-smoke:
	bash scripts/detect-smoke.sh

check: build build-arm64 lint loc bce test race bench-check detect-smoke fleet-smoke trace-smoke soak-smoke
