GO ?= go

# Build version stamped into the binary (encore -version, /v1/status, and
# the encore_build_info metric). Falls back to "dev" outside a git clone.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)

.PHONY: tier1 tier2 smoke serve-smoke fleet-smoke eval-matrix eval-matrix-smoke build bench bench-rules bench-scan bench-check bench-plan bench-serve bench-fleet bench-all bench-smoke fuzz fmt

# Stamped CLI binary: bin/encore reports $(VERSION) via `encore version`.
build:
	$(GO) build -ldflags "-X main.version=$(VERSION)" -o bin/encore ./cmd/encore

# Tier 1: the gate every change must keep green — build + full test suite.
tier1:
	$(GO) build ./... && $(GO) test ./...

# Tier 2: static analysis + the full suite under the race detector, then
# an end-to-end smoke of the CLI telemetry exporters. The parallel
# assembly, rule inference, batch scan, and eval paths all run real
# goroutine pools, so tier 2 is where data races would surface.
tier2:
	$(GO) vet ./... && $(GO) test -race ./... && $(MAKE) smoke

# Smoke: generate a small corpus, scan it with the JSON snapshot and
# Chrome trace exporters on, and check both documents materialize.
SMOKE_DIR := $(or $(TMPDIR),/tmp)/encore-smoke
smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/imagegen -app mysql -n 8 -seed 7 -out $(SMOKE_DIR)/training
	$(GO) run ./cmd/imagegen -app mysql -n 4 -seed 91 -out $(SMOKE_DIR)/targets
	$(GO) run ./cmd/encore scan -training $(SMOKE_DIR)/training -targets $(SMOKE_DIR)/targets \
		-stats-json $(SMOKE_DIR)/stats.json -trace-out $(SMOKE_DIR)/trace.json >/dev/null
	grep -q '"version": 2' $(SMOKE_DIR)/stats.json
	grep -q '"traceEvents"' $(SMOKE_DIR)/trace.json
	$(GO) run ./cmd/encore compile -training $(SMOKE_DIR)/training -plan-out $(SMOKE_DIR)/app.plan
	head -c 4 $(SMOKE_DIR)/app.plan | grep -q ENCP
	$(GO) run ./cmd/encore scan -plan $(SMOKE_DIR)/app.plan -targets $(SMOKE_DIR)/targets >/dev/null
	head -c 4 internal/planio/testdata/plan_v1.golden | grep -q ENCP
	$(GO) run ./cmd/evaluate -matrix -seed 5 -matrix-training 10 -matrix-victims 1 -matrix-per-victim 2 \
		-matrix-pops apache -matrix-kinds name-typo -matrix-configs plan-default \
		-matrix-out $(SMOKE_DIR)/matrix.json >/dev/null
	grep -q '"version": 1' $(SMOKE_DIR)/matrix.json
	@echo "smoke: telemetry exporters + matrix JSON OK"

# Serve smoke: boot the resident daemon on a random port, upload a plan,
# scan a misconfigured image, assert findings + per-app metrics labels,
# then SIGTERM it and require a clean exit.
serve-smoke:
	VERSION=$(VERSION) ./scripts/serve_smoke.sh

# Fleet smoke: push a 1k synthetic fleet through the sharded CLI path
# and the daemon's NDJSON batch endpoint, asserting the encore_fleet_*
# metric families on both.
fleet-smoke:
	VERSION=$(VERSION) ./scripts/fleet_smoke.sh

# Regenerate the checked-in evaluation matrix: every error class × every
# app population × every detector configuration at the default seed.
# Byte-reproducible — commit the refreshed EVAL_matrix.json whenever a
# change intentionally moves detection quality.
eval-matrix:
	$(GO) run ./cmd/evaluate -matrix -seed 1 -matrix-out EVAL_matrix.json
	grep -q '"version": 1' EVAL_matrix.json

# Small matrix for CI: 2 populations × 3 kinds × 2 configs, then the
# full-grid regression gate against the checked-in EVAL_matrix.json.
eval-matrix-smoke:
	$(GO) run ./cmd/evaluate -matrix -seed 1 -matrix-training 12 -matrix-victims 2 -matrix-per-victim 3 \
		-matrix-pops apache,mysql -matrix-kinds name-typo,numeric,boolean-flip \
		-matrix-configs plan-default,baseline -matrix-out EVAL_matrix_smoke.json
	grep -q '"version": 1' EVAL_matrix_smoke.json
	$(GO) test -run TestMatrixRegressionGate ./internal/evalmatrix
	@echo "eval-matrix-smoke: grid + regression gate OK"

bench:
	$(GO) test -bench=. -benchmem .

# bench-run records one benchmark family into BENCH_$(1).json: $(2) is
# the -bench pattern, $(3) the package, $(4) extra go test flags. Every
# family runs five times at GOMAXPROCS=1 and at every core, so the
# summary's median/min/max carry the spread and the -N suffix names the
# condition. The capture lands in a .tmp file renamed into place, so a
# failed run never truncates the recorded file.
define bench-run
	$(GO) test -run '^$$' -bench='$(2)' -benchmem -count 5 -cpu 1,$$(getconf _NPROCESSORS_ONLN) $(4) -json $(3) > BENCH_$(1).json.tmp && mv BENCH_$(1).json.tmp BENCH_$(1).json
	./scripts/bench_summary.sh BENCH_$(1).json
	@grep -o '"Output":"[^"]*"' BENCH_$(1).json | sed 's/^"Output":"//;s/"$$//' | \
		awk '{gsub(/\\t/,"\t");gsub(/\\n/,"\n");printf "%s",$$0}' | grep 'ns/op'
endef

# Rule-inference perf trajectory: the RuleInference benches (serial
# oracle, parallel, indexed with the corpus-scaling axis).
bench-rules:
	$(call bench-run,rules,RuleInference,.)

# Batch-scan perf trajectory: the scan engine (fleet coordinator over
# resident images) at 1 and NumCPU workers, plus the corpus-size ×
# worker-count surface.
bench-scan:
	$(call bench-run,scan,BatchScan,.)

# Per-image check-path perf trajectory: the legacy detector, the
# profile-backed detector, and the compiled check plan on the same corpus
# and target. The plan/legacy ratio is the allocation-diet headline.
bench-check:
	$(call bench-run,check,DetectorCheck|ProfileCheck|PlanCheck,.)

# Plan cold-start trajectory: decoding the binary plan vs compiling from
# the JSON profile vs a full re-learn (all three starting from serialized
# bytes), plus the incremental-vs-full inference pair. The binary-load /
# compile-from-profile and binary-load / full-relearn ratios are the
# format's reason to exist; eyeball them when this file changes.
bench-plan:
	$(call bench-run,plan,PlanColdStart|IncrementalInfer,.)

# Resident-daemon throughput trajectory: full-stack scan requests over
# real HTTP (decode + registry load + Plan.Check + report render). ns/op
# is the request latency floor; allocs/op the per-request allocation
# budget.
bench-serve:
	$(call bench-run,serve,ServeScan,./internal/serve)

# Fleet-scale perf trajectory: the sharded coordinator over 1k/10k/100k
# synthetic fleets. ns/image is the throughput headline; peak-heap-bytes
# staying flat across the 1k→100k axis is the constant-memory claim, and
# steals/op shows the work-stealing deques actually engage.
bench-fleet:
	$(call bench-run,fleet,FleetScan,.,-timeout 30m)

# Refresh every recorded benchmark file in one go.
bench-all: bench-rules bench-scan bench-check bench-plan bench-serve bench-fleet

# One-iteration pass over the recorded benchmark families so CI catches
# bench bit-rot without paying for stable measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench='BatchScan|RuleInference|DetectorCheck|ProfileCheck|PlanCheck|PlanColdStart|IncrementalInfer|FleetScan/images=1000|ImageDecode' \
		-benchtime 1x -benchmem . >/dev/null
	$(GO) test -run '^$$' -bench=ServeScan -benchtime 1x -benchmem ./internal/serve >/dev/null
	@echo "bench-smoke: benchmarks build and run OK"

# Short fuzz pass over each config-parser dialect, the binary plan decoder,
# the image decoder, and the hand-written type matchers against their
# regexp oracle (seed corpora always run as part of tier 1; this explores
# beyond them).
fuzz:
	$(GO) test ./internal/confparse -fuzz FuzzApacheParse -fuzztime 10s
	$(GO) test ./internal/confparse -fuzz FuzzINIParse -fuzztime 10s
	$(GO) test ./internal/confparse -fuzz FuzzSSHDParse -fuzztime 10s
	$(GO) test ./internal/planio -fuzz FuzzPlanDecode -fuzztime 10s
	$(GO) test ./internal/sysimage -fuzz FuzzLoadJSON -fuzztime 10s
	$(GO) test ./internal/conftypes -fuzz FuzzSyntacticMatch -fuzztime 10s

# Fail when any Go file is not gofmt-clean, listing the offenders.
fmt:
	@files=$$(gofmt -l .); [ -z "$$files" ] || { echo "gofmt needed on:"; echo "$$files"; exit 1; }
