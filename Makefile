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

# Rule-inference perf trajectory: run the RuleInference benches (serial
# oracle, parallel, indexed with the corpus-scaling axis) and record the
# machine-readable results so speedups/regressions are tracked across PRs.
bench-rules:
	$(GO) test -run '^$$' -bench=RuleInference -benchmem -json . > BENCH_rules.json.tmp && mv BENCH_rules.json.tmp BENCH_rules.json
	./scripts/bench_summary.sh BENCH_rules.json
	@grep -o '"Output":"[^"]*"' BENCH_rules.json | sed 's/^"Output":"//;s/"$$//' | \
		awk '{gsub(/\\t/,"\t");gsub(/\\n/,"\n");printf "%s",$$0}' | grep 'ns/op'

# Batch-scan perf trajectory: the serial and NumCPU-worker fleet scans,
# recorded machine-readably like bench-rules so scan throughput is
# tracked across PRs.
bench-scan:
	$(GO) test -run '^$$' -bench=BatchScan -benchmem -json . > BENCH_scan.json.tmp && mv BENCH_scan.json.tmp BENCH_scan.json
	./scripts/bench_summary.sh BENCH_scan.json
	@grep -o '"Output":"[^"]*"' BENCH_scan.json | sed 's/^"Output":"//;s/"$$//' | \
		awk '{gsub(/\\t/,"\t");gsub(/\\n/,"\n");printf "%s",$$0}' | grep 'ns/op'

# Per-image check-path perf trajectory: the legacy detector, the
# profile-backed detector, and the compiled check plan on the same corpus
# and target, recorded machine-readably like bench-scan. The plan/legacy
# ratio is the allocation-diet headline.
bench-check:
	$(GO) test -run '^$$' -bench='DetectorCheck|ProfileCheck|PlanCheck' -benchmem -json . > BENCH_check.json.tmp && mv BENCH_check.json.tmp BENCH_check.json
	./scripts/bench_summary.sh BENCH_check.json
	@grep -o '"Output":"[^"]*"' BENCH_check.json | sed 's/^"Output":"//;s/"$$//' | \
		awk '{gsub(/\\t/,"\t");gsub(/\\n/,"\n");printf "%s",$$0}' | grep 'ns/op'

# Plan cold-start trajectory: decoding the binary plan vs compiling from
# the JSON profile vs a full re-learn (all three starting from serialized
# bytes), plus the incremental-vs-full inference pair. The binary-load /
# compile-from-profile and binary-load / full-relearn ratios are the
# format's reason to exist; eyeball them when this file changes.
bench-plan:
	$(GO) test -run '^$$' -bench='PlanColdStart|IncrementalInfer' -benchmem -json . > BENCH_plan.json.tmp && mv BENCH_plan.json.tmp BENCH_plan.json
	./scripts/bench_summary.sh BENCH_plan.json
	@grep -o '"Output":"[^"]*"' BENCH_plan.json | sed 's/^"Output":"//;s/"$$//' | \
		awk '{gsub(/\\t/,"\t");gsub(/\\n/,"\n");printf "%s",$$0}' | grep 'ns/op'

# Resident-daemon throughput trajectory: full-stack scan requests over
# real HTTP (decode + registry load + Plan.Check + report render),
# recorded machine-readably like the other bench families. ns/op is the
# request latency floor; allocs/op the per-request allocation budget.
bench-serve:
	$(GO) test -run '^$$' -bench=ServeScan -benchmem -json ./internal/serve > BENCH_serve.json.tmp && mv BENCH_serve.json.tmp BENCH_serve.json
	./scripts/bench_summary.sh BENCH_serve.json
	@grep -o '"Output":"[^"]*"' BENCH_serve.json | sed 's/^"Output":"//;s/"$$//' | \
		awk '{gsub(/\\t/,"\t");gsub(/\\n/,"\n");printf "%s",$$0}' | grep 'ns/op'

# Fleet-scale perf trajectory: the sharded coordinator over 1k/10k/100k
# synthetic fleets, recorded machine-readably like the other bench
# families. ns/image is the throughput headline; peak-heap-bytes staying
# flat across the 1k→100k axis is the constant-memory claim, and
# steals/op shows the work-stealing deques actually engage.
bench-fleet:
	$(GO) test -run '^$$' -bench=FleetScan -benchmem -timeout 30m -json . > BENCH_fleet.json.tmp && mv BENCH_fleet.json.tmp BENCH_fleet.json
	./scripts/bench_summary.sh BENCH_fleet.json
	@grep -o '"Output":"[^"]*"' BENCH_fleet.json | sed 's/^"Output":"//;s/"$$//' | \
		awk '{gsub(/\\t/,"\t");gsub(/\\n/,"\n");printf "%s",$$0}' | grep 'ns/op'

# Refresh every recorded benchmark file in one go.
bench-all: bench-rules bench-scan bench-check bench-plan bench-serve bench-fleet

# One-iteration pass over the recorded benchmark families so CI catches
# bench bit-rot without paying for stable measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench='BatchScan|RuleInference|DetectorCheck|ProfileCheck|PlanCheck|PlanColdStart|IncrementalInfer|FleetScan/images=1000|ImageDecode' \
		-benchtime 1x -benchmem . >/dev/null
	$(GO) test -run '^$$' -bench=ServeScan -benchtime 1x -benchmem ./internal/serve >/dev/null
	@echo "bench-smoke: benchmarks build and run OK"

# Short fuzz pass over each config-parser dialect, the binary plan decoder
# and the image decoder (seed corpora always run as part of tier 1; this
# explores beyond them).
fuzz:
	$(GO) test ./internal/confparse -fuzz FuzzApacheParse -fuzztime 10s
	$(GO) test ./internal/confparse -fuzz FuzzINIParse -fuzztime 10s
	$(GO) test ./internal/confparse -fuzz FuzzSSHDParse -fuzztime 10s
	$(GO) test ./internal/planio -fuzz FuzzPlanDecode -fuzztime 10s
	$(GO) test ./internal/sysimage -fuzz FuzzLoadJSON -fuzztime 10s

fmt:
	gofmt -l .
