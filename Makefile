GO ?= go

.PHONY: check ci ci-gate ci-heavy vet obliviouslint lint-sarif report-check \
	build cross-build test test-purego test-amd64v3 bench-build race fmt-check \
	fuzz-short fuzz-long leakcheck soak-short soak-long plan-sim bench bench-all

check: vet obliviouslint build test race

# ci mirrors .github/workflows/ci.yml exactly — same targets, same order —
# so a green `make ci` locally means a green pipeline, and the two can't
# drift: every workflow job is a single `make` invocation of these targets.
#
# Staged: ci-gate is the fast correctness gate (seconds to a couple of
# minutes) that both Go versions in the CI matrix run and every expensive
# job waits on; ci-heavy is the fan-out the workflow runs in parallel once
# the gate is green. Locally the split just means a broken build fails in
# the cheap stage instead of after a soak.
#
# report-check runs before obliviouslint on purpose: the obliviouslint
# target overwrites obliviouslint_report.json, so the committed artifact
# must be compared against a fresh run before that target gets a chance
# to paper over any drift.
ci: ci-gate ci-heavy
ci-gate: fmt-check vet report-check obliviouslint build cross-build test test-purego test-amd64v3 bench-build
ci-heavy: race fuzz-short leakcheck soak-short plan-sim bench

# vet runs the stock go vet suite, with unusedresult's function list
# extended from vet's default by the repo's pure helpers (fmt.Sprintln
# onward), then layers the strict in-repo shadow analyzer on top.
vet:
	$(GO) vet -unusedresult.funcs=context.WithCancel,context.WithDeadline,context.WithTimeout,context.WithValue,errors.New,fmt.Errorf,fmt.Sprint,fmt.Sprintf,slices.Clip,slices.Compact,slices.CompactFunc,slices.Delete,slices.DeleteFunc,slices.Grow,slices.Insert,slices.Replace,sort.Reverse,fmt.Sprintln,sort.SliceIsSorted,strings.TrimSpace,strings.ToLower,strings.ToUpper,strings.Repeat,strconv.Itoa,strconv.Quote ./...
	$(GO) run ./cmd/obliviouslint -vet ./...

# obliviouslint proves secret-independence statically: every unwaived
# finding (secret-tainted branch, index, loop bound, call or return, or an
# amd64 assembly kernel that branches on or addresses with a declared
# secret) fails the build. The JSON findings report is uploaded by CI as an
# artifact.
obliviouslint:
	$(GO) run ./cmd/obliviouslint -v -json obliviouslint_report.json ./...

# lint-sarif renders the same audit as SARIF 2.1.0 for GitHub code
# scanning: findings become error-level results, waivers become inSource
# suppressions with the //lint:allow rationale as justification, so the
# security tab shows the full audit state, not just the failures.
lint-sarif:
	$(GO) run ./cmd/obliviouslint -sarif obliviouslint.sarif ./...

# report-check gives the committed audit artifacts teeth: a fresh run of
# obliviouslint and leakcheck must agree byte-for-byte with the checked-in
# obliviouslint_report.json / leakcheck_report.json. A mismatch means the
# code (or its waivers) changed without regenerating the artifact — the
# audit trail in the repo no longer describes the tree — so the gate fails
# with instructions instead of letting the stale report ride along.
report-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' 0; \
	$(GO) run ./cmd/obliviouslint -json "$$tmp/obliviouslint.json" ./... >/dev/null; \
	diff -u obliviouslint_report.json "$$tmp/obliviouslint.json" || { \
		echo "report-check: obliviouslint_report.json is stale — run 'make obliviouslint' and commit the result"; exit 1; }; \
	$(GO) run ./cmd/leakcheck -src . -out "$$tmp/leakcheck.json" >/dev/null; \
	diff -u leakcheck_report.json "$$tmp/leakcheck.json" || { \
		echo "report-check: leakcheck_report.json is stale — run 'make leakcheck' and commit the result"; exit 1; }

build:
	$(GO) build ./...

# cross-build compiles the module and bench/ for two other architectures:
# arm64, where there is no assembly and the scalar loops of OrTile and
# ScanBlock and the SWAR quantized kernel are the only paths, and 386,
# where int is 32 bits wide.
cross-build:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...
	cd bench && GOARCH=arm64 $(GO) build ./... && GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

# test-purego runs the packages with assembly kernels, and the packages
# that call them, on their portable Go paths: the purego tag leaves the
# amd64 assembly of internal/oblivious and internal/tensor out, as arm64
# does.
test-purego:
	$(GO) test -tags purego ./internal/oblivious ./internal/core ./internal/oram \
		./internal/tensor ./internal/nn ./internal/dhe

# test-amd64v3 runs the float kernels' packages built for x86-64-v3, where
# the compiler may use FMA. The AVX2 quantized kernel multiplies and adds
# without fusing, so a compiler that fused its Go reference (or the SWAR
# epilogue) would split the two paths apart; this leg catches that.
test-amd64v3:
	GOAMD64=v3 $(GO) test ./internal/tensor ./internal/nn ./internal/dhe ./internal/hashenc

# bench-build compiles and tests the repo's benchmark against this tree.
# bench/ is a nested module (own go.mod, replace secemb => ../), so the
# root build and test above never see it, and an API change here could
# break it unnoticed. ≈4 s.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/tensor ./internal/nn ./internal/obs ./internal/serving \
		./internal/serving/backends ./internal/core ./internal/dhe ./internal/dlrm \
		./internal/wire ./internal/frontdoor ./internal/leakcheck ./internal/planner ./internal/cli \
		./internal/profile ./cmd/secembd ./cmd/dlrmbench ./cmd/llmbench

# fmt-check fails (listing offenders) when any file needs gofmt.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt required on:"; echo "$$files"; exit 1; fi

# fuzz-short runs each fuzz target briefly — a smoke pass for CI, not a
# campaign. One invocation per package because -fuzz takes a single target.
FUZZTIME ?= 20s
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzEq -fuzztime=$(FUZZTIME) ./internal/oblivious
	$(GO) test -run='^$$' -fuzz=FuzzCondCopy -fuzztime=$(FUZZTIME) ./internal/oblivious
	$(GO) test -run='^$$' -fuzz=FuzzScanKernel -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzQuantKernel -fuzztime=$(FUZZTIME) ./internal/tensor
	$(GO) test -run='^$$' -fuzz=FuzzORAMOps -fuzztime=$(FUZZTIME) ./internal/oram
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDecode -fuzztime=$(FUZZTIME) ./internal/token
	$(GO) test -run='^$$' -fuzz=FuzzParseCriteoLine -fuzztime=$(FUZZTIME) ./internal/data
	$(GO) test -run='^$$' -fuzz=FuzzParseRequest -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzParseResponse -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzInstallCostModelFile -fuzztime=$(FUZZTIME) ./internal/profile
	$(GO) test -run='^$$' -fuzz=FuzzLoadDB -fuzztime=$(FUZZTIME) ./internal/profile

# fuzz-long is the nightly campaign: same targets, minutes instead of
# seconds per target.
fuzz-long:
	$(MAKE) fuzz-short FUZZTIME=5m

# leakcheck runs the trace-equivalence leakage audit over every generator
# and writes the JSON divergence report CI uploads as an artifact. -src .
# additionally cross-checks every secemb:audit annotation against the
# dynamic roster, so static claims of coverage can't outrun the harness.
leakcheck:
	$(GO) run ./cmd/leakcheck -src . -out leakcheck_report.json

# soak-short is the CI-scale front-door soak: a self-hosted secembd over
# the Dual-DHE group, a few hundred concurrent TLS+h2 connections (-tls
# self-signs an ephemeral cert, exercising the deployment transport) for a
# few seconds, gated on p99 latency and shed rate. The full acceptance run
# (≥1000 conns, ≥60s — see README) uses the same command with bigger
# -conns/-duration.
SOAK_CONNS ?= 256
SOAK_DURATION ?= 5s
soak-short:
	$(GO) run ./cmd/secembd -soak -tls -technique dual -rows 1024 -dim 32 -threshold 4 \
		-backends 2 -conns $(SOAK_CONNS) -duration $(SOAK_DURATION) -batch 2 \
		-max-p99 500ms -max-shed 0.05 -min-requests 1000

# soak-long is the nightly/acceptance run from the README: ≥1000
# connections for ≥60s, planner-managed so several re-plan windows (and any
# hot-swaps they trigger) happen under production-shaped load.
soak-long:
	$(GO) run ./cmd/secembd -soak -tls -plan -plan-interval 10s -rows 4096 -dim 64 \
		-backends 4 -conns 1000 -duration 60s -batch 2 \
		-max-p99 500ms -max-shed 0.05 -min-requests 10000

# plan-sim is the headless per-shard planner regression: the dlrmbench
# shard-skew drifting workload (deterministic seed) must end with ≥2
# shards of one table converged to distinct techniques — the tentpole
# behavior of planner v2. A regression in the sampler's per-shard streams,
# the crossover model, or the independent swap lifecycle collapses the
# shards onto one technique and -plan-assert exits non-zero.
plan-sim:
	$(GO) run ./cmd/dlrmbench -plan -plan-assert -autotune off -seed 1

# bench runs the per-layer probes of the repo's benchmark (bench/README.md)
# and prints their metrics; it exits non-zero if a probe errors. Report-only:
# nothing is committed and there is no tolerance to tune. Timing regressions
# are judged by the paired-run protocol in bench/README.md, allocation
# regressions by the exact AllocsPerRun tests `make test` runs.
bench:
	bash bench/run.sh -mode probe

# bench-all runs every Benchmark* function once, including the per-figure
# reproductions in the root package.
bench-all:
	$(GO) test -bench=. -benchmem ./...
