GO ?= go
GOFMT ?= gofmt

.PHONY: all build test race vet lint lint-tools bench-smoke chaos-smoke sim-medium examples-smoke cover ci

all: build test vet lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check every internal package. The concurrency-bearing ones (the
# parallel experiment runner, the simulation engine it fans out, the
# pipelined TCP client/server, the cluster harness, the fault injector,
# the metrics registry) are where races live, but a blanket ./internal/...
# means a new package can never silently ship outside the race gate.
race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# Pinned external lint tool versions. `make lint-tools` installs
# exactly these, so CI and developer machines run the same checks;
# bump the pins deliberately, in their own commit.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Repo-specific invariants (wall clock and map order in the
# deterministic packages, obs nil-sink discipline, no blocking I/O under
# locks, no sync/atomic package functions, lock ordering, goroutine
# shutdown paths) enforced by the custom
# multichecker, plus staticcheck and govulncheck when they are
# installed (at the pinned versions above, via `make lint-tools`). The
# multichecker is the hard gate; the external tools are best-effort so
# the target works on a bare toolchain. `ibridge-vet -json` emits the
# same findings machine-readably for CI annotation. First of all, every
# Go file must be gofmt-clean: a non-empty `gofmt -l` fails the target.
lint:
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt would reformat (run 'gofmt -w' on them):"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/ibridge-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; run 'make lint-tools' to install $(STATICCHECK_VERSION); skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; run 'make lint-tools' to install $(GOVULNCHECK_VERSION); skipping"; \
	fi

# Quick hot-path numbers: the engine (events/sec, allocs/op), the
# block layer's cost per request (one submitter, CFQ and FIFO), the
# cache table's per-tick cost at 1,000 and 10,000 entries, the live
# wire path's MB/s and B/op for 8 MB striped reads and writes, and its
# cost per request with many concurrent callers on one client (32 small
# reads, 8 mixed fragment/aligned), which pay one round trip each.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkDirtyAccounting|BenchmarkQueueDispatch' -benchmem ./internal/sim/ ./internal/core/ ./internal/iosched/
	$(GO) test -run '^$$' -bench 'BenchmarkPfsnetLarge(Transfer|Write)$$' -benchtime=20x -benchmem ./internal/pfsnet/
	$(GO) test -run '^$$' -bench 'BenchmarkPfsnet(SmallSubreqs|MixedFragmentAligned)$$' -benchtime=2s -benchmem ./internal/pfsnet/

# Chaos gate: the live TCP cluster on log-backed (crash-consistent)
# servers under a canned fault plan (one server crash+restart plus 1%
# connection resets) must complete with every byte verified, and two
# runs of the same plan must print an identical chaos summary —
# injected-fault, replay and retry/breaker counts reproducible from the
# seed. The first run also records per-process trace spans (span counts
# are timing-dependent, so they print before the summary and stay out of
# the reproducibility diff); the merged Chrome trace lands in
# chaos-trace.json for chrome://tracing and is uploaded as a CI artifact.
# Then the kill-at-every-Kth-op recovery loop (cmd/logstore-chaos)
# crashes a logstore mid-append on every Kth write, reopens, replays,
# and byte-verifies — its RECOVERY SUMMARY stays in recovery-summary.txt
# for the CI artifact upload and must also be run-to-run identical.
# Both summaries must also equal their committed copies in testdata/, so
# a change to any retry, breaker or recovery count updates a golden
# file on purpose.
CHAOS_PLAN = seed=42; reset=1%; crash=srv1@60+60
chaos-smoke:
	$(GO) run ./examples/livecluster -faults '$(CHAOS_PLAN)' -spans-dir chaos-spans | sed -n '/CHAOS SUMMARY/,$$p' > chaos-run1.txt
	$(GO) run ./examples/livecluster -faults '$(CHAOS_PLAN)' | sed -n '/CHAOS SUMMARY/,$$p' > chaos-run2.txt
	@grep -q 'chaos: completed, data verified' chaos-run1.txt || { echo "chaos-smoke: run did not complete"; exit 1; }
	@diff chaos-run1.txt chaos-run2.txt || { echo "chaos-smoke: summaries differ across identical runs"; exit 1; }
	@diff testdata/chaos-summary.golden chaos-run1.txt || { echo "chaos-smoke: summary differs from testdata/chaos-summary.golden"; exit 1; }
	$(GO) run ./cmd/ibridge-trace -merge -o chaos-trace.json chaos-spans/*.spans
	@echo "chaos-smoke: log-store cluster byte-verified, reproducible:"; cat chaos-run1.txt
	@echo "chaos-smoke: merged trace in chaos-trace.json (load in chrome://tracing)"
	@rm -rf chaos-spans chaos-run1.txt chaos-run2.txt
	$(GO) run ./cmd/logstore-chaos | sed -n '/RECOVERY SUMMARY/,$$p' > recovery-summary.txt
	$(GO) run ./cmd/logstore-chaos | sed -n '/RECOVERY SUMMARY/,$$p' > recovery-run2.txt
	@grep -q 'zero data loss' recovery-summary.txt || { echo "chaos-smoke: recovery loop did not complete"; exit 1; }
	@diff recovery-summary.txt recovery-run2.txt || { echo "chaos-smoke: recovery summaries differ across identical runs"; exit 1; }
	@diff testdata/recovery-summary.golden recovery-summary.txt || { echo "chaos-smoke: recovery summary differs from testdata/recovery-summary.golden"; exit 1; }
	@echo "chaos-smoke: kill-at-every-Kth-op recovery loop byte-verified, reproducible:"; cat recovery-summary.txt
	@rm -f recovery-run2.txt

# Simulation gate: the whole evaluation at medium scale must print
# exactly the recorded results_medium.txt (stdout only; host timings go
# to stderr, and the bytes do not depend on -jobs). A change meant to
# move simulated numbers regenerates the file in the same commit and
# says which rows moved. About 20 s on 2 cores.
sim-medium:
	$(GO) run ./cmd/ibridge-bench -exp all -scale medium > sim-medium.txt
	@diff results_medium.txt sim-medium.txt || { echo "sim-medium: output differs from results_medium.txt"; exit 1; }
	@rm -f sim-medium.txt
	@echo "sim-medium: -exp all -scale medium matches results_medium.txt"

# Example gate: the four simulator examples, the public callers of
# cluster.Run and workload.Combine, must print exactly their recorded
# stdout in testdata/examples (their output is deterministic). Well
# under a second together.
EXAMPLES = quickstart unaligned heterogeneous tracereplay
examples-smoke:
	@for ex in $(EXAMPLES); do \
		$(GO) run ./examples/$$ex > examples-$$ex.txt || exit 1; \
		cmp testdata/examples/$$ex.txt examples-$$ex.txt || { echo "examples-smoke: $$ex differs from testdata/examples/$$ex.txt"; exit 1; }; \
		rm -f examples-$$ex.txt; \
	done
	@echo "examples-smoke: $(EXAMPLES) match testdata/examples"

# Coverage across all packages, with an HTML report in cover.html.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -html=cover.out -o cover.html
	$(GO) tool cover -func=cover.out | tail -1

# The full gate: vet, the invariant lint suite, race on the
# concurrency-bearing packages, the test suite (it includes the engine
# alloc-regression guard), the hot-path bench smoke, the chaos smoke
# (fault-injected live cluster, reproducible summary) and the examples'
# recorded output. Performance is measured by bench/ (see bench/README.md), in
# paired runs against the parent commit, not by this gate.
ci: vet lint race test bench-smoke chaos-smoke examples-smoke
