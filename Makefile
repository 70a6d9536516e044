# Tier-1 gate for the repository (see README "Development"): everything a
# change must pass before merging. `make check` is the one-shot entry.

GO ?= go
FUZZTIME ?= 30s

.PHONY: check fmt vet build test race bench bench-module fuzz-smoke ledger-diff stream-check fabric-check scenario-check cover vuln

check: fmt vet build test race bench bench-module fuzz-smoke ledger-diff stream-check fabric-check scenario-check cover vuln

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole tree under the race detector. This is the gate for
# the parallel execution engine: the determinism suites (faultsim worker
# pool, Eq. 3 row kernels, strategy racing) and the mid-race cancellation
# stress test (TestRaceStrategiesCancelStress) all live in ./... and fail
# here on any data race.
race:
	$(GO) test -race ./...

# bench is a smoke run (fixed iteration count) of the end-to-end pipeline
# benchmarks, including the nil-observer telemetry fast path, of
# Integrate on a 36-process generated scenario per family (with its bytes
# and allocations per call), of the fault-injection trial loop (a
# 50,000-trial campaign on one worker, computed inline, and on two, from
# the worker pool), of the fabric frame codec (result, lease and campaign
# frames, against encoding/json), of a campaign's set-up (its chunk runner and
# fingerprint, from the shipped spec and from the Campaign), of a whole
# 6,400-trial fabric run over the in-process pipe with the telemetry
# relay off and on (with its bytes and allocations per run), of a bus
# publish (nil, live, and one relay-on fabric call's bus from creation to
# close, where the event rings' on-demand growth shows) and of the
# Eq. 3 separation sweep (12–240-row scenario matrices at widths 1 and 2,
# the figures behind its row rule); use `go test -bench=. -benchmem` for
# real measurements.
bench:
	$(GO) test -run NONE -bench 'Integrate(Pipeline|NilObserver|WithObserver)$$' -benchtime 50x .
	$(GO) test -run NONE -bench 'IntegrateGenerated$$' -benchtime 50x -benchmem .
	$(GO) test -run NONE -bench 'CampaignParallel/(1|2)$$' -benchtime 3x .
	$(GO) test -run NONE -bench 'FrameCodec$$' -benchtime 200x -benchmem ./internal/fabric
	$(GO) test -run NONE -bench 'CampaignSetup$$' -benchtime 200x -benchmem ./internal/fabric
	$(GO) test -run NONE -bench 'FabricTelemetry$$' -benchtime 20x -benchmem ./internal/fabric
	$(GO) test -run NONE -bench 'BusPublish$$' -benchtime 2000x -benchmem ./internal/obs
	$(GO) test -run NONE -bench 'SeparationSweep$$' -benchtime 20x -benchmem ./internal/influence

# bench-module vets the end-to-end benchmark harness (its own module in
# bench/, outside ./...) and runs its self-tests: the output checks and
# metric derivations that `bash bench/run.sh` relies on.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# scenario-check is the corpus acceptance gate: every committed scenario
# in testdata/corpus is regenerated from its seed (spec drift fails),
# run through Integrate plus a short fault campaign at Workers 1 and 4,
# and its decision ledger compared byte-for-byte against the committed
# golden, with the measured metrics held inside the recorded envelopes;
# a deliberate one-weight perturbation must be caught as the negative
# control. Under -race every corpus entry doubles as a race probe over
# the sharded generator and pipeline. Regenerate goldens deliberately
# with `go run ./cmd/scenariocheck -update` and commit the diff.
scenario-check:
	$(GO) run -race ./cmd/scenariocheck

# cover prints per-package statement coverage and enforces the floor on
# the scenario generator: internal/scengen below 85% fails the gate (it
# is the workload source every other suite leans on).
cover:
	@out="$$($(GO) test -count=1 -cover ./... )" || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep 'coverage:'; \
	pct="$$(echo "$$out" | awk '$$2 == "repro/internal/scengen" { for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) print substr($$i, 1, length($$i)-1) }')"; \
	if [ -z "$$pct" ]; then echo "cover: no coverage reported for internal/scengen"; exit 1; fi; \
	awk -v p="$$pct" 'BEGIN { if (p+0 < 85) { printf "cover: internal/scengen %.1f%% is below the 85%% floor\n", p; exit 1 } printf "cover: internal/scengen %.1f%% (floor 85%%)\n", p }'

# fabric-check certifies the distributed campaign fabric: the merged
# result of a sharded campaign must be reflect.DeepEqual-identical to a
# local Workers=1 run with 1 and 4 workers, with a worker killed while
# holding a lease (reassignment observed), under a chaos transport that
# drops/duplicates/delays frames, across a coordinator drain +
# frontier-checkpoint resume, with a lying worker quarantined off its
# first corrupt chunk, with unauthenticated/wrong-token dialers rejected
# before any campaign material crosses the wire, with flagless workers
# self-configuring over mutual TLS on real sockets, and with the
# fabric-sharded adversarial search matching the local search. Runs
# under -race so every scenario is also a data-race probe over the
# coordinator loop and worker sessions.
fabric-check:
	$(GO) run -race ./cmd/fabriccheck

# stream-check is the observability gate: it replays the whole event
# fabric in-process (pipeline spans, a watched campaign, an adversarial
# search, a robustness certification), validates every streamed event
# against the committed wire schema (docs/streaming/events.schema.json),
# exercises replay-from-sequence-number, and asserts the /dashboard
# document references no external URLs. The zero-alloc nil-bus publish
# contract is pinned separately by TestNilBusPublishZeroAlloc (test), and
# `make bench` prints it beside the live and per-call bus costs
# (BenchmarkBusPublish).
stream-check:
	$(GO) run ./cmd/streamcheck

# ledger-diff is the decision-provenance determinism gate: two paperrepro
# runs with identical flags must produce byte-identical decision ledgers,
# and ledgerdiff must report zero divergence (it exits 1 otherwise). Any
# nondeterminism smuggled into the pipeline — map iteration, time, an
# unseeded RNG — fails here before it can corrupt a reproduction.
ledger-diff:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/paperrepro -only table1 -ledger $$tmp/a.jsonl >/dev/null 2>&1 && \
	$(GO) run ./cmd/paperrepro -only table1 -ledger $$tmp/b.jsonl >/dev/null 2>&1 && \
	$(GO) run ./cmd/ledgerdiff $$tmp/a.jsonl $$tmp/b.jsonl; \
	status=$$?; rm -rf $$tmp; exit $$status

# vuln scans the module with govulncheck when the tool is installed.
# Advisory, not blocking: findings are printed for review but do not fail
# the gate (the module is stdlib-only, so hits mean the Go toolchain
# itself needs updating), and a runner without the tool skips the scan.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: findings above are advisory; gate not failed"; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# fuzz-smoke gives each native fuzz target a short budget (FUZZTIME,
# default 30s) — enough to catch shallow regressions in the decoder, the
# resilience layer, the feasibility oracle (Check against the full
# window scan, the demand criterion against EDF simulation) and the
# campaign merge (any chunk arrival order against Run at Workers=1), the
# int-indexed trial loop and the slot-indexed graph (each against its
# string-keyed reference), the slice-based min-cuts (against the map-based
# Stoer–Wagner and allocating Edmonds–Karp), the single-pass Stoer–Wagner
# phase (against the two-pass one, on tie-heavy matrices of up to 64
# rows), the sparse Eq. 3 sweep (against the dense per-pair recurrence),
# the int-indexed placement kernel (against the string-keyed Approach A/B
# and FCR-aware loops), the
# slot walk of mapping.Evaluate (against the string walk), the
# hand-written ledger encoder and run fingerprint (against json.Encoder
# and json.Marshal, byte for byte) and the hand-written fabric frame
# codec (its encoder against json.Marshal byte for byte, its decoder
# against json.Unmarshal on arbitrary bytes, and a result decoded into a
# released chunk against one decoded into a fresh chunk), the spec path of a
# flagless worker (a runner built straight from a shipped spec, against
# a rebuild through a graph), campaign estimates on small graphs
# (against the exact Markov chain of their propagation) and the
# grow-on-demand event rings of the telemetry bus, its subscribers and
# the flight recorder (against fixed-capacity rings of the same bounds)
# without turning the gate into a fuzzing session.
# The graph and event-ring targets' inputs are long operation scripts, so
# their new inputs get a short minimisation budget; the default 60s would
# eat the run.
fuzz-smoke:
	$(GO) test -run NONE -fuzz 'FuzzDecodeSystem$$' -fuzztime $(FUZZTIME) ./internal/spec
	$(GO) test -run NONE -fuzz 'FuzzIntegrate$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run NONE -fuzz 'FuzzRunFingerprintMatchesJSON$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run NONE -fuzz 'FuzzLedgerEncodeMatchesJSON$$' -fuzztime $(FUZZTIME) ./internal/ledger
	$(GO) test -run NONE -fuzz 'FuzzFrameEncodeMatchesJSON$$' -fuzztime $(FUZZTIME) ./internal/fabric
	$(GO) test -run NONE -fuzz 'FuzzFrameDecodeMatchesJSON$$' -fuzztime $(FUZZTIME) ./internal/fabric
	$(GO) test -run NONE -fuzz 'FuzzRecycledChunkDecode$$' -fuzztime $(FUZZTIME) ./internal/fabric
	$(GO) test -run NONE -fuzz 'FuzzFaultModel$$' -fuzztime $(FUZZTIME) ./internal/faultsim
	$(GO) test -run NONE -fuzz 'FuzzMergerOrder$$' -fuzztime $(FUZZTIME) ./internal/faultsim
	$(GO) test -run NONE -fuzz 'FuzzTrialLoopMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/faultsim
	$(GO) test -run NONE -fuzz 'FuzzSpecRunnerMatchesCampaign$$' -fuzztime $(FUZZTIME) ./internal/faultsim
	$(GO) test -run NONE -fuzz 'FuzzCampaignMatchesExact$$' -fuzztime $(FUZZTIME) ./internal/faultsim
	$(GO) test -run NONE -fuzz 'FuzzGraphMatchesReference$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/graph
	$(GO) test -run NONE -fuzz 'FuzzEventRingMatchesFixed$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/obs
	$(GO) test -run NONE -fuzz 'FuzzMinCutMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run NONE -fuzz 'FuzzGlobalMinCutMatrixMatchesParent$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run NONE -fuzz 'FuzzSeparationMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/influence
	$(GO) test -run NONE -fuzz 'FuzzPlacementMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/mapping
	$(GO) test -run NONE -fuzz 'FuzzEvaluateMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/mapping
	$(GO) test -run NONE -fuzz 'FuzzCheckMatchesScan$$' -fuzztime $(FUZZTIME) ./internal/sched
	$(GO) test -run NONE -fuzz 'FuzzFeasibleSimulateAgreement$$' -fuzztime $(FUZZTIME) ./internal/sched
