# Developer entry points. `make verify` is the full pre-merge gate:
# vet + build + tests, plus the race detector on every package that owns a
# goroutine or a crash campaign (allocator, recovery, metrics, the serving
# tier and its transports, the sweep, fsck, the Lightning baseline).

GO ?= go

.PHONY: all build test vet race verify bench bench-smoke test-mmap sweep \
	corrupt fsck-smoke top-smoke ci serving-smoke benchmark-check dep-guard \
	inline-check fmt-check gates lines

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/shm ./internal/recovery ./internal/obs . \
		./internal/serving ./internal/kv ./internal/netrpc ./internal/rpc \
		./internal/mapreduce ./internal/sweep ./internal/check ./internal/lightning

# bench-smoke runs the fast-path micro-benchmarks a handful of iterations
# under the race detector: not for numbers, but to drive the benchmark paths
# (shadow caches, the queue hand-off, and the segment scan and recovery pass
# with their per-client scan scratch) through the race checker cheaply.
bench-smoke:
	$(GO) test -race -run xxx -bench 'BenchmarkAlloc$$|BenchmarkMallocFree|BenchmarkQueueTransfer|BenchmarkSegmentScan|BenchmarkRecoveryCXLSHM' -benchtime 10x -benchmem .

verify: vet build test race bench-smoke

# test-mmap re-runs the core packages with every pool on the mmap'd-file
# backend (cxl.NewAnonMapDevice: an unlinked temp file), the recovery crash
# matrix (every device write of the scenario) included. The crash campaign
# on mmap is `make sweep`.
test-mmap:
	CXLSHM_BACKEND=mmap $(GO) test ./internal/shm ./internal/recovery ./internal/check ./internal/alloc .

# sweep runs the exhaustive access-granular crash sweep on both backends:
# every scripted operation crashed before every one of its device writes,
# each followed by recovery, a read-through of every survivor's roots and a
# full-pool fsck, plus a phase-B pass that crashes the recovery executor
# before every one of its own writes (about 5 s per backend; EXPERIMENTS.md's
# sweep table has the counts it prints). The
# wrap leg (-wrap) runs it all again with every client's era started just
# below 2³², so the script crosses the line where a header's era field wraps.
# Violations print a minimal `faultsim -repro` line and fail the target.
sweep:
	$(GO) run ./cmd/faultsim -sweep -recovery-sweep
	$(GO) run ./cmd/faultsim -sweep -recovery-sweep -backend mmap
	$(GO) run ./cmd/faultsim -sweep -recovery-sweep -wrap
	$(GO) run ./cmd/faultsim -sweep -recovery-sweep -wrap -backend mmap

# corrupt runs the bounded corruption campaign on both backends: every
# fault class (bit flip, torn write, stuck CAS) against every targetable
# metadata region, each trial followed by the repairing fsck, a full
# revalidation, and a rerun of the scripted workload over the repaired
# pool. It prints one outcome count line per fault class; violations print
# a `faultsim -corrupt` repro line and fail.
corrupt:
	$(GO) run ./cmd/faultsim -corrupt

# fsck-smoke drives the operator-facing repair path end to end: build a
# pool file, check it clean, flip a superblock bit and repair it in the
# same invocation (a persisted superblock flip would brick the next
# attach — geometry is read from the superblock), then demand a clean
# re-check of the same file.
fsck-smoke:
	rm -f .ci-fsck.cxl
	$(GO) run ./cmd/cxlsnap -create .ci-fsck.cxl -keys 100
	$(GO) run ./cmd/cxlsnap -fsck .ci-fsck.cxl
	$(GO) run ./cmd/cxlsnap -fsck .ci-fsck.cxl -flip 2:4 -repair
	$(GO) run ./cmd/cxlsnap -fsck .ci-fsck.cxl
	rm -f .ci-fsck.cxl

# top-smoke drives the observer tooling end to end across processes: build
# a pool on an mmap'd file, crash its client, attach cxltop read-only for
# one JSON and one Prometheus snapshot, recover the pool, and render the
# crash-surviving telemetry once more (the dead client's final counters).
top-smoke:
	rm -f .ci-top.cxl
	$(GO) run ./cmd/cxlsnap -create .ci-top.cxl -keys 100
	$(GO) run ./cmd/cxltop -once -json .ci-top.cxl > /dev/null
	$(GO) run ./cmd/cxltop -once -prom .ci-top.cxl > /dev/null
	$(GO) run ./cmd/cxlsnap -open .ci-top.cxl
	$(GO) run ./cmd/cxltop -once .ci-top.cxl > /dev/null
	rm -f .ci-top.cxl

# benchmark-check vets and tests the benchmark module (benchmark/, a Go
# module of its own that tier-1 never builds), so a PR that breaks the frozen
# call list of benchmark/README.md fails CI instead of the benchmark run.
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# inline-check guards the host side of the shm fast path, which no device-
# access budget can see: the shift-based address → segment → page mapping,
# the size-class table lookup, the owned-segment lookup and the device
# Handle's Load and Store must each stay inlinable. It fails naming the first one the
# compiler no longer inlines.
INLINE_FUNCS = '(*Handle).Load' '(*Handle).Store' '(*Geometry).SegmentIndexOf' '(*Geometry).PageIndexOf' \
	'(*Geometry).SegmentBase' '(*Geometry).PageBase' '(*Geometry).ClassIndexFor' '(*Client).ownedSegOf'

inline-check:
	@names=$$($(GO) build -gcflags=-m ./internal/layout ./internal/shm ./internal/cxl 2>&1 | \
		sed -n 's/.*: can inline //p'); \
	for f in $(INLINE_FUNCS); do \
		printf '%s\n' "$$names" | grep -qxF "$$f" || { echo "inline-check: $$f is no longer inlined"; exit 1; }; \
	done

# gates prints the device-access gate lines the budget tests log — the
# fast-path budgets, the client-scaling curve, the recovery pass and the tick
# after it, the idle tick over a dead loader's segments, the kv insert, Get
# hit, Get miss and delete — on heap and mmap, with file:line prefixes and
# durations stripped so that two runs (say, a parent commit and a change)
# diff cleanly. It fails if any of the tests does.
GATE_TESTS = 'TestDeviceAccessBudget|TestClientScalingAccessBudget|TestRecoveryPassAccessBudget|TestIdleTickAfterLoaderDeath|TestInsertAccessBudget'

gates:
	@for be in heap mmap; do \
		echo "== $$be"; \
		out=$$(CXLSHM_BACKEND=$$be $(GO) test -p 1 -count=1 -v -run $(GATE_TESTS) ./internal/shm ./internal/recovery ./internal/kv) || \
			{ printf '%s\n' "$$out"; exit 1; }; \
		printf '%s\n' "$$out" | sed -n -e 's/^=== RUN *//p' \
			-e 's/ Duration:[^ }]*//' -e 's/^ *[A-Za-z0-9_]*\.go:[0-9]*: /  /p'; \
	done

# lines prints the three line counts of ROADMAP's Lines ledger: non-test Go
# outside benchmark/, the _test.go files outside it, and all of benchmark/.
lines:
	@printf 'non-test %s\n' $$(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -exec cat {} + | wc -l)
	@printf 'tests %s\n' $$(find . -name '*_test.go' -not -path './benchmark/*' -exec cat {} + | wc -l)
	@printf 'benchmark %s\n' $$(find benchmark -name '*.go' -exec cat {} + | wc -l)

# fmt-check fails when any Go file in the tree is not gofmt-formatted.
fmt-check:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "fmt-check: gofmt -l names:"; echo "$$files"; exit 1; }

# dep-guard keeps the crash harness out of the product: nothing the library,
# the serving tier or the recovery service links may import
# internal/faultinject (crashes are injected from outside, through
# shm.Config.Intercept).
dep-guard:
	@if $(GO) list -deps . ./internal/shm ./internal/kv ./internal/serving \
		./internal/netrpc ./internal/recovery | grep -q 'internal/faultinject'; then \
		echo "dep-guard: product code depends on internal/faultinject"; exit 1; fi

# ci is the continuous-integration gate (.github/workflows/ci.yml): gofmt,
# vet, tier-1 build+test, the benchmark module's own vet+test, the
# faultinject dependency guard, the fast path's inline guard, a race pass
# over the fast-path device-access
# budgets, the client-scaling curve's budgets and the queue tests on both
# backends, the device-access budgets of the recovery pass, the
# tick after it and the idle tick over a dead loader's segments on both
# backends, the recovery pass's and the owner's last-reference drops cut at
# every write, the witness of the header pair every such free erases, two services
# recovering one client at once, the recovery claim outliving the RECOVERED
# store and monitor ticks racing a pass over huge heads, under the race
# detector on both backends, an attach cut at every write after its client's
# era crossed 2³² on both backends, Connect over any free-slot bitmap under
# the race detector on both backends, the telemetry delta-publication pin under the race detector on both
# backends, the one-store tests (Pool.Obs equal to the telemetry region's sum
# on both backends, and fences, recovery passes and monitor ticks read back
# by a new Pool over an mmap pool file after the first one closed it), the
# zero-allocation fast-path pin on both backends, the kv
# read-during-delete contract (race detector on heap, once on mmap), the
# torn-read tests of the version word — in-place update, same-key
# delete + re-insert, the serving worker's lock-free GETs beside its PUTs —
# the update, the insert (into an empty bucket, at a chain's head and
# mid-chain) and the delete (at a chain's head and mid-chain) cut by their
# writer's death, the kv chains' descending key order, and the Gets and
# RangeBuckets walks that must never miss a key while inserts land anywhere
# in its chain and deletes reclaim records under them, under the race
# detector on both backends, and the torn-read tests again on one P (-cpu 1),
# three race passes over the in-process serving chaos, a race pass over the
# monitor (its ticker, per-client recovery dispatch writing the detector rows,
# and the concurrent passes its maintenance scans overlap), a race pass over
# the wire layer (a goroutine per connection, parsing what a peer sends) and
# the device package, a race pass over the two §6.3 applications (CXL-RPC's
# caller and server goroutines, CXL-MapReduce's goroutine per executor, and
# the tests that fail either side of a job or a call), the device store's
# message-passing litmus test without the race detector (whose
# instrumentation would slow the race it looks for),
# an arm64 build of the tree and vet of the device package (off amd64 the
# store primitive is its Go fallback, which nothing else here compiles), ten
# seconds of fuzzing each on the two byte parsers a peer can reach (netrpc
# frames, serving requests) and on the device's word-at-a-
# time byte copies against their byte-loop reference (the frame fuzzer's
# minimization is capped at 2 s: its corpus holds a frame over 4 KiB, and
# minimizing a new input that size would otherwise eat the whole budget),
# the mmap-backend suite, the exhaustive crash sweep (plus a bounded leg at
# 64-client geometry), the cxltop/cxlsnap observer smoke, and the
# serving-tier chaos smoke on both worker backends.
ci: fmt-check vet build test benchmark-check dep-guard inline-check
	$(GO) test -race -run 'TestDeviceAccessBudget|TestClientScaling|TestQueue' ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run 'TestDeviceAccessBudget|TestClientScaling|TestQueue' ./internal/shm
	$(GO) test -run 'TestRecoveryPassAccessBudget|TestIdleTickAfterLoaderDeath' ./internal/recovery
	CXLSHM_BACKEND=mmap $(GO) test -run 'TestRecoveryPassAccessBudget|TestIdleTickAfterLoaderDeath' ./internal/recovery
	$(GO) test -race -run 'TestRootDrop|TestOwnerDrop|TestFreeWitnesses|TestConcurrentRecoverersOneClaim|TestClaimReleasedAfterRecoveredStore|TestMonitorTickDuringPassOverHugeHeads' ./internal/recovery
	CXLSHM_BACKEND=mmap $(GO) test -race -run 'TestRootDrop|TestOwnerDrop|TestFreeWitnesses|TestConcurrentRecoverersOneClaim|TestClaimReleasedAfterRecoveredStore|TestMonitorTickDuringPassOverHugeHeads' ./internal/recovery
	$(GO) test -run TestEraWrapDoesNotCommitUncommitted ./internal/recovery
	CXLSHM_BACKEND=mmap $(GO) test -run TestEraWrapDoesNotCommitUncommitted ./internal/recovery
	$(GO) test -race -run TestConnectOverAnyBitmap ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run TestConnectOverAnyBitmap ./internal/shm
	$(GO) test -race -run TestTelemetryDeltaPublication ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run TestTelemetryDeltaPublication ./internal/shm
	$(GO) test -run 'TestObsIsTheRegionSum|TestCountersSurvivePoolReopen' ./internal/recovery
	$(GO) test -race -run TestSlotChurn ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run TestSlotChurn ./internal/shm
	$(GO) test -run TestFastPathZeroAllocs ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -run TestFastPathZeroAllocs ./internal/shm
	$(GO) test -race -run TestConcurrentReadDuringDelete ./internal/kv
	CXLSHM_BACKEND=mmap $(GO) test -run TestConcurrentReadDuringDelete ./internal/kv
	$(GO) test -race -run 'TestTornRead|TestCrashCutUpdate|TestCrashCutInsert|TestCrashCutDelete|TestChainOrder|TestReadersNeverMiss|TestRangeNeverSkips' ./internal/kv
	CXLSHM_BACKEND=mmap $(GO) test -race -run 'TestTornRead|TestCrashCutUpdate|TestCrashCutInsert|TestCrashCutDelete|TestChainOrder|TestReadersNeverMiss|TestRangeNeverSkips' ./internal/kv
	$(GO) test -race -run 'TestServingTornReads|TestReadsRunOffTheWriterLock' ./internal/serving
	CXLSHM_BACKEND=mmap $(GO) test -race -run 'TestServingTornReads|TestReadsRunOffTheWriterLock' ./internal/serving
	$(GO) test -cpu 1 -count=5 -run 'TestTornRead|TestServingTornReads' ./internal/kv ./internal/serving
	$(GO) test -race -count=3 -run TestChaosInProcess ./internal/serving
	$(GO) test -race -run 'Monitor|ConcurrentTicks|ConcurrentPasses|AbandonedSegment' ./internal/recovery
	$(GO) test -race ./internal/netrpc ./internal/cxl
	$(GO) test -race ./internal/rpc ./internal/mapreduce
	$(GO) test -count=1 -run TestStoreOrderMessagePassing ./internal/cxl
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/cxl
	$(GO) test -run xxx -fuzz FuzzServeFrame -fuzztime 10s -fuzzminimizetime 2s ./internal/netrpc
	$(GO) test -run xxx -fuzz FuzzDispatch -fuzztime 10s ./internal/serving
	$(GO) test -run xxx -fuzz FuzzDeviceBytes -fuzztime 10s ./internal/cxl
	$(MAKE) test-mmap
	$(MAKE) sweep
	$(MAKE) corrupt
	$(GO) run ./cmd/faultsim -sweep -max-writes 6 -clients 64
	$(MAKE) top-smoke
	$(MAKE) fsck-smoke
	$(MAKE) serving-smoke

# serving-smoke drives the network-facing serving tier end to end on both
# worker backends: in-process workers on the heap pool, then real child OS
# processes attached to an mmap pool file — each run kills one worker
# mid-traffic, requires monitor-driven recovery plus metadata-only
# partition failover, and fails on any survivor error, lost write,
# corruption, or unclean fsck.
serving-smoke:
	$(GO) run ./cmd/cxlkv chaos -backend inproc -workers 3 -keys 20000 -conns 4 -ops 5000
	$(GO) run ./cmd/cxlkv chaos -backend proc -workers 3 -keys 20000 -conns 4 -ops 5000

bench:
	$(GO) test -run xxx -bench . -benchtime=1s .
