# Developer entry points. `make verify` is the full pre-merge gate:
# vet + build + tests, plus the race detector on every package that owns a
# goroutine or a crash campaign (allocator, recovery, metrics, the serving
# tier and its transports, the sweep, fsck).

GO ?= go

.PHONY: all build test vet race verify bench bench-smoke test-mmap sweep \
	corrupt fsck-smoke top-smoke ci serving-smoke benchmark-check dep-guard \
	inline-check fmt-check

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
		./internal/mapreduce ./internal/sweep ./internal/check

# bench-smoke runs the fast-path micro-benchmarks a handful of iterations
# under the race detector: not for numbers, but to drive the benchmark paths
# (shadow caches, batched transfer, and the segment scan and recovery pass
# with their per-client scan scratch) through the race checker cheaply.
bench-smoke:
	$(GO) test -race -run xxx -bench 'BenchmarkAlloc$$|BenchmarkMallocFree|BenchmarkQueueTransfer|BenchmarkQueueBatch|BenchmarkSegmentScan|BenchmarkRecoveryCXLSHM' -benchtime 10x -benchmem .

verify: vet build test race bench-smoke

# test-mmap re-runs the core packages with every pool on the mmap'd-file
# backend (cxl.MapDevice over an unlinked temp file), the recovery crash
# matrix (every device write of the scenario) included. The crash campaign
# on mmap is `make sweep`.
test-mmap:
	CXLSHM_BACKEND=mmap $(GO) test ./internal/shm ./internal/recovery ./internal/check ./internal/alloc .

# sweep runs the exhaustive access-granular crash sweep on both backends:
# every scripted operation crashed before every one of its device writes,
# each followed by recovery and a full-pool fsck, plus a phase-B pass that
# crashes the recovery executor before every one of its own writes (35 ops,
# 1854 + 6402 positions, about 5 s per backend). Violations print a minimal
# `faultsim -repro` line and fail the target.
sweep:
	$(GO) run ./cmd/faultsim -sweep -recovery-sweep
	$(GO) run ./cmd/faultsim -sweep -recovery-sweep -backend mmap

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
# one JSON and one Prometheus snapshot, recover the pool, and pretty-print
# the crash-surviving telemetry (the dead client's final counters).
top-smoke:
	rm -f .ci-top.cxl
	$(GO) run ./cmd/cxlsnap -create .ci-top.cxl -keys 100
	$(GO) run ./cmd/cxltop -once -json .ci-top.cxl > /dev/null
	$(GO) run ./cmd/cxltop -once -prom .ci-top.cxl > /dev/null
	$(GO) run ./cmd/cxlsnap -open .ci-top.cxl
	$(GO) run ./cmd/cxlsnap -metrics .ci-top.cxl > /dev/null
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
# Handle's Load must each stay inlinable. It fails naming the first one the
# compiler no longer inlines.
INLINE_FUNCS = '(*Handle).Load' '(*Geometry).SegmentIndexOf' '(*Geometry).PageIndexOf' \
	'(*Geometry).SegmentBase' '(*Geometry).PageBase' '(*Geometry).ClassIndexFor' '(*Client).ownedSegOf'

inline-check:
	@names=$$($(GO) build -gcflags=-m ./internal/layout ./internal/shm ./internal/cxl 2>&1 | \
		sed -n 's/.*: can inline //p'); \
	for f in $(INLINE_FUNCS); do \
		printf '%s\n' "$$names" | grep -qxF "$$f" || { echo "inline-check: $$f is no longer inlined"; exit 1; }; \
	done

# fmt-check fails when any Go file in the tree is not gofmt-formatted.
fmt-check:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "fmt-check: gofmt -l names:"; echo "$$files"; exit 1; }

# dep-guard keeps the crash harness out of the product: nothing the library,
# the serving tier or the recovery service links may import
# internal/faultinject (crashes are injected from outside, through
# shm.Config.Middleware).
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
# backends, the telemetry delta-publication pin under the race detector on both
# backends, the zero-allocation fast-path pin on both backends, the kv
# read-during-delete contract (race detector on heap, once on mmap),
# three race passes over the in-process serving chaos, ten seconds of fuzzing
# each on the two byte parsers a peer can reach (netrpc frames, serving
# requests), the mmap-backend suite, the exhaustive
# crash sweep (plus bounded legs with telemetry collection enabled and at
# 64-client geometry), the cxltop/cxlsnap observer smoke, and the
# serving-tier chaos smoke on both worker backends.
ci: fmt-check vet build test benchmark-check dep-guard inline-check
	$(GO) test -race -run 'TestDeviceAccessBudget|TestClientScaling|TestQueue' ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run 'TestDeviceAccessBudget|TestClientScaling|TestQueue' ./internal/shm
	$(GO) test -run 'TestRecoveryPassAccessBudget|TestIdleTickAfterLoaderDeath' ./internal/recovery
	CXLSHM_BACKEND=mmap $(GO) test -run 'TestRecoveryPassAccessBudget|TestIdleTickAfterLoaderDeath' ./internal/recovery
	$(GO) test -race -run TestTelemetryDeltaPublication ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run TestTelemetryDeltaPublication ./internal/shm
	$(GO) test -race -run TestSlotChurn ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run TestSlotChurn ./internal/shm
	$(GO) test -run TestFastPathZeroAllocs ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -run TestFastPathZeroAllocs ./internal/shm
	$(GO) test -race -run TestConcurrentReadDuringDelete ./internal/kv
	CXLSHM_BACKEND=mmap $(GO) test -run TestConcurrentReadDuringDelete ./internal/kv
	$(GO) test -race -count=3 -run TestChaosInProcess ./internal/serving
	$(GO) test -run xxx -fuzz FuzzServeFrame -fuzztime 10s ./internal/netrpc
	$(GO) test -run xxx -fuzz FuzzDispatch -fuzztime 10s ./internal/serving
	$(MAKE) test-mmap
	$(MAKE) sweep
	$(MAKE) corrupt
	$(GO) run ./cmd/faultsim -sweep -max-writes 8 -metrics
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
