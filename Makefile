# Local targets mirror the CI jobs one-to-one (.github/workflows/ci.yml),
# so `make lint test race` reproduces a green pipeline before pushing.

GO ?= go

# Coverage floor for `make cover` (the test-race-cover CI job). This is a
# ratchet: raise it when coverage genuinely rises, never lower it to get a
# PR past CI. The value lives ONLY here — CI consumes it through
# `make cover`. Ratcheted 70 → 72 when the cross-backend conformance
# suite landed; 73 → 80 when the modes of strixbench that duplicated the
# benchmark left the denominator (its package main runs only as a
# subprocess, so it reads 0% in the profile). The total then was 82.1%;
# the floor is the total minus 1.5, rounded down.
COVER_FLOOR ?= 80.0

.PHONY: all build test selfcheck test-purego race race-engine cover fuzz-regress bench bench-compare bench-smoke lint fmt fmt-check vet vet-cross no-deprecated no-retired-gate no-retired-ops no-fma docs loc kernels profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# strixbench's two multi-bit self-checks at parameter set I, where the
# ROADMAP tracks their correctness: each exits 0 only when its circuit
# decodes right or the one noise rule refuses it (printing the node, σ and
# predicted failure), and non-zero on a wrong decode. The multiply runs
# at the radix the rule admits at set I (base 2, intops.For) and decodes;
# the inference's refusal comes before any PBS. A few seconds each.
selfcheck:
	$(GO) run ./cmd/strixbench -circuit 3 -set I
	$(GO) run ./cmd/strixbench -infer 1 -clients 1 -set I

# The pure-Go build: the `purego` tag excludes only the assembly (and its
# CPUID probe), so every loop runs its reference body, as on a host
# without AVX2. Keeps the fallback honest — the AVX2 path must stay an
# optimization, never a requirement.
test-purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego ./internal/torus/... ./internal/fft/... ./internal/tfhe/... ./internal/conformance/...

# The concurrent packages: the streaming engine, the tfhe tile loops its
# stages run, the circuit scheduler that feeds it, the shared FFT
# processor pool it leans on, the session-sharded gate service (concurrent
# requests and circuit dispatches on one session) with its wire codec, the
# multi-node routing tier in front of it, and the cross-backend
# conformance suite that runs every public op through all the execution
# paths. internal/torus rides along for its assembly-vs-Go test, beside
# the two in fft and tfhe.
race: race-engine
	$(GO) test -race ./internal/conformance/... ./internal/fft/... ./internal/router/... ./internal/server/... ./internal/tfhe/... ./internal/torus/... ./internal/wire/...

# The streaming engine, the scheduler and the gate service under -race at
# one, two and four CPUs, since every engine, every scheduled circuit and
# every session draws on one worker pool sized by GOMAXPROCS: at one CPU
# every contended operation runs as one worker's tiles and a circuit runs
# one dispatch at a time, at four the pool is wider than a 2-worker
# engine and a circuit's dispatches run several at once. CI runs it
# beside the full -race suite.
race-engine:
	$(GO) test -race -cpu 1,2,4 ./internal/engine/... ./internal/sched/... ./internal/server/...

# Full suite under the race detector with a coverage floor: catches both
# data races anywhere and silent loss of test coverage. ./benchmark runs
# without -race, in its own invocation: its tests assert calibrated
# timings (host factor near 1), which the detector's slow-down beside the
# rest of the suite pushes to 60-70 on a 2-CPU host. It has no goroutines
# of its own to race — the packages it drives are all in the -race run —
# and its profile (atomic mode, like -race's) is merged so the total
# covers the same packages as ever.
cover:
	$(GO) test -race -coverprofile=coverage.out $$($(GO) list ./... | grep -v '^repro/benchmark$$')
	$(GO) test -covermode=atomic -coverprofile=coverage-benchmark.out ./benchmark
	@tail -n +2 coverage-benchmark.out >> coverage.out && rm coverage-benchmark.out
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }'

# The committed fuzz seed corpus in regression mode: every seed under
# the packages' testdata/fuzz directories must keep passing without
# -fuzz (wire codec, eval frame decoder, key-file trailer decoder, packed
# test-vector builder, scheduler optimizer pipeline).
fuzz-regress:
	$(GO) test -run '^Fuzz' ./internal/wire/... ./internal/server/... ./internal/tfhe/... ./internal/sched/...

# The repository's performance numbers come from one place, the benchmark
# in benchmark/ (BENCHMARK.json: four workloads at parameter set I, ten
# round-robin passes, ~15 minutes). `make bench` records a fresh run file
# and `make bench-compare` sets it beside the committed
# BENCH_baseline.jsonl, failing when a median is worse than the baseline's
# by more than its BENCHMARK.json bound or the baseline's own spread
# exceeds it. To re-record the baseline when the performance legitimately
# changes: `make bench && mv BENCH_run.jsonl BENCH_baseline.jsonl`, on a
# quiet machine. It was recorded on 2 CPUs: a wider machine passes the
# timed metrics trivially, and alloc_mb_per_op, which does not depend on
# the host, is then the tripwire.
bench:
	rm -f BENCH_run.jsonl && bash benchmark/all.sh BENCH_run.jsonl

bench-compare:
	bash benchmark/run.sh --compare BENCH_baseline.jsonl BENCH_run.jsonl

# One iteration per Go benchmark: proves every benchmark still runs
# without paying for stable numbers. `./...` includes the BenchmarkFFT*
# kernel benchmarks in internal/fft and BenchmarkPBS at the root, so both
# fast and reference kernel paths get exercised on every CI run.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

lint: fmt-check vet vet-cross no-deprecated no-retired-gate no-retired-ops no-fma docs

# Documentation gate: every internal package needs a package comment and
# every exported identifier a doc comment, and every exported identifier
# needs a caller outside tests unless cmd/doccheck/allowlist.txt names it
# with a reason (see cmd/doccheck).
docs:
	$(GO) run ./cmd/doccheck ./internal/...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Builds without the amd64 assembly, where every loop runs its reference
# body and the AVX2 bodies' panic stubs must keep compiling: linux/arm64;
# linux/arm, 32-bit and without syscall.SyncFileRange (the disk store's
# write-back is a no-op there); linux/s390x, big-endian, where the key
# view is a copy with each word swapped; darwin/arm64, not Linux at all,
# where the disk store reads key files instead of mapping them.
CROSS_TARGETS = linux/arm64 linux/arm linux/s390x darwin/arm64

vet-cross:
	@set -e; for t in $(CROSS_TARGETS); do \
		echo "build + vet $$t"; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) build ./...; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) vet ./...; \
	done

# A superseded identifier is deleted with its last caller, not kept as an
# alias: any Deprecated: marker in non-test Go source fails the build.
no-deprecated:
	@! git grep -n 'Deprecated:' -- '*.go' ':!*_test.go'

# The ratio gate that benchmark/ replaced (its JSON file, its tool, its two
# targets) is deleted, not parked: nothing but the history files may name
# it. The pattern is spelled in pieces so this recipe does not match itself.
no-retired-gate:
	@! git grep -n 'BENCH_''pbs\|bench''json\|bench-''check\|bench-''json' -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'

# The per-engine operation methods that the engine's one vocabulary
# replaced, the second circuit form, the flat worker-pool engine, the
# scheduler's cost model and the batch blind rotation only that engine used
# are deleted, not aliased: no Go source outside benchmark/ may name them
# again (BenchmarkStreamGates, the profile harness in internal/engine, is
# not the retired method: the k). internal/engine/engine.go keeps the flat
# engine's names as aliases of the streaming engine's for benchmark/ alone.
# Nor may any name the nested GGSW shape the one BSK slab layout replaced,
# the per-polynomial batch transforms, or the Fourier MACs beside the tile
# MAC (spelled in pieces, so this recipe does not match itself). Nor may
# any name the streaming engine's staged pipeline that per-tile workers
# replaced: its keyswitch width (field and flag), its tile free list and
# the channels that carried tiles between stages. Nor may any name the
# portable-Go FFT bodies that ran beside the AVX2 ones and the reference,
# in Go or in the assembly's comments, nor reach another package's
# unexported names with a linkname directive. Nor may any name the
# slab-filling key decoder that wire.ViewEvalKey replaced (its readers and
# its generic fill), so that a second key parser does not come back. Nor
# may any name the interleaved transform bodies' lane tables, their
# radix-2 body or their per-pass dispatchers, which the block-planar
# transforms replaced. Nor may any name the integer evaluator's
# constructors, which ran intops circuits beside sched.Runner, or the
# stream key decoder beside the receiver's ReadEvalKeyHeader, ReadSized
# and ViewEvalKey, so that a second circuit runner or a second key decoder
# cannot come back behind a new caller. Nor may any Go source, either
# README or docs/ name the gate service's group commit (its engine lock,
# its result type, its merge bound and that bound's flag), which merged
# requests a second time above the worker pool's tiles, so that a second
# merge layer does not come back. Nor may any Go source name the engine's
# noise-checked lookup twins or the integer circuits' fixed digit base and
# message space: the engine runs what it is given, and the digit shape is
# the one noise rule's choice (intops.For). Nor may any Go source name the
# gate service's per-kind evaluation methods or their validators, nor may
# the service's non-test code call the noise rule: every /v2/eval kind is
# a circuit compiled for the session (where sched applies the rule) and
# run by sched.Execute. Server.GateBatch stays, for benchmark/, as the
# gate envelope's in-process form on that one path. Nor may Go sources or
# docs name the unrolled bootstrapping key or its rotations (the §VII
# comparison is arch's cost model alone) or Runner.RunSchedule (a compiled
# schedule runs through sched.Execute). Nor may any Go source name the
# lookup's multi-value twins, which a one-table group replaced at every
# layer (the node and dispatch kinds, the engine's MultiLUT and any
# executor's MultiLUT method on a dispatch), the engine's raw Bootstrap or
# its test-vector check: every engine op is a PBS that ends in a keyswitch.
# Nor may any Go source name the JSON eval body the binary eval frame
# replaced: its route, its decoder, the router's body peek that found the
# client ID inside it, or the plain lookup kind a one-table multilut
# replaced on the wire, so that a second eval path does not come back.
# Nor may any Go source call a lookup's retired twins, the single-table
# entry points beside the k ≥ 1 group or the multi-value ones beside the
# plain (tfhe's, the circuit builder's, the client's), or name the
# multi-value spec kind: a lookup is a group of k ≥ 1 tables at every
# entry point, and one table is k = 1. Nor may the disk store's
# write-ahead log come back: a key file's rename into keys/ is the commit,
# and its trailer the record.
no-retired-ops:
	@! git grep -nE 'BatchGates|(^|[^k])StreamGates|BatchEvalLUT|StreamLUT\(|BatchMultiLUT|StreamMultiLUT|BatchBootstrap|StreamBootstrap|BatchKeySwitch|EvalCircuit|engine\.New\(|engine\.Config([^A-Za-z0-9_]|$$)|DefaultMinStream|BlindRotateBatch|BlindRotateSteps|Runner\{Batch' -- '*.go' ':!benchmark' ':!internal/engine/engine.go'
	@! git grep -nE 'GGSWFourier\{''Rows|ForwardTorus''BatchTo|ForwardInt''BatchTo|Inverse''BatchTo|mulAcc''Fast|mulAcc''AVX2|fft\.Mul''\(' -- '*.go'
	@! git grep -nE 'KS''Workers|ks-''workers|rotate-''workers|empty''Tile|chan ''tile' -- '*.go'
	@! git grep -nE 'loadTorus''Fast|loadInt''Fast|mulAccTile''Go|foldAcc''Fast|digit''Fast|storeTwisted''Fast|go:''linkname' -- '*.go' '*.s'
	@! git grep -nE 'readFourier|readTorus([^I]|$$)|fill\[' -- '*.go'
	@! git grep -nE 'lane''Table|untwist''Lanes|stage\.lanes|stage2''AVX2|(fwdStage4|fwdStage2|invFirst|invStage4|invFold|decompLoad)''Fast' -- '*.go' '*.s'
	@! git grep -nE 'intops\.New''\(|New''Scheduled|New''Optimized|Decode''EvalKey' -- '*.go'
	@! git grep -nE 'exec''Mu|[Mm]ax''Coalesce|max-''coalesce|group''Result' -- '*.go' README.md docs benchmark/README.md
	@! git grep -nE 'MultiValue''Budget|DefaultPack''Width|OptConfig\{''[[:space:]]*(Prune|LinFold|Fuse|CSE|MultiValue)' -- '*.go' README.md docs
	@! git grep -nE 'Admitted''(Multi)?LUT|Check''LUT|(^|[^A-Za-z0-9_])op''Space|intops\.''Base' -- '*.go'
	@! git grep -nE 'func \(s \*Server\) (LUT|MultiLUT|Circuit|Infer)Batch|validate(Gate|LUT|MultiLUT|Circuit|Infer)([^A-Za-z0-9_]|$$)' -- '*.go'
	@! git grep -n 'noise\.Check' -- 'internal/server/*.go' ':!*_test.go'
	@! git grep -nE 'UnrolledBSK|BlindRotateUnrolled|BootstrapUnrolled|RunSchedule\(' -- '*.go' README.md docs
	@! git grep -nE '(^|[^A-Za-z0-9_])(kindMultiLUT|DispatchMultiLUT|checkTestVec)([^A-Za-z0-9_]|$$)|func \(s \*StreamingEngine\) (MultiLUT|Bootstrap)\(|MultiLUT\(d (sched\.)?Dispatch' -- '*.go'
	@! git grep -nE 'clientIDOf|parseEvalRequest|forwardByBody|EvalKindLUT|"POST /v2/eval"' -- '*.go'
	@! git grep -nE 'wal''Record|replay''WAL|appendWAL''Record|wal''FileName' -- '*.go'
	@! git grep -nE '\.(EvalMulti''LUTKS?|BlindRotate''Multi|NewMulti''LUTTestVector|ShiftForMulti''LUT|NewLUT''TestVector|MultiLUT''Batch|MultiLUT''Func|MultiLUT''s?)\(|SpecMulti''LUT' -- '*.go'
	@! git grep -nE 'Unrolled''Model|New''Chip|arch\.''Chip([^A-Za-z0-9_]|$$)|CircuitBatch''Opts' -- '*.go' README.md docs

# No fused multiply-add in any assembly file: it rounds once where the
# reference kernels round twice, and fast == ref is bitwise. Nor in what the
# compiler makes of package fft for arm64, where gc fuses x*y + z into
# FMADD unless the product is converted (float64(x*y)): the reference
# kernels must compute the same bits on every architecture's FPU. The
# cross-build needs no network and leaves nothing in the tree.
no-fma:
	@! git grep -nE 'VFN?M(ADD|SUB)' -- '*.s'
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	GOOS=linux GOARCH=arm64 $(GO) build -o "$$tmp/fft.a" ./internal/fft && \
	$(GO) tool objdump "$$tmp/fft.a" > "$$tmp/fft.asm" && \
	if grep -E '[[:space:]]FN?M(ADD|SUB)[SD][[:space:]]' "$$tmp/fft.asm"; then \
		echo "no-fma: fused multiply-add in the arm64 build of internal/fft"; exit 1; fi

# Net non-test lines of Go outside benchmark/: the figure ROADMAP's
# "net non-test LoC" criteria are read from; then the lines of assembly,
# the budget the SIMD bodies are held to.
loc:
	@echo "go  $$(git ls-files '*.go' ':!*_test.go' ':!benchmark' | xargs cat | wc -l)"
	@echo "asm $$(git ls-files '*.s' | xargs cat | wc -l)"

# The FFT kernel sets this build and host offer (ref, avx2, avx512) and the
# one that runs by default, the fastest: which bodies a green run or a
# profile exercised.
kernels:
	@$(GO) test ./internal/fft -run '^TestDefaultKernelSet$$' -count 1 -v | grep 'kernel sets'

# Where the CPU goes in the gates_stream_I shape: BenchmarkStreamGates (set
# I, one streaming engine, 8 NANDs per call) for 100 calls under the CPU
# profiler, reduced to the twelve functions with the most flat time. The
# test binary and the profile live in a temporary directory that is removed
# afterwards, so nothing is written into the tree. The kernel sets come
# first (make kernels).
profile: kernels
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test ./internal/engine -run '^$$' -bench '^BenchmarkStreamGates$$' -benchtime 100x \
		-cpuprofile "$$tmp/cpu.prof" -o "$$tmp/engine.test" && \
	$(GO) tool pprof -top -nodecount 12 "$$tmp/engine.test" "$$tmp/cpu.prof"
