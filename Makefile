# Developer entry points. `make tier1` is the gate every PR must keep green.

GO ?= go

.PHONY: all tier1 build test vet race stress fuzz-smoke bench bench-smoke bench-pairs bench-kernels clean

all: tier1

# Tier-1: build everything, run the full test suite, and vet.
tier1: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector pass over every package with tests except bench/ (the
# repository's benchmark, which has its own driver). The whole set takes
# about a minute on two cores, so nothing is carved out for time; tests
# that read sync.Pool hit ratios or allocation counts skip themselves
# under -race.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^skipper/bench$$')

# Repeat the suites whose tests drive real fleets, sockets and timers —
# serve, distrib and the net transport underneath them — without -race
# (which slows the executive enough to hide timing-dependent flakes): a
# test that passes 1 run in 15 fails here.
stress:
	$(GO) test -count=10 ./internal/serve/ ./internal/distrib/ ./internal/exec/nettransport/

# Ten seconds of coverage-guided fuzzing per target: the run-based labelling
# kernel against its flood-fill oracle, every image kernel on a window view
# against the same kernel on the view's Clone, the value codec, the net
# transport's read side — its one frame-read loop (stream-decoding the frames
# for a hosted processor), the handshake parsers and the shm ring's header
# words and slab — the fleet's boundaries: member frames into the control
# plane's member loop, run-message payloads into a worker's checks, and
# POST /jobs bodies — and source text through the compiler chain (stub
# registry, compile, map onto ring(3)). New inputs land
# in the Go build cache; a failure writes its reproducer under the package's
# testdata/fuzz/, to be committed as a regression seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzComponentsMatchFlood -fuzztime 10s ./internal/vision
	$(GO) test -run '^$$' -fuzz FuzzViewKernelsMatchCompact -fuzztime 10s ./internal/vision
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 10s ./internal/value
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrames$$' -fuzztime 10s ./internal/exec/nettransport
	$(GO) test -run '^$$' -fuzz '^FuzzHello$$' -fuzztime 10s ./internal/exec/nettransport
	$(GO) test -run '^$$' -fuzz '^FuzzShmRing$$' -fuzztime 10s ./internal/exec/nettransport
	$(GO) test -run '^$$' -fuzz '^FuzzFleetMsg$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzFleetMsg$$' -fuzztime 10s ./internal/distrib
	$(GO) test -run '^$$' -fuzz '^FuzzJobBody$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s .

# The repository's benchmark (bench/, BENCHMARK.json): all seven workloads,
# untraced then traced, every frame and job checked against the sequential
# emulator. The one way to get a number; a claim needs `make bench-pairs`.
bench:
	$(GO) run ./bench

# What CI's bench-smoke job runs and uploads: the same benchmark at one
# second per window, built the way the driver builds it. Exits non-zero on a
# wrong answer on any transport.
bench-smoke:
	bash bench/run.sh --seconds 1 --json bench-smoke.json

# Paired runs of the repository's benchmark (bench/, BENCHMARK.json) on two
# versions: each of A and B is a git ref or a checkout directory (`.` = the
# working tree), built by its own bench/run.sh and run N times alternating
# which side goes first. Prints medians, IQRs, wins and failed/attempted per
# end-to-end metric — what a perf claim has to show (README § Performance).
# W takes a comma-separated list: one table per workload, so every workload
# that runs the changed code is one command.
#   make bench-pairs A=HEAD B=. W=label512_mem N=10
#   make bench-pairs W=label512_shm,quad256_tcp,track512_paced_unix
A ?= HEAD
B ?= .
W ?= label512_mem
N ?= 10
bench-pairs:
	scripts/bench-pairs.sh $(A) $(B) $(W) $(N)

# The vision kernels alone, ten samples each in benchstat's input format:
# the labelling scan on a 512x64 band from both ends (scene, dense noise and
# checkerboard, backgrounds on which the 64-pixel OR test always fails),
# CountAbove and ThresholdInto. Compare two trees with
#   make bench-kernels >new.txt; (cd ../parent && make bench-kernels) >old.txt; benchstat old.txt new.txt
bench-kernels:
	$(GO) test -run '^$$' -bench 'ComponentsBand|CountAbove|ThresholdInto' -count 10 ./internal/vision

clean:
	$(GO) clean ./...
