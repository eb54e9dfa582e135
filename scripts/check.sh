#!/bin/sh
# check.sh — the full pre-merge gate: build, vet, race-enabled tests, the
# repo's own static-analysis suite (cmd/dyscolint), a fuzz smoke over
# every wire decoder and the event queue, and the fault-injection safety
# sweep. The observability checks of an instrumented reconfiguration
# run (span, histograms, causal DAG, critical path, same-seed replay)
# are internal/lab tests and run in `go test -race ./...`. The lint run
# lands its machine-readable findings in LINT_report.json; the fault
# sweep's per-run results (event/schedule/DAG hashes, oracles) land in
# FAULT_sweep.json; the per-scenario reconfiguration critical paths land
# in CRITPATH.json, gated on byte-identical re-extraction. CI archives all
# three as workflow artifacts. The figure regression
# regenerates every quick-scale figure and diffs it byte for byte
# against experiments_output.txt (the longest step: about 1.5-2.5 min on a
# 2-vCPU host). Everything here must pass before a change lands; CI and
# developers run the same script.
#
# "Same behaviour as before" needs no step of its own: `go test -race
# ./...` below compares the seed-1 fault-sweep hashes and the per-seed
# packet-capture hash with their checked-in goldens
# (internal/fault/testdata/sweep_seed1.golden,
# internal/lab/testdata/trace_hash.golden), and every sweep run checks the
# zero-sessions and zero-rewrite-entries oracles.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go test -race ./...

# bench/ is its own module (bench/go.mod), so the commands above only
# vet it (root TestBenchModuleVets): run its smoke too (all five
# workloads at 1/20 scale plus the BENCHMARK.json schema pin, ~12 s) so
# a break of the API surface it pins shows here and not first in the
# perf pipeline.
go -C bench test ./...

go run ./cmd/dyscolint -json ./... > LINT_report.json || { cat LINT_report.json; exit 1; }

# Fuzz smoke: the codec tests cut every frame and message at every byte;
# these runs probe the decoders beyond those cuts, from the checked-in
# corpora. FuzzPacketParse also requires ParseView to accept, and read
# the same fields from, every exact-length IHL-5 frame Parse accepts.
go test ./internal/packet -run '^$' -fuzz '^FuzzPacketParse$' -fuzztime 10s
go test ./internal/core   -run '^$' -fuzz '^FuzzSynPayload$'  -fuzztime 10s
go test ./internal/core   -run '^$' -fuzz '^FuzzCtrlMsg$'     -fuzztime 10s
go test ./internal/dataplane -run '^$' -fuzz '^FuzzRawRewrite$' -fuzztime 10s
# Not a decoder: random schedule/lane-post/cancel/timer programs on the event
# queue against its flag-and-skip reference (firing order, Pending, Processed).
go test ./internal/sim    -run '^$' -fuzz '^FuzzQueueOrder$'  -fuzztime 10s
# Nor this: random push/acknowledge/read programs on the TCP send queue
# against a flat byte slice (bytes, sub-slice sharing, capped results).
go test ./internal/tcp    -run '^$' -fuzz '^FuzzSendQueue$'   -fuzztime 10s
go run ./cmd/dyscofault -json FAULT_sweep.json

# Figure regression: every experiment at quick scale, seed 42, must print
# exactly the checked-in experiments_output.txt (EXPERIMENTS.md); a
# mismatch prints the moved lines as a unified diff.
figs=$(mktemp)
trap 'rm -f "$figs"' EXIT
go run ./cmd/dyscobench -exp all 2>/dev/null > "$figs"
diff -u experiments_output.txt "$figs"

# Critical-path determinism gate: for every scenario, extract the
# reconfiguration critical paths twice with the same seed and require
# byte-identical JSON (dyscotrace itself exits nonzero if any path fails
# causal validation). The concatenation is archived as CRITPATH.json.
: > CRITPATH.json
scenarios=$(go run ./cmd/dyscotrace -list)
for sc in $scenarios; do
    go run ./cmd/dyscotrace -scenario "$sc" -critical -json > CRITPATH.run1.json
    go run ./cmd/dyscotrace -scenario "$sc" -critical -json > CRITPATH.run2.json
    cmp CRITPATH.run1.json CRITPATH.run2.json
    cat CRITPATH.run1.json >> CRITPATH.json
    rm CRITPATH.run1.json CRITPATH.run2.json
done
