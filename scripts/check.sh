#!/usr/bin/env bash
# check.sh — the one-command tier-1+ gate.
#
# Runs, in order:
#   1. gofmt -l           formatting (whole tree, fixtures included)
#   2. go vet ./...       stdlib vet analyzers (asmdecl checks the assembly
#                         against its Go declarations), then again with
#                         GOARCH=arm64 so the build without amd64 assembly
#                         (the IPsec CTR's generic AES block, the ICV's
#                         generic SHA-1 block and the IDS scan's portable
#                         batch kernel) cannot rot
#   3. go build ./...     everything compiles
#   4. nbalint ./...      framework determinism & invariant lint (cmd/nbalint):
#                         the per-file rules (nondeterminism, maprange,
#                         mempoolerr, printban) plus the interprocedural
#                         detflow / aliasflow / hotalloc / sharedstate rules
#                         over one shared type-checked module. Runs with
#                         -audit-allows (stale or misspelled //nbalint:allow
#                         escapes fail the gate), a per-rule wall-clock budget, and
#                         -format json so the machine-readable findings /
#                         allow counts / timings land in an artifact file
#                         ($NBALINT_JSON, default nbalint.json under mktemp)
#   5. go test -race ...  full test suite under the race detector
#   6. go test -count 2   core, graph and offload, each test twice in one
#                         process (-short, about 30 s), so a test that leaves
#                         process state behind (an element class registered
#                         in its body, say) fails on its second run
#   7. debugChecks        the build with every mempool in checked mode
#                         (mempool/debug.go, netio/debug_on.go): vet it, test
#                         the two packages the tag compiles code into, and
#                         run core's TestReportGolden under it, since tagged
#                         runs must report what untagged runs do
#   8. fuzz smoke         a few seconds per fuzz target (conflang round-trip,
#                         packet header parsing, each IDS batch scan kernel vs
#                         the single stream, every generator's fill over a
#                         dirty buffer vs a clean one (FuzzFillContract), the
#                         IPsec CTR on each AES routine vs the stdlib stream,
#                         the IPsec ICV on each SHA-1 block vs crypto/hmac,
#                         a run with worker
#                         parking on vs off: FuzzParkingAgrees) to catch
#                         shallow regressions; then one iteration of the IDS
#                         scan (one row per kernel), generator fill (one row
#                         per workload), ESP kernel, SHA-1 block and
#                         IPv6 lookup benchmarks, so the kernels' benchmarks
#                         cannot rot
#   9. trace self-check  the same config+seed recorded twice with the built
#                         nba binary (-record) must diff to zero divergence
#                         under nbatrace diff (dynamic determinism gate):
#                         fault-free, with the canonical injected GPU outage
#                         (-faults), with the canonical silent-corruption
#                         window and the integrity sentinel armed (-corrupt),
#                         with overload control armed under a
#                         sustained load burst (-overload), with two
#                         co-resident tenant app graphs (-tenants: the merged
#                         tenant-tagged timeline is part of the run identity),
#                         and with the canonical tenant-churn reconfiguration
#                         armed (-reconfig: epoch drain-and-handoff events are
#                         part of the run identity too)
#  10. chaos smoke        fixed-seed nbachaos sweeps (every app, a couple of
#                         seeds; then 2-tenant co-residency with
#                         tenant-targeted fault plans; then -reconfig cases
#                         layering random control-plane churn over the fault
#                         plans): random-but-seeded fault plans must pass the
#                         invariant oracle with matching digests across the
#                         doubled runs; plus a fixed corruption case replayed
#                         both contained (sentinel sampling) and leaking
#                         (sampling disarmed), exercising the replay
#                         exit-code contract (0/1/2)
#  11. parallel equiv     the same sweeps at -parallel 1 and -parallel 8 must
#                         print byte-identical combined digests (internal/par
#                         determinism contract; the tenant sweep also folds
#                         every per-tenant sub-digest into the combined one)
#  12. examples           every program under examples/ runs once and must
#                         exit 0: they are the nba facade's only end-to-end
#                         users
#  13. regolden dry run   scripts/regolden.sh -n re-records every golden
#                         file through its test's -update flag (the quick
#                         figure grid's through core's parking A/B, which
#                         the race run skips) and must find nothing moved on
#                         the committed tree
#
# The race run doubles as the regression tripwire for the simulation contract:
# the engine is single-threaded by design and the device executor's kernels
# share nothing they write with it, so any data race is new code breaking it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...
echo "==> GOARCH=arm64 go vet ./... (the portable build)"
GOARCH=arm64 go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> nbalint -audit-allows ./... (interprocedural rules, budget, json artifact)"
lint_json="${NBALINT_JSON:-$(mktemp -d)/nbalint.json}"
# One invocation serves as gate and artifact: the module is type-checked once
# and shared across all rules, -budget trips on any single rule regressing
# past 10s of wall clock (the whole suite runs in well under one), and the
# JSON document (findings with source→sink paths, per-rule allow counts,
# per-rule timings) is kept for inspection even though the gate passed.
go run ./cmd/nbalint -audit-allows -timing -budget 10s -format json ./... > "$lint_json"
echo "nbalint: json artifact at $lint_json"

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -count 2 (core, graph, offload: each test passes twice in one process)"
go test -short -count 2 ./internal/core ./internal/graph ./internal/offload

echo "==> debugChecks build (checked mempools: vet, the tagged packages, the report goldens)"
go vet -tags debugChecks ./...
go test -tags debugChecks ./internal/mempool ./internal/netio
go test -tags debugChecks -run TestReportGolden ./internal/core

echo "==> fuzz smoke (a few seconds per target)"
# Each -fuzz invocation takes exactly one target, so one run per regex.
go test -fuzz='^FuzzParsePrint$' -fuzztime=5s -run '^$' ./internal/conflang
go test -fuzz='^FuzzHeaderParse$' -fuzztime=5s -run '^$' ./internal/packet
go test -fuzz='^FuzzBuildUDP4$' -fuzztime=5s -run '^$' ./internal/packet
go test -fuzz='^FuzzScanBatchAgrees$' -fuzztime=5s -run '^$' ./internal/apps/ids
go test -fuzz='^FuzzFillContract$' -fuzztime=5s -run '^$' ./internal/gen
go test -fuzz='^FuzzCTRMatchesStdlib$' -fuzztime=5s -run '^$' ./internal/apps/ipsec
go test -fuzz='^FuzzICVMatchesHMAC$' -fuzztime=5s -run '^$' ./internal/apps/ipsec
go test -fuzz='^FuzzParkingAgrees$' -fuzztime=5s -run '^$' ./internal/core

echo "==> scan, fill, ESP kernel, SHA-1 block and IPv6 lookup benchmark smoke (one iteration each)"
go test -run '^$' -bench 'Scan' -benchtime 1x ./internal/apps/ids
go test -run '^$' -bench 'Fill' -benchtime 1x ./internal/gen
go test -run '^$' -bench 'ESPKernel|SHA1Block' -benchtime 1x ./internal/apps/ipsec
go test -run '^$' -bench 'Lookup' -benchtime 1x ./internal/apps/ipv6

echo "==> trace determinism self-check (nba -record twice, nbatrace diff)"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go build -o "$tracedir/nba" ./cmd/nba
go build -o "$tracedir/nbatrace" ./cmd/nbatrace
# Each flag set is recorded twice and diffed: fault-free; the injected outage;
# overload control under a sustained burst; silent corruption with the
# sentinel armed (corruption stream, sampling coins, quarantines, escalation);
# two co-resident tenants (one merged, tenant-tagged timeline); and the churn
# plan (admit/retune/evict via epoch drain-and-handoff). Plans, coins and
# tenant tags are all part of the run identity, so every pair must be
# byte-identical. The shape flags come first so a set's own -gbps wins; they
# are the runs cmd/nba's TestRecordPinned pins.
shape="-gbps 1 -workers 1 -duration 2ms -warmup 200us"
for flags in \
    "-app ipv4 -lb fixed=0.8" \
    "-app ipsec -lb fixed=0.8 -faults" \
    "-app ipsec -lb fixed=0.8 -gbps 3 -overload" \
    "-app ipsec -lb fixed=0.8 -corrupt" \
    "-tenants ipv4,ipsec" \
    "-tenants ipv4,ids -reconfig"
do
    # $shape and $flags are word lists: unquoted on purpose.
    "$tracedir/nba" $shape $flags -record "$tracedir/a.jsonl" >/dev/null
    "$tracedir/nba" $shape $flags -record "$tracedir/b.jsonl" >/dev/null
    "$tracedir/nbatrace" diff "$tracedir/a.jsonl" "$tracedir/b.jsonl"
done

echo "==> chaos smoke (fixed-seed fault sweep under the invariant oracle)"
go run ./cmd/nbachaos sweep -seeds 2 -base 1

echo "==> chaos tenant smoke (2 co-resident tenants per case, tenant-targeted faults)"
go run ./cmd/nbachaos sweep -seeds 2 -base 1 -tenants 2

echo "==> chaos reconfig smoke (control-plane churn plans on top of fault plans)"
go run ./cmd/nbachaos sweep -seeds 2 -base 1 -reconfig

echo "==> corruption chaos smoke (sentinel contains the window; disarmed sampling must trip corrupt.leak)"
# One fixed corruption case, both ways through the replay exit-code contract
# (0 = clean, 1 = violation reproduced, 2 = usage/load error): with the
# sentinel sampling (the sweep default) the window is contained and conserved;
# with sampling disarmed the same plan must leak tainted frames to TX and be
# caught by the corrupt.leak oracle.
cat > "$tracedir/corrupt-armed.json" <<'JSON'
{
  "app": "ipv4",
  "seed": 3,
  "events": [
    {"at_ps": 300000000, "kind": "device.corrupt", "corrupt_prob": 0.5, "flip_pattern": 255},
    {"at_ps": 2000000000, "kind": "corrupt.recover"}
  ]
}
JSON
sed 's/"seed": 3,/"seed": 3,\n  "disarm_sampling": true,/' \
    "$tracedir/corrupt-armed.json" > "$tracedir/corrupt-leak.json"
go run ./cmd/nbachaos replay "$tracedir/corrupt-armed.json"
rc=0
go run ./cmd/nbachaos replay "$tracedir/corrupt-leak.json" || rc=$?
if [[ "$rc" != 1 ]]; then
    echo "disarmed corruption replay exited $rc, want 1 (corrupt.leak violation)" >&2
    exit 1
fi
echo "corrupt.leak reproduced with sampling disarmed (replay exit 1, as contracted)"

echo "==> chaos parallel equivalence (same sweep, 8 workers, byte-identical digest)"
d1=$(go run ./cmd/nbachaos sweep -seeds 2 -base 1 -parallel 1 -digest-only)
d8=$(go run ./cmd/nbachaos sweep -seeds 2 -base 1 -parallel 8 -digest-only)
if [[ "$d1" != "$d8" ]]; then
    echo "chaos sweep digest diverged across parallelism: serial $d1 vs parallel-8 $d8" >&2
    exit 1
fi
echo "chaos digest stable at parallelism 1 and 8: $d1"

echo "==> chaos tenant parallel equivalence (per-tenant digests fold into the combined digest)"
t1=$(go run ./cmd/nbachaos sweep -seeds 2 -base 1 -tenants 2 -parallel 1 -digest-only)
t8=$(go run ./cmd/nbachaos sweep -seeds 2 -base 1 -tenants 2 -parallel 8 -digest-only)
if [[ "$t1" != "$t8" ]]; then
    echo "tenant chaos sweep digest diverged across parallelism: serial $t1 vs parallel-8 $t8" >&2
    exit 1
fi
echo "tenant chaos digest stable at parallelism 1 and 8: $t1"

echo "==> examples (each program under examples/ runs once and must exit 0)"
for dir in examples/*/; do
    echo "--- $dir"
    go run "./$dir" >/dev/null
done

echo "==> regolden dry run (every golden re-recorded, none may move)"
scripts/regolden.sh -n

echo "check.sh: all gates passed"
