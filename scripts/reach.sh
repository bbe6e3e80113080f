#!/usr/bin/env bash
# reach.sh — statement coverage of internal/ by the programs' own runs.
#
# Builds every main under cmd/ (but nbalint, which runs no simulation) and
# examples/ with -cover -coverpkg=nba/... into a temporary directory, runs
# them with GOCOVERDIR set, merges the counters and prints, for each
# non-test file under internal/, the statement ranges that no run reached:
#   - the figure grid, quick and full (nbabench -all);
#   - nbachaos sweeps: single-app, two-tenant and reconfig (about 300 cases);
#   - an nba flag matrix: every app under every balancer, the .click
#     configs, the canonical fault, overload, corruption, tenant and churn
#     runs and an adaptive overload run (each recorded), the trace writers,
#     and the usage and build errors;
#   - nbatrace summary of every recording, and diff of two;
#   - every program under examples/.
#
# A report, not a gate: check.sh does not run it. A range it prints is code
# that no run of the programs executes; code that only tests reach is a
# candidate for deletion, or for a test that says why it must stay.
#
# Usage: scripts/reach.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov"

echo "==> building with coverage" >&2
for dir in cmd/nba cmd/nbabench cmd/nbachaos cmd/nbatrace examples/*/; do
    dir=${dir%/}
    go build -cover -coverpkg=nba/... -o "$tmp/bin/${dir##*/}" "./$dir"
done
export GOCOVERDIR=$tmp/cov
bin=$tmp/bin

# run executes one program run; a run that exits non-zero (the error paths
# below do on purpose) still writes its counters.
run() {
    "$@" >/dev/null 2>&1 || true
}

echo "==> figure grid (quick, then full)" >&2
run "$bin/nbabench" -all -quick -parallel 2
run "$bin/nbabench" -all -parallel 2
run "$bin/nbabench" -list

echo "==> chaos sweeps" >&2
run "$bin/nbachaos" sweep -seeds 25 -base 1 -parallel 2 -repro-dir "$tmp/repro"
run "$bin/nbachaos" sweep -seeds 25 -base 1 -tenants 2 -parallel 2
run "$bin/nbachaos" sweep -seeds 25 -base 1 -reconfig -parallel 2
for f in internal/chaos/testdata/repro-*.json; do
    run "$bin/nbachaos" replay "$f"
done

echo "==> nba flag matrix" >&2
shape="-gbps 1 -workers 1 -duration 2ms -warmup 200us"
for app in l2fwd echo ipv4 ipv6 ipsec ids; do
    for lb in cpu gpu fixed=0.5 adaptive; do
        # $shape is a word list: unquoted on purpose.
        run "$bin/nba" $shape -app "$app" -lb "$lb" -size 0
    done
done
for cfg in configs/*.click; do
    run "$bin/nba" $shape -config "$cfg" -v
done
# The canonical runs are recorded, so nbatrace summary reads each section
# of its report (faults, overload, integrity, tenants, reconfig). The
# adaptive overload run saturates the device alone at the governor's Bias
# level, so it takes the step that lowers the weight ceiling toward the CPU.
i=0
for flags in \
    "-app ipsec -lb fixed=0.8 -faults" \
    "-app ipsec -lb fixed=0.8 -gbps 3 -overload" \
    "-app ipsec -lb adaptive -size 1024 -gbps 3 -duration 10ms -warmup 1ms -overload" \
    "-app ipsec -lb fixed=0.8 -corrupt" \
    "-tenants ipv4,ipsec" \
    "-tenants ipv4=2,ids -reconfig"
do
    i=$((i + 1))
    run "$bin/nba" $shape $flags -record "$tmp/canon$i.jsonl"
done
for flags in \
    "-app ipv4 -size 1500 -gbps 10" \
    "-app ipv4 -size 30" \
    "-app nosuch" \
    "-reconfig"
do
    run "$bin/nba" $shape $flags
done
run "$bin/nba" $shape -app ipsec -lb adaptive -record "$tmp/a.jsonl" \
    -chrome "$tmp/a.json" -pcap "$tmp/a.pcap"
run "$bin/nba" $shape -app ipsec -lb adaptive -seed 7 -record "$tmp/b.jsonl"

echo "==> nbatrace" >&2
for f in "$tmp/a.jsonl" "$tmp"/canon*.jsonl; do
    run "$bin/nbatrace" summary "$f"
done
run "$bin/nbatrace" diff "$tmp/a.jsonl" "$tmp/a.jsonl"
run "$bin/nbatrace" diff "$tmp/a.jsonl" "$tmp/b.jsonl"

echo "==> examples" >&2
for dir in examples/*/; do
    dir=${dir%/}
    run "$bin/${dir##*/}"
done

# textfmt merges every run's counters; a block may still be listed more
# than once, so a block counts as reached if any of its lines has a
# non-zero count.
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/cover.out"
awk 'NR > 1 {
        split($1, loc, ":")
        if (loc[1] !~ /^nba\/internal\//) next
        key = substr(loc[1], 5) ":" loc[2]
        stmts[key] = $2
        if ($3 > 0) hit[key] = 1
    }
    END {
        for (k in stmts) {
            split(k, p, ":"); split(p[2], r, ","); split(r[1], a, "."); split(r[2], b, ".")
            print p[1], a[1], b[1], stmts[k], (k in hit)
        }
    }' "$tmp/cover.out" |
    sort -k1,1 -k2,2n |
    awk '
    # Adjacent unreached blocks, with no reached block between them, print
    # as one range.
    function flush() {
        if (open) printf " %d-%d", s, e
        open = 0
    }
    {
        total += $4
        if ($5) { flush(); next }
        missed += $4
        if ($1 != cur) {
            flush()
            if (cur != "") printf "\n"
            cur = $1
            printf "%s:", cur
        }
        if (open && $2 <= e + 1) {
            if ($3 > e) e = $3
            next
        }
        flush()
        open = 1; s = $2; e = $3
    }
    END {
        flush()
        if (cur != "") printf "\n"
        printf "\nunreached: %d of %d statements under internal/\n", missed, total
    }'
