#!/usr/bin/env bash
# regolden.sh — re-record every golden file and print what moved, old → new.
#
# Usage:
#   scripts/regolden.sh        re-record the goldens in the tree
#   scripts/regolden.sh -n     dry run: re-record, report, restore the old
#                              files; exit 1 if anything moved (check.sh runs
#                              this on the committed tree, where it must
#                              report no change)
#
# Every golden has one update path, its test's -update flag
# (internal/golden.Check; internal/trace's golden test reads the same flag):
#   internal/trace          TestGoldenTraces           trace digests and checkpoints
#   internal/core           TestReportGolden           report counters and digests
#                           TestParkingAgreesOnFigureGrid
#                                                      the quick figure grid
#                                                      (cmd/nbabench's
#                                                      quick-all.golden, ~2 min)
#   internal/gen            TestFillGolden             generator frames
#   internal/apps/ipsec     TestESPFramesGolden        ESP frames
#   internal/apps/ids       TestDefaultAutomataGolden  AC and DFA tables
#   cmd/nba                 TestGoldenStdout           report stdout
#                           TestRecordPinned           check.sh's recordings
#   cmd/nbatrace            TestSummaryGolden          summary stdout
#   cmd/nbabench            TestGoldenStdout           -list, tab1, tab3 stdout
#   internal/chaos          TestReproGolden            reproducer file format
#                           TestSweepGolden            check.sh's sweep digests
# A digest moves only in a change that runs this script and says why in
# CHANGES.md, with this script's output.
set -euo pipefail
cd "$(dirname "$0")/.."

dry=0
case "${1:-}" in
    -n) dry=1 ;;
    "") ;;
    *) echo "usage: $0 [-n]" >&2; exit 2 ;;
esac

goldens() {
    ls internal/trace/testdata/golden/*.golden \
        internal/core/testdata/report/*.golden \
        internal/gen/testdata/fill.golden \
        internal/apps/ipsec/testdata/esp-frames.golden \
        internal/apps/ids/testdata/automata.golden \
        cmd/nba/testdata/*.golden \
        cmd/nba/testdata/record/*.golden \
        cmd/nbatrace/testdata/summary.golden \
        cmd/nbabench/testdata/*.golden \
        internal/chaos/testdata/repro-*.json \
        internal/chaos/testdata/sweep.golden 2>/dev/null
}

old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
goldens | while read -r f; do
    mkdir -p "$old/$(dirname "$f")"
    cp "$f" "$old/$f"
done

restore() {
    goldens | while read -r f; do
        [[ -e "$old/$f" ]] || rm -f "$f"
    done
    (cd "$old" && find . -type f) | while read -r f; do
        cp "$old/$f" "$f"
    done
}
if [[ $dry == 1 ]]; then
    trap 'restore; rm -rf "$old"' EXIT
fi

echo "==> re-recording (go test -update)" >&2
go test -count=1 ./internal/trace -run '^TestGoldenTraces$' -update >&2
go test -count=1 ./internal/core -run '^(TestReportGolden|TestParkingAgreesOnFigureGrid)$' -update >&2
go test -count=1 ./internal/gen -run '^TestFillGolden$' -update >&2
go test -count=1 ./internal/apps/ipsec -run '^TestESPFramesGolden$' -update >&2
go test -count=1 ./internal/apps/ids -run '^TestDefaultAutomataGolden$' -update >&2
go test -count=1 ./cmd/nba -run '^(TestGoldenStdout|TestRecordPinned)$' -update >&2
go test -count=1 ./cmd/nbatrace -run '^TestSummaryGolden$' -update >&2
go test -count=1 ./cmd/nbabench -run '^TestGoldenStdout$' -update >&2
go test -count=1 ./internal/chaos -run '^(TestReproGolden|TestSweepGolden)$' -update >&2

moved=0
while read -r f; do
    if [[ ! -e "$old/$f" ]]; then
        echo "$f: new"
        moved=1
        continue
    fi
    if cmp -s "$old/$f" "$f"; then
        continue
    fi
    moved=1
    echo "$f:"
    # The changed lines, old then new.
    diff -U0 "$old/$f" "$f" | grep -E '^[-+][^-+]' | sed -e 's/^-/  old /' -e 's/^+/  new /' || true
done < <(goldens)

if [[ $moved == 0 ]]; then
    echo "regolden: no golden moved"
fi
if [[ $dry == 1 && $moved == 1 ]]; then
    echo "regolden: goldens moved (dry run; the tree is restored)" >&2
    exit 1
fi
