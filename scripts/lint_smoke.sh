#!/usr/bin/env bash
#===- scripts/lint_smoke.sh - ctp-lint end to end on one preset ---------===#
#
# Part of the ctp project: a reproduction of "Context Transformations for
# Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
#
# Drives the real ctp-lint binary on pmd through its three output paths:
#   - the default human report exits 4 (converged with warnings) and is
#     byte-identical over two runs;
#   - --format sarif --out FILE writes a SARIF 2.1.0 log with one result
#     per human-report finding;
#   - --provenance --explain on the first taint flow under cutshortcut
#     prints the sink fact's derivation chain, with every step naming its
#     rule (no "<= ?").
#
# Usage: scripts/lint_smoke.sh
# Env:   CTP_LINT  path to the ctp-lint binary
#                  (default: build/tools/ctp-lint next to this repo)
#
#===----------------------------------------------------------------------===#

set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
LINT="${CTP_LINT:-$ROOT/build/tools/ctp-lint}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ctp_lint_XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

die() {
  echo "FAIL: $1" >&2
  [[ -n "${2:-}" ]] && cat "$2" >&2
  exit 1
}

# Runs the command, recording its exit code in CODE.
run() {
  set +e
  "$@"
  CODE=$?
  set -e
}

run "$LINT" --preset pmd > "$WORK/human1.txt" 2> "$WORK/err.txt"
[[ "$CODE" -eq 4 ]] || die "default report exited $CODE, want 4" "$WORK/err.txt"
run "$LINT" --preset pmd > "$WORK/human2.txt" 2> "$WORK/err.txt"
[[ "$CODE" -eq 4 ]] || die "second default report exited $CODE" "$WORK/err.txt"
cmp -s "$WORK/human1.txt" "$WORK/human2.txt" \
  || die "the human report differs between two runs"
FINDINGS="$(grep -c ': \(warning\|note\): ' "$WORK/human1.txt" || true)"
[[ "$FINDINGS" -gt 0 ]] || die "the human report lists no findings" \
  "$WORK/human1.txt"
echo "human report: exit 4, $FINDINGS findings, identical over two runs"

run "$LINT" --preset pmd --format sarif --out "$WORK/report.sarif" \
  > "$WORK/out.txt" 2> "$WORK/err.txt"
[[ "$CODE" -eq 4 ]] || die "SARIF run exited $CODE, want 4" "$WORK/err.txt"
[[ -s "$WORK/report.sarif" ]] || die "--out wrote no SARIF file"
grep -q '"version": "2.1.0"' "$WORK/report.sarif" \
  || die "--out file is not a SARIF 2.1.0 log"
RESULTS="$(grep -c '"ruleId"' "$WORK/report.sarif" || true)"
[[ "$RESULTS" -eq "$FINDINGS" ]] \
  || die "SARIF has $RESULTS results, the human report $FINDINGS findings"
echo "sarif: $RESULTS results written to --out"

TAINT=(--preset pmd --config cutshortcut --checks taint)
run "$LINT" "${TAINT[@]}" > "$WORK/taint.txt" 2> "$WORK/err.txt"
[[ "$CODE" -eq 4 ]] || die "taint run exited $CODE, want 4" "$WORK/err.txt"
ID="$(grep -m1 '\[taint\.flow\]' "$WORK/taint.txt" \
      | sed 's/.*(\([0-9a-f]*\))$/\1/')"
[[ -n "$ID" ]] || die "no taint flow on pmd under cutshortcut" \
  "$WORK/taint.txt"
run "$LINT" "${TAINT[@]}" --provenance --explain "$ID" \
  > "$WORK/explain.txt" 2> "$WORK/err.txt"
[[ "$CODE" -eq 4 ]] || die "--explain exited $CODE, want 4" "$WORK/err.txt"
grep -q 'derivation of the sink points-to fact' "$WORK/explain.txt" \
  || die "--explain $ID printed no derivation chain" "$WORK/explain.txt"
STEPS="$(grep -c ' <= ' "$WORK/explain.txt" || true)"
[[ "$STEPS" -gt 0 ]] || die "--explain $ID printed no derivation steps" \
  "$WORK/explain.txt"
if grep -q '<= ?' "$WORK/explain.txt"; then
  die "--explain $ID has a step with no rule" "$WORK/explain.txt"
fi
echo "explain $ID: $STEPS derivation steps, each naming its rule"
