#!/usr/bin/env bash
# Cuts a covtype_adaptive run with --budget 2, then resumes it with
# --budget 4 from the same checkpoint directory. The resume must be
# accepted (same config fingerprint: the budget is not part of it) and
# must carry on past the first leg.
#
#   tests/resume_longer_budget.sh <path/to/covtype_adaptive> <scratch dir>
set -euo pipefail

ADAPTIVE=$1
DIR=$2/resume_longer_budget
rm -rf "$DIR"
mkdir -p "$DIR"
COMMON=(--scale 0.002 --checkpoint-dir "$DIR/ckpt")

"$ADAPTIVE" "${COMMON[@]}" --budget 2 >"$DIR/first.log" 2>&1
if ! compgen -G "$DIR/ckpt/ckpt-*.hetsgd" >/dev/null; then
  echo "FAIL: the --budget 2 leg wrote no checkpoint"
  cat "$DIR/first.log"
  exit 1
fi

if ! "$ADAPTIVE" "${COMMON[@]}" --budget 4 --resume "$DIR/ckpt" \
    >"$DIR/second.log" 2>&1; then
  echo "FAIL: resuming with --budget 4 was refused"
  tail -20 "$DIR/second.log"
  exit 1
fi
if ! grep -q "resumed from checkpoint" "$DIR/second.log"; then
  echo "FAIL: the --budget 4 leg started fresh instead of resuming"
  cat "$DIR/second.log"
  exit 1
fi
first=$(grep -c "^  t=" "$DIR/first.log")
second=$(grep -c "^  t=" "$DIR/second.log")
if (( second <= first )); then
  echo "FAIL: the resumed run evaluated $second points, the cut run $first"
  exit 1
fi
rm -rf "$DIR"
echo "ok: resumed with a longer budget ($first -> $second loss points)"
