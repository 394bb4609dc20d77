#!/usr/bin/env bash
# Witness-identity fingerprint of the Table-1 SSL campaign.
#
# Runs `error_campaign --model ssl` once and prints, on stdout:
#   - columns 1-8 of its CSV (model, error, outcome, abort, verify,
#     test_length, backtracks, decisions; columns 9-12 are wall-clock
#     timings and are left out), one row per error;
#   - one `witnesses sha256 <digest>` line over every test --save-tests
#     wrote, hashed in error-index order.
# A speed-only change to the generator must leave this output
# byte-identical: same outcome per error, same search effort, same
# witness programs. tests/golden/ssl_campaign_witnesses.txt holds the
# reference; regenerate it only for a change that is meant to move
# decisions or witnesses, and say so.
#
# Usage: tools/witness_golden.sh BUILD_DIR > current.txt
#        diff tests/golden/ssl_campaign_witnesses.txt current.txt
set -euo pipefail

BUILD="${1:?usage: witness_golden.sh BUILD_DIR}"
WORK="$(mktemp -d /tmp/hltg_golden.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

mkdir -p "$WORK/tests"
"$BUILD/examples/error_campaign" --model ssl --csv "$WORK/campaign.csv" \
  --save-tests "$WORK/tests" > "$WORK/stdout.txt"
cut -d, -f1-8 "$WORK/campaign.csv"
DIGEST="$(cd "$WORK/tests" && ls | sort -t_ -k2 -n |
  while read -r f; do printf '%s\n' "$f"; cat "$f"; done | sha256sum |
  cut -d' ' -f1)"
echo "witnesses sha256 $DIGEST"
