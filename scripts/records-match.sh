#!/usr/bin/env bash
# Checks that regenerated deterministic bench records match the committed
# ones. Run it from the repo root after the probes that write them:
#
#   scripts/records-match.sh BENCH_sim_events.json BENCH_eval.json ...
#
# Each named record in the working tree is compared with `git show
# HEAD:<record>`. `BENCH_sim_events*.json` compares its per-dataset, per-arm
# counts (decisions, events, tasks placed; its timings are host noise).
# Every other record compares every field except the run's timestamp,
# commit and host thread count: at pinned seeds its values are a pure
# function of code and config. A change that moves any value fails here
# until its regenerated record is committed.
set -euo pipefail

status=0
for record in "$@"; do
  case "$record" in
    BENCH_sim_events*)
      filter='[.datasets[] | .name as $d | .arms[] | {dataset: $d, arm: .name, decisions, events, tasks_placed}]'
      ;;
    *)
      filter='del(.created_unix_s, .git_commit, .threads)'
      ;;
  esac
  committed=$(git show "HEAD:$record" | jq -c "$filter")
  regenerated=$(jq -c "$filter" "$record")
  if [ "$committed" = "[]" ]; then
    echo "$record: the committed record holds nothing to compare" >&2
    status=1
  elif [ "$committed" != "$regenerated" ]; then
    diff <(echo "$committed" | jq .) <(echo "$regenerated" | jq .) || true
    echo "$record differs from the committed record" >&2
    status=1
  else
    echo "$record matches the committed record"
  fi
done
exit "$status"
