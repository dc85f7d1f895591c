#!/usr/bin/env bash
# Holds this tree against a parent commit on BENCHMARK.json's own terms:
# benchmark/run.sh on both, in alternating order, and the median of every
# end_to_end metric compared with the `better` and `bound` declared there.
# Exits 1 when a metric is worse than the parent by more than its bound, a
# run of this tree is not correct, or a larger share of its operations fails.
# A metric whose parent runs alone spread wider than its bound (interquartile
# range over median) reads "unresolved", neither ok nor FAIL: the host was too
# noisy to tell, so run more pairs.
# Needs bash, git, go and jq; runs and table land in .bench_build/pair/.
set -euo pipefail
usage="usage: scripts/benchpair.sh [-p pairs] [-s seconds] <parent-ref> [workload...]"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
pairs=3 seconds=$(jq .run_seconds BENCHMARK.json)
while getopts p:s: o; do
  case $o in p) pairs=$OPTARG ;; s) seconds=$OPTARG ;; *) echo "$usage" >&2; exit 2 ;; esac
done
shift $((OPTIND - 1))
[ $# -gt 0 ] || { echo "$usage" >&2; exit 2; }
parent=$1
shift
[ $# -gt 0 ] || set -- $(jq -r '.workloads[].name' BENCHMARK.json)
# Two sides running different benchmarks measure nothing about the program.
git diff --quiet "$parent" -- benchmark BENCHMARK.json || {
  echo "benchpair: benchmark/ or BENCHMARK.json differs from $parent (or it is no commit); nothing to compare" >&2
  exit 2
}
out=.bench_build/pair tree=.bench_build/parent
rm -rf $out && mkdir -p $out
trap 'git worktree remove --force $tree 2>/dev/null; git worktree prune' EXIT
git worktree remove --force $tree 2>/dev/null || true
git worktree add --quiet --detach $tree "$parent"
for w; do
  for ((i = 1; i <= pairs; i++)); do
    order="parent change"
    ((i % 2)) || order="change parent"
    for side in $order; do
      dir=.
      [ $side = change ] || dir=$tree
      echo "benchpair: $w pair $i/$pairs $side" >&2
      bash $dir/benchmark/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1 |
        jq -c --arg w "$w" --arg side $side '{workload: $w, side: $side} + .' >>$out/runs.ndjson
    done
  done
done
jq -rs --slurpfile spec BENCHMARK.json '
  def median: sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2;
  def q($f): sort | ((length - 1) * $f) as $i | .[$i | floor] + (.[$i | ceil] - .[$i | floor]) * ($i - ($i | floor));
  def spread: (q(0.75) - q(0.25)) / ([median | fabs, 1e-9] | max);
  def share: (map(.failed) | add) / ([map(.attempted) | add, 1] | max);
  def verdict(bad): if bad then "FAIL" else "ok" end;
  def r: (. * 1e4 | round) / 1e4 + 0;
  ["workload", "metric", "parent", "change", "change/parent", "bound", "verdict"],
  (group_by(.workload)[]
   | .[0].workload as $w | map(select(.side == "parent")) as $p | map(select(.side == "change")) as $c
   | [$w, "correct", ($p | all(.correct)), ($c | all(.correct)), "-", "true", verdict($c | all(.correct) | not)],
     [$w, "failed_share", ($p | share | r), ($c | share | r), "-", "parent", verdict(($c | share) > ($p | share))],
     ($spec[0].end_to_end[] as $m
      | ($p | map(.metrics[$m.name].value)) as $pv
      | ($pv | median) as $a | ($c | map(.metrics[$m.name].value) | median) as $b
      | (($b - $a) / ([$a, 1e-9] | max)) as $rel
      | [$w, $m.name, ($a | r), ($b | r), "\($rel * 100 | r)%", "\($m.better) \($m.bound * 100)%",
         if ($pv | spread) > $m.bound then "unresolved"
         else verdict((if $m.better == "higher" then -$rel else $rel end) > $m.bound) end]))
  | . as $row | [15, 19, 12, 12, 14, 11, 0] | to_entries
  | map(.value as $n | $row[.key] | tostring | . + " " * ([$n - length, 1] | max)) | join("") | sub(" +$"; "")' $out/runs.ndjson | tee $out/table.txt
! grep -qw FAIL $out/table.txt
