#!/usr/bin/env bash
# CLI identity check for a change that must be bit-exact.
#
#   bash scripts/cli_identity.sh [BASE] [--dir DIR]
#
# Exports BASE (git archive, default HEAD) and the working tree (tracked
# and untracked, non-ignored files) into two fresh directories under DIR,
# builds the CLI in each, runs the command list below on both sides and
# diffs each command's output, ignoring only `time:` lines (wall-clock
# figures).  Prints one line per command and exits 1 if any output
# differs, 0 if all are identical.  Each side's outputs stay in
# DIR/{base,change}/out/.  The list covers the timing kernels (every
# optimizer mode on mult16 and rand1700, jobs 1 and 2, a one-cone and a
# ten-cone partitioned optimize), every optimizer option a caller sets
# (experiments A2: threshold-only and size-only runs; A3: all four
# sensitivities; A13: the det corner sweep; A14: the LR optimizer) and
# the die kernel (mc and yield).  A4 is left out: it prints wall-clock
# columns.  About 1-2 minutes per side on 2 cores, most of it the
# experiments, which are all computed whatever ids are asked for.
set -euo pipefail

base=HEAD dir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --dir) dir="$2"; shift 2 ;;
    -*) echo "cli_identity: unknown argument $1" >&2; exit 2 ;;
    *) base="$1"; shift ;;
  esac
done

root="$(cd "$(dirname "$0")/.." && pwd)"
base_rev="$(git -C "$root" rev-parse --short "$base")"
dir="${dir:-$(mktemp -d "${TMPDIR:-/tmp}/cli_identity.XXXXXX")}"
rm -rf "$dir/base" "$dir/change"
mkdir -p "$dir/base" "$dir/change"

git -C "$root" archive "$base_rev" | tar -x -C "$dir/base"
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf -) | tar -x -C "$dir/change"

for side in base change; do
  echo "building $side ..." >&2
  (cd "$dir/$side" && DUNE_CACHE=disabled dune build --root . -j 2 bin/statleak_cli.exe) \
    >"$dir/$side.build.log" 2>&1
  mkdir -p "$dir/$side/out"
done

commands=()
for c in mult16 rand1700; do
  for m in stat batch det lr; do
    commands+=("optimize $c --mode $m --samples 0 --profile")
  done
  for m in stat batch; do
    commands+=("optimize $c --mode $m --samples 0 --profile --jobs 2")
  done
done
commands+=(
  "optimize add32 --partition"
  "optimize spipe30k --mode batch --partition --jobs 2 --samples 0 --profile"
  "experiments A2 A3 A13 A14"
  "mc alu32 --samples 3000 --seed 42 --jobs 2"
  "mc rand1700 --samples 2000 --seed 7"
  "yield add32"
  "yield rand1700 --seed 3"
  "yield mult16 --method naive --max-samples 4096 --halfwidth 0"
  "yield add32 --method lhs --max-samples 4096 --halfwidth 0"
)

status=0
i=0
for cmd in "${commands[@]}"; do
  i=$((i + 1))
  for side in base change; do
    # shellcheck disable=SC2086
    (cd "$dir/$side" && ./_build/default/bin/statleak_cli.exe $cmd) \
      >"$dir/$side/out/$i.txt" 2>&1 || echo "exit $?" >>"$dir/$side/out/$i.txt"
  done
  if diff <(grep -v 'time:' "$dir/base/out/$i.txt") \
          <(grep -v 'time:' "$dir/change/out/$i.txt") >"$dir/diff-$i.txt"; then
    echo "same    $cmd"
  else
    echo "DIFFERS $cmd  (see $dir/diff-$i.txt)"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "cli_identity: all ${#commands[@]} outputs identical to $base_rev (time: lines aside)"
else
  echo "cli_identity: outputs differ from $base_rev" >&2
fi
exit "$status"
