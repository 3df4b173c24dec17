#!/usr/bin/env bash
# Paired before/after timing of one benchmark workload.
#
#   bash scripts/bench_pairs.sh --workload iscas-flow [--seed 1] [--seconds 30]
#                               [--pairs 10] [--base HEAD] [--dir DIR]
#
# Exports the base revision (git archive) and the working tree (tracked and
# untracked, non-ignored files) into two fresh directories under DIR, builds
# each once, then runs `perfbench/run.sh --trace 0` for N alternating pairs
# (the side that goes first swaps every pair).  Prints, for each end-to-end
# metric of BENCHMARK.json, each side's median and quartiles, the median
# change against the base's interquartile range, and how many pairs the
# working tree won; then, for information only (no won/lost verdict), each
# side's median and quartiles of the workload-table figures (mc_verify_s,
# det_optimize_s, ...), which show where the time went; then the `correct`
# and `failed` totals.  Each run's full stdout stays in
# DIR/runs/{base,change}-N.txt and its result line in DIR/{base,change}.jsonl.
# Run-to-run noise on a shared host is far above what CI could gate on; this
# is a local measurement tool.
set -euo pipefail

workload="" seed=1 seconds=30 pairs=10 base=HEAD dir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --base) base="$2"; shift 2 ;;
    --dir) dir="$2"; shift 2 ;;
    *) echo "bench_pairs: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$workload" ]; then
  echo "usage: bench_pairs.sh --workload NAME [--seed N] [--seconds S] [--pairs N] [--base REV] [--dir DIR]" >&2
  exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
base_rev="$(git -C "$root" rev-parse --short "$base")"
dir="${dir:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}"
rm -rf "$dir/base" "$dir/change" "$dir/runs"
mkdir -p "$dir/base" "$dir/change" "$dir/runs"
: > "$dir/base.jsonl"
: > "$dir/change.jsonl"

git -C "$root" archive "$base_rev" | tar -x -C "$dir/base"
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf -) | tar -x -C "$dir/change"

for side in base change; do
  echo "building $side ..." >&2
  (cd "$dir/$side" && DUNE_CACHE=disabled dune build --root . -j 2 \
    perfbench/main.exe bin/statleak_cli.exe) >"$dir/$side.build.log" 2>&1
done

run() {
  local out="$dir/runs/$1-$2.txt"
  bash "$dir/$1/perfbench/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>>"$dir/$1.stderr.log" >"$out"
  tail -n 1 "$out" >>"$dir/$1.jsonl"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
  echo "pair $i/$pairs done" >&2
done

python3 - "$dir" "$root/BENCHMARK.json" "$workload" "$seed" "$seconds" "$base_rev" "$pairs" <<'EOF'
import json, statistics, sys

d, bench, workload, seed, seconds, base_rev, npairs = sys.argv[1:]
spec = json.load(open(bench))["end_to_end"]
runs = {s: [json.loads(l) for l in open(f"{d}/{s}.jsonl") if l.strip()]
        for s in ("base", "change")}
pairs = min(len(runs["base"]), len(runs["change"]))
print(f"workload {workload}  seed {seed}  seconds {seconds}  pairs {pairs}  "
      f"(base {base_rev} vs working tree)")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':<26}{'better':<8}{'base median [q1, q3]':<38}"
      f"{'change median [q1, q3]':<38}{'delta/IQR':>10}{'won':>8}{'ties':>6}")
for m in spec:
    name, lower = m["name"], m["better"] == "lower"
    vals = {s: [r["metrics"][name]["value"] for r in runs[s][:pairs]
                if name in r.get("metrics", {})] for s in runs}
    if not vals["base"] or not vals["change"] or len(vals["base"]) != len(vals["change"]):
        print(f"{name:<26}(missing)")
        continue
    (b1, bm, b3), (c1, cm, c3) = quartiles(vals["base"]), quartiles(vals["change"])
    won = sum(1 for b, c in zip(vals["base"], vals["change"])
              if (c < b if lower else c > b))
    ties = sum(1 for b, c in zip(vals["base"], vals["change"]) if b == c)
    iqr = b3 - b1
    ratio = f"{abs(cm - bm) / iqr:.1f}" if iqr > 0 else ("0.0" if cm == bm else "inf")
    fmt = lambda a, b, c: f"{b:.6g} [{a:.6g}, {c:.6g}]"
    print(f"{name:<26}{m['better']:<8}{fmt(b1, bm, b3):<38}{fmt(c1, cm, c3):<38}"
          f"{ratio:>10}{won:>5}/{pairs}{ties:>6}")

def workload_table(path):
    """The `== workload` table of one run's stdout: {figure: value}."""
    figures, inside = {}, False
    for line in open(path):
        if line.startswith("=="):
            inside = line.strip() == "== workload"
        elif inside and line.startswith("  "):
            parts = line.split()
            try:
                figures[parts[0]] = float(parts[1])
            except (IndexError, ValueError):
                pass
    return figures

tables = {s: [workload_table(f"{d}/runs/{s}-{i}.txt") for i in range(1, int(npairs) + 1)]
          for s in ("base", "change")}
names = [k for k in tables["base"][0]] if tables["base"] and tables["base"][0] else []
if names:
    print("workload figures (informational, no verdict)")
    print(f"{'figure':<26}{'base median [q1, q3]':<38}{'change median [q1, q3]':<38}")
for name in names:
    vals = {s: [t[name] for t in tables[s] if name in t] for s in tables}
    if not vals["base"] or not vals["change"]:
        continue
    (b1, bm, b3), (c1, cm, c3) = quartiles(vals["base"]), quartiles(vals["change"])
    fmt = lambda a, b, c: f"{b:.6g} [{a:.6g}, {c:.6g}]"
    print(f"{name:<26}{fmt(b1, bm, b3):<38}{fmt(c1, cm, c3):<38}")
for s in ("base", "change"):
    rs = runs[s]
    print(f"{s}: correct {sum(1 for r in rs if r.get('correct'))}/{len(rs)} runs, "
          f"failed ops {sum(r.get('failed', 0) for r in rs)}")
EOF
