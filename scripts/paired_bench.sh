#!/usr/bin/env bash
# Paired end-to-end comparison of the working tree against a parent revision
# (choosing-metrics §8; benchmark/README.md: any claim under the 25 % bounds
# needs exactly this).
#
#   scripts/paired_bench.sh <parent-rev> <workload> [pairs=10] [metric=samples_per_s]
#
# Exports <parent-rev> into a throw-away directory, builds both sides with
# their own benchmark/run.sh (so each measures the benchmark code it was
# committed with — a change that claims a gain may not have edited it), then
# runs <pairs> pairs of `run.sh --workload W --trace 0`, alternating which
# side goes first and giving both runs of a pair the same seed. Prints every
# run, each side's median and quartiles, the win count, and the §8 verdict:
# a gain needs wins in at least nine tenths of the pairs (ties count for
# neither) and medians further apart than the parent's own quartile spread.
# The same runs' medians of the other end-to-end metrics follow, so one
# sitting also answers "and what did it cost elsewhere".
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
parent_rev="$1"
workload="$2"
pairs="${3:-10}"
metric="${4:-samples_per_s}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Each side builds into its own checkout (run.sh's default), never a shared
# target directory.
unset CARGO_TARGET_DIR

# Direction and run length come from the benchmark's own declaration.
decl="$(grep -A3 "\"name\": \"$metric\"" BENCHMARK.json || true)"
case "$decl" in
    *'"better": "higher"'*) higher=1 ;;
    *'"better": "lower"'*) higher=0 ;;
    *) echo "paired_bench: BENCHMARK.json declares no metric '$metric'" >&2; exit 2 ;;
esac
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"

parent_dir="$(mktemp -d "${TMPDIR:-/tmp}/paired_bench.XXXXXX")"
trap 'rm -rf "$parent_dir"' EXIT
git archive "$parent_rev" | tar -x -C "$parent_dir"

# One run: prints its result line, or fails if the run was not correct.
measure() { # <checkout> <seed>
    local line
    line="$(bash "$1/benchmark/run.sh" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
    case "$line" in
        *'"correct": true'*) ;;
        *) echo "paired_bench: run in $1 was not correct: $line" >&2; return 1 ;;
    esac
    echo "$line"
}
# The value of one metric in a result line.
field() { # <line> <metric>
    echo "$1" | sed -n "s/.*\"$2\": {\"value\": \([-+0-9.eE]*\).*/\1/p"
}

echo "building parent ($parent_rev) and change (working tree)..." >&2
bash "$parent_dir/benchmark/run.sh" --workload "$workload" --seconds 1 --trace 0 >/dev/null
bash "$root/benchmark/run.sh" --workload "$workload" --seconds 1 --trace 0 >/dev/null

parent_lines=()
change_lines=()
parent_vals=()
change_vals=()
wins=0
losses=0
printf '%-5s %-7s %14s %14s\n' pair first parent change
for ((i = 1; i <= pairs; i++)); do
    seed=$((1000 + i))
    if ((i % 2)); then
        first=parent
        pl="$(measure "$parent_dir" "$seed")"
        cl="$(measure "$root" "$seed")"
    else
        first=change
        cl="$(measure "$root" "$seed")"
        pl="$(measure "$parent_dir" "$seed")"
    fi
    parent_lines+=("$pl")
    change_lines+=("$cl")
    p="$(field "$pl" "$metric")"
    c="$(field "$cl" "$metric")"
    parent_vals+=("$p")
    change_vals+=("$c")
    verdict="$(awk -v p="$p" -v c="$c" -v h="$higher" 'BEGIN {
        if (c == p) print "tie"; else if ((c > p) == (h == 1)) print "win"; else print "loss" }')"
    [ "$verdict" = win ] && wins=$((wins + 1))
    [ "$verdict" = loss ] && losses=$((losses + 1))
    printf '%-5s %-7s %14s %14s  %s\n' "$i" "$first" "$p" "$c" "$verdict"
done

# Quartiles by linear interpolation between order statistics.
quartiles() {
    printf '%s\n' "$@" | sort -g | awk '
        { v[NR] = $1 }
        function q(f,   pos, lo, frac) {
            pos = 1 + f * (NR - 1); lo = int(pos); frac = pos - lo
            return lo >= NR ? v[NR] : v[lo] + frac * (v[lo + 1] - v[lo])
        }
        END { printf "%s %s %s", q(0.25), q(0.5), q(0.75) }'
}
read -r p_q1 p_med p_q3 <<<"$(quartiles "${parent_vals[@]}")"
read -r c_q1 c_med c_q3 <<<"$(quartiles "${change_vals[@]}")"

echo
echo "$workload $metric over $pairs pairs of ${seconds}-second runs ($( ((higher)) && echo higher || echo lower) is better)"
printf '  parent  median %s  quartiles %s .. %s\n' "$p_med" "$p_q1" "$p_q3"
printf '  change  median %s  quartiles %s .. %s\n' "$c_med" "$c_q1" "$c_q3"
awk -v pm="$p_med" -v cm="$c_med" -v q1="$p_q1" -v q3="$p_q3" -v w="$wins" -v l="$losses" \
    -v n="$pairs" -v h="$higher" 'BEGIN {
    printf "  change / parent = %.3f (base: parent median)\n", cm / pm
    printf "  change wins %d, loses %d, ties %d of %d pairs\n", w, l, n - w - l, n
    gap = h == 1 ? cm - pm : pm - cm
    if (10 * w >= 9 * n && gap > q3 - q1)
        print "  verdict: gain (wins in >= 9/10 of pairs, medians apart by more than the parent quartile spread)"
    else if (10 * l >= 9 * n && -gap > q3 - q1)
        print "  verdict: regression"
    else
        print "  verdict: unresolved"
}'

echo "  the same runs, other end-to-end metrics (medians; parent -> change):"
for other in $(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z_]*\)".*/\1/p' BENCHMARK.json); do
    [ "$other" = "$metric" ] && continue
    pv=()
    cv=()
    for l in "${parent_lines[@]}"; do pv+=("$(field "$l" "$other")"); done
    for l in "${change_lines[@]}"; do cv+=("$(field "$l" "$other")"); done
    read -r _ pm _ <<<"$(quartiles "${pv[@]}")"
    read -r _ cm _ <<<"$(quartiles "${cv[@]}")"
    awk -v n="$other" -v pm="$pm" -v cm="$cm" 'BEGIN {
        printf "    %-18s %12.4f -> %12.4f  (x%.3f)\n", n, pm, cm, cm / pm }'
done
