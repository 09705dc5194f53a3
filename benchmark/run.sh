#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in this process; the last line of stdout is the JSON
#       result (what the benchmark driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 1]
#       all four workloads, one process each -> benchmark/out/results.json
#   benchmark/run.sh --quick [--trace 1]     one set-up and one unit each (< 60 s)
#   benchmark/run.sh --selfcheck [--trace 1] two full sets must agree within
#                                            the bounds of BENCHMARK.json
#   benchmark/run.sh --write-golden 0..63    re-record benchmark/golden.json
#
# Run it from the root of the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# None of the ~20 PUFFER_* knobs may skew a comparison: the benchmark sets
# pool width, bucket size and collective itself, and the probe stays off.
for var in $(compgen -e | grep '^PUFFER_' || true); do
    unset "$var"
done

# Build inside the checkout. A relative CARGO_TARGET_DIR is relative to the
# directory this script was started from.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr so that stdout ends with the result line.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

# Ask git only in a checkout that is a repository itself, so that it never
# walks up into directories that are none of the benchmark's business.
git_rev=unknown
if [ -e "$here/../.git" ]; then
    git_rev="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
rustc_version="$(rustc -V 2>/dev/null || echo unknown)"

exec "$target/release/puffer-benchmark" \
    --out "$here/out" \
    --golden "$here/golden.json" \
    --benchmark-json "$here/../BENCHMARK.json" \
    --git-rev "$git_rev" \
    --rustc "$rustc_version" \
    "$@"
