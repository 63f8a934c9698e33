#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--smoke] [--check-repeat]
#       the whole suite: five workloads, untraced then traced; prints every
#       metric by name with its unit; exits non-zero on any correctness
#       failure. --smoke: 2 s windows, no traced runs. --check-repeat: make
#       every untraced run twice, back to back, on the same build and fail
#       if any end-to-end metric differs by more than its own bound.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is one JSON object
#       {"correct", "attempted", "failed", "metrics"} (see BENCHMARK.json).
#
# Builds the node (`serve`, from the repo's own workspace — what operators
# deploy) and the benchmark (a package of its own under benchmark/), then
# hands over to the benchmark binary. Offline: every dependency is a path
# dependency into crates/ and vendor/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# With CARGO_TARGET_DIR set (possibly relative to the caller's directory),
# both builds share it; otherwise each workspace uses its own target/.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    mkdir -p "$CARGO_TARGET_DIR"
    serve_target="$(cd "$CARGO_TARGET_DIR" && pwd)"
    bench_target="$serve_target"
else
    serve_target="$root/target"
    bench_target="$here/target"
fi

# Build chatter goes to stderr so stdout carries only the benchmark's report.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    --target-dir "$serve_target" -p fresca-serve --bin serve >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --target-dir "$bench_target" >&2

exec "$bench_target/release/fresca-benchmark" \
    --serve-bin "$serve_target/release/serve" \
    --results-dir "$here/results" \
    "$@"
