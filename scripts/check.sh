#!/usr/bin/env bash
# Tier-1 verification: release build, the full test suite, and the
# sequential execution path (core with the `parallel` feature off, so
# the scheduler's sequential fallback and the single-threaded kernels
# stay green too).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo build --release -p server"
cargo build --release -p server

echo "== cargo build --examples"
cargo build --examples

echo "== cargo test -q (workspace)"
cargo test -q --workspace

echo "== cargo test -q -p graphblas-core --no-default-features (sequential path)"
cargo test -q -p graphblas-core --no-default-features

# Benches must at least compile (they are exercised manually / by the
# reproduce script, not in CI hot path).
echo "== cargo bench --no-run"
cargo bench --no-run --quiet

# Out-of-core cold tiles: the mmap-backed grid must build and traverse
# a graph whose slab cannot be allocated under a 32 MiB rlimit-capped
# heap (tests/out_of_core.rs caps its own process; feature-gated so the
# default build stays dependency-free of the unix mmap ABI).
echo "== cargo test -q --features mmap-cold (cold tiles + out-of-core smoke)"
cargo test -q -p graphblas-core --features mmap-cold cold
cargo test -q --features mmap-cold --test out_of_core

# Thread matrix: the pool width and default degree follow
# GRB_TEST_THREADS, and the determinism suites (serial-vs-parallel,
# blocking-vs-nonblocking modes, deferred-vs-eager pending updates,
# MVCC snapshot isolation, push/pull/dense SpMSpV and push/Gustavson/dot
# mxm direction equivalence, tiled-vs-slab bitwise equivalence, the
# erased UDF lane, and the query service's admission/fairness/
# write-isolation properties) must hold at every count. The suite list
# is the same as the thread-matrix job in .github/workflows/ci.yml.
suites="--test par_determinism --test modes_equivalence --test delta_equivalence --test snapshot_isolation --test direction_equivalence --test tiled_equivalence --test udf_equivalence"
for threads in 1 2 8; do
    echo "== GRB_TEST_THREADS=$threads cargo test -q $suites"
    # shellcheck disable=SC2086 # $suites is a flag list
    GRB_TEST_THREADS="$threads" cargo test -q $suites
    echo "== GRB_TEST_THREADS=$threads cargo test -q -p server --test admission --test write_during_bfs"
    GRB_TEST_THREADS="$threads" cargo test -q -p server --test admission --test write_during_bfs
done

# The benchmark's smoke test: every declared metric is emitted, and a
# corrupted app fails the run, so a library change that trips the
# benchmark's correctness gate fails here too.
echo "== cargo test --release --offline --manifest-path perfbench/Cargo.toml (benchmark smoke)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== OK"
