#!/usr/bin/env bash
# Full verification gate. Run from the repo root before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Metric-name drift: every metric name registered by a literal string in
# first-party sources must appear (backticked) in OBSERVABILITY.md, so
# the doc can't silently fall behind the code. crates/obs is excluded —
# its tests register throwaway names to exercise the registry itself.
# Names built at runtime (e.g. per-operation server counters) are out of
# this check's reach and rely on review.
echo "==> OBSERVABILITY.md metric-name check"
metric_srcs=$(ls -d crates/*/src | grep -v '^crates/obs/')
drift=0
while IFS= read -r name; do
  if ! grep -qF "\`$name\`" OBSERVABILITY.md; then
    echo "ERROR: metric '$name' is emitted in code but undocumented in OBSERVABILITY.md"
    drift=1
  fi
done < <(grep -rhoE '\.(counter|gauge|histogram)\("[^"]+"\)' $metric_srcs --include='*.rs' \
           | sed -E 's/.*\("([^"]+)"\)/\1/' | sort -u)
[ "$drift" -eq 0 ] || exit 1
echo "all emitted metric names are documented"

echo "==> cargo test (failpoints feature)"
cargo test -q -p qp-exec -p qp-core --features failpoints

# The serving configuration sweep: everything must pass at every pool
# width — 1 is the identical serial code path, 2 is the minimal stealing
# pair, 4 the default serving width, 8 oversubscribes this container so
# workers contend and steal constantly — and again with both caches
# bypassed. Parallelism and caching are transparent optimizations, never
# behavioural switches.
for par in 1 2 4 8; do
  echo "==> cargo test (QP_PARALLELISM=$par)"
  QP_PARALLELISM=$par cargo test -q --workspace
done

echo "==> cargo test (caches disabled)"
QP_DISABLE_PLAN_CACHE=1 QP_DISABLE_PREF_CACHE=1 cargo test -q --workspace

# Vectorization regression tripwire: re-run the vectorized bench fresh
# and compare each workload's `batch_ms` against the committed
# BENCH_vectorized.json snapshot. A fresh time above 1.25x the committed
# one is flagged loudly. Advisory only (shared machines are noisy): the
# build refreshes the snapshot via `repro --bench-vectorized`
# deliberately, not through this gate.
if [ -f BENCH_vectorized.json ]; then
  echo "==> vectorized bench regression check (fresh run vs committed)"
  repro_bin="$PWD/target/release/repro"
  bench_tmp="$(mktemp -d)"
  (cd "$bench_tmp" && "$repro_bin" --bench-vectorized --runs 7 >/dev/null)
  awk -F'"batch_ms": ' '
    FNR == 1 { f++ }
    /"batch_ms":/ { split($2, a, /[,}]/); n[f]++; v[f, n[f]] = a[1] + 0 }
    END {
      bad = 0
      for (i = 1; i <= n[2]; i++) if (v[2, i] > 1.25 * v[1, i]) bad = 1
      if (bad) print "WARNING: a fresh vectorized batch_ms exceeds 1.25x the committed BENCH_vectorized.json"
      else print "fresh vectorized batch_ms within 1.25x of the committed snapshot"
    }' BENCH_vectorized.json "$bench_tmp/BENCH_vectorized.json"
  rm -rf "$bench_tmp"
fi

# Chaos leg: the seeded soak harness drives a multi-thread serving fleet
# through the ChaosPlan failpoint schedule with the pool fanned out. The
# seeds are fixed inside the test, so failures replay exactly.
echo "==> cargo test (chaos soak, failpoints + QP_PARALLELISM=4)"
QP_PARALLELISM=4 cargo test -q -p qp-core --features failpoints --test chaos_soak

# Wire-serving leg: build the server and client crates, run the
# server integration suite (failpoints arm the panic-isolation and
# network-chaos soak tests; failpoint registries are process-global, so
# this binary must run single-threaded), then smoke the load generator
# end to end at a tiny scale — an in-process qp-server, 30 users
# registering over the wire, steady + chaos legs.
echo "==> cargo build (qp-server, qp-client)"
cargo build --release -p qp-server -p qp-client
# Binary smoke: the server serves until stdin closes, then shuts down.
# Its accept thread blocks in `accept`, so a shutdown that never wakes it
# hangs here until the timeout, on a loopback and on a wildcard bind.
for bind in 127.0.0.1:0 0.0.0.0:0; do
  echo "==> qp-server binary smoke ($bind)"
  echo | timeout 30 target/release/qp-server "$bind" --movies 200 >/dev/null \
    || { echo "ERROR: qp-server on $bind did not exit cleanly after stdin EOF"; exit 1; }
done
echo "==> cargo test (server integration, failpoints)"
cargo test -q --features failpoints --test server_integration -- --test-threads=1
echo "==> bench-serving smoke (small scale)"
cargo build --release -p qp-bench --features failpoints
repro_fp_bin="$PWD/target/release/repro"
serving_tmp="$(mktemp -d)"
(cd "$serving_tmp" && "$repro_fp_bin" --bench-serving --scale small --runs 1 --users 30 >/dev/null)

# Serving scaling tripwire: the same leg at medium scale (20x the
# movies), then the steady-leg p50 ratio medium/small. The linear wire
# codec measured 22x on a 2-CPU host; a stage that grows superlinearly
# with data (the quadratic JSON decoder made it 212x) shows as a ratio
# above twice that. Advisory only, like the vectorized check.
echo "==> bench-serving scaling check (small -> medium)"
mkdir "$serving_tmp/medium"
(cd "$serving_tmp/medium" && "$repro_fp_bin" --bench-serving --scale medium --runs 1 --users 30 >/dev/null)
awk -F'"p50_us": ' '
  FNR == 1 { f++ }
  /"steady":/ { split($2, a, /[,}]/); p50[f] = a[1] + 0 }
  END {
    ratio = p50[2] / p50[1]
    if (ratio > 44) printf "WARNING: serving p50 grows %.0fx from small to medium scale (measured 22x)\n", ratio
    else printf "serving p50 grows %.0fx from small to medium scale\n", ratio
  }' "$serving_tmp/BENCH_serving.json" "$serving_tmp/medium/BENCH_serving.json"
rm -rf "$serving_tmp"

# Profile-store leg: the store-backed serving tests (cache identity,
# torn-read safety, codec round-trip properties) plus a small-scale
# smoke of the million-profile bench — 20k users exercises the full
# register → lookup → cold/warm selection pipeline in seconds.
echo "==> cargo test (profile store)"
cargo test -q --test profile_store --test serving
echo "==> bench-profiles smoke (20k users)"
profiles_tmp="$(mktemp -d)"
(cd "$profiles_tmp" && "$repro_fp_bin" --bench-profiles --scale small --users 20000 >/dev/null)
rm -rf "$profiles_tmp"

# Durability leg: frame-layer corruption properties (torn/bit-flipped/
# garbage tails recover the longest valid prefix), then the end-to-end
# recovery suite — reopen identity by digest, checkpoint + snapshot
# replay, torn-tail repair, decode-LRU bounds, server restart over the
# wire. The failpoints run arms the disk-fault sites (read-only
# degradation, refused recovery on read faults, the kill-during-flush
# chaos soak); failpoint registries are process-global, so it must run
# single-threaded. The fsync=always pass proves the synchronous
# durability policy changes loss bounds, never behaviour.
echo "==> cargo test (persistence frame properties)"
cargo test -q -p qp-storage --test persist_props
echo "==> cargo test (crash recovery)"
cargo test -q --test persist_recovery
echo "==> cargo test (disk-fault chaos, failpoints)"
cargo test -q --features failpoints --test persist_recovery -- --test-threads=1
echo "==> cargo test (QP_PERSIST_FSYNC=always, crash recovery)"
QP_PERSIST_FSYNC=always cargo test -q --test persist_recovery
echo "==> bench-recovery smoke (20k users)"
recovery_tmp="$(mktemp -d)"
(cd "$recovery_tmp" && "$repro_fp_bin" --bench-recovery --scale small --users 20000 >/dev/null)
rm -rf "$recovery_tmp"

# Maintenance leg: the incremental-maintenance parity suite (maintained
# materializations byte-identical to recompute-from-scratch, including
# delete-then-reinsert and schema-publish memo drops), then a small
# smoke of the mixed read/write bench at an elevated write rate so the
# patch/carry/rematerialize paths all execute under the clock.
echo "==> cargo test (incremental maintenance)"
cargo test -q -p qp-core --test maintenance
echo "==> bench-maintenance smoke (small scale)"
maint_tmp="$(mktemp -d)"
(cd "$maint_tmp" && "$repro_fp_bin" --bench-maintenance --scale small --runs 1 --write-rate 4 >/dev/null)
rm -rf "$maint_tmp"

# Forced-open breaker: every serving test must still pass when the
# circuit breaker is pinned open — personalizers without a resilience
# bundle are unaffected, and those with one keep serving degraded
# answers deterministically (tests construct explicit BreakerConfigs).
echo "==> cargo test (QP_BREAKER_FORCE_OPEN=1, serving + resilience)"
QP_BREAKER_FORCE_OPEN=1 cargo test -q --test serving --test resilience

# First-party crates only: the vendored offline shims (vendor/*) are API
# stand-ins and are not held to the documentation gate.
FIRST_PARTY=(-p personalized-queries -p qp-storage -p qp-obs -p qp-sql
             -p qp-exec -p qp-core -p qp-datagen -p qp-bench
             -p qp-client -p qp-server)

echo "==> cargo doc -D warnings (first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${FIRST_PARTY[@]}"

echo "==> cargo test --doc (first-party crates)"
cargo test -q --doc "${FIRST_PARTY[@]}"

echo "ok: all checks passed"
