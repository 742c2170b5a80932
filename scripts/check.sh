#!/usr/bin/env bash
# The single verification entry point (see README "Verifying a change"):
#   1. tier 1 — build everything and run the full test suite;
#   2. tsan   — rebuild with ThreadSanitizer and run the concurrency tests
#               (runtime scheduler, session server, determinism, parallel
#               delta propagation, and the morsel fan-out suite in
#               batch_eval_test — morsel bodies run concurrently on pool
#               workers, so their result-slot hand-off must be race-free);
#   3. asan   — rebuild with Address+UB sanitizers and run the columnar /
#               batch-evaluation / aggregates tests (the paths that index raw
#               column vectors through selection vectors and dictionary
#               codes) and the render / canvas-renderer / viewer tests (the
#               rasterizer writes spans straight into the framebuffer, with
#               no per-pixel bounds test);
#   4. ubsan  — rebuild with UndefinedBehaviorSanitizer alone (unlike the
#               asan pass it traps on the first finding instead of
#               recovering) and run the join/operator tests — the class of
#               bug this catches mechanically is the old HashKey
#               out-of-range double->int64 cast — and the render tests,
#               whose deep-zoom cases would overflow int device coordinates
#               without saturation;
#   5. recovery — the crash-safety gate: the storage tests (which include
#               the nine-figure kill-and-recover snapshot/replay cycle) under
#               ThreadSanitizer — snapshotting runs on a background thread
#               concurrent with edits and queries — and the FaultFs
#               crash-injection property tests under Address+UB sanitizers,
#               where torn half-records are decoded from raw bytes;
#   6. nosimd — rebuild with -DTIOGA2_SIMD=OFF and rerun the full suite, so
#               the scalar fallback path (the only path on machines where the
#               SIMD tiers are compiled out) can never rot. The sanitizer
#               passes above inherit the default SIMD=ON build and therefore
#               sanitize the kernels themselves;
#   7. docs   — lint that every DESIGN.md / ARCHITECTURE.md / EXPERIMENTS.md
#               section anchor referenced from README.md (and between those
#               documents) resolves, so renaming a heading cannot silently
#               orphan the execution-model documentation;
#   8. load-smoke — a small-N run of the session-server load harness
#               (bench_session_load --smoke): replays mixed multi-session
#               traffic with the shared memo tier on and off, asserting zero
#               handler errors, nonzero shared-cache hits, byte-identical
#               cross-session outputs, and convergence within 2x
#               single-session work; then validates the emitted JSON report.
#   9. dict-smoke — a small-N run of the dictionary-encoding ablation
#               (bench_dict_strings --smoke): runs the categorical restrict /
#               group-by / string-key join workloads scalar, vectorized
#               without dictionaries, and vectorized with dictionaries,
#               asserting cell-identical outputs across all three, that the
#               dict restrict actually dispatched code-lane batches, and that
#               the dict join never fell back to string hashing; then
#               validates the JSON.
#  10. contention — a small-N run of the lock-contention harness
#               (bench_lock_contention --smoke): sweeps the epoch-reclaimed
#               lock-free memo-lookup and catalog-resolution paths at 1/8/32
#               reader threads, asserting 8-thread throughput holds parity
#               with 1 thread (readers must never re-serialize) and that
#               epoch pins were actually taken; then validates the JSON.
# The epoch-reclamation tests (epoch_test, incl. the reader/retire torture
# case) run in the tsan, asan, AND ubsan passes: reclaim-while-pinned is a
# use-after-free asan turns into a hard failure, and pin/advance ordering
# bugs are races tsan reports.
# Pass --fast to run tier 1 only.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== docs: markdown anchor lint =="
scripts/lint_docs.sh

echo "== tier 1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

if [[ "${1:-}" == "--fast" ]]; then
  echo "OK (fast)"
  exit 0
fi

echo "== load-smoke: session-server load harness, small N =="
cmake --build build -j --target bench_session_load
build/bench/bench_session_load --smoke --out=bench_out/session_load_smoke.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool bench_out/session_load_smoke.json >/dev/null
else
  # Minimal structural check when python3 is unavailable.
  grep -q '"convergence"' bench_out/session_load_smoke.json
  grep -q '"shared_on"' bench_out/session_load_smoke.json
fi

echo "== dict-smoke: dictionary-encoded string execution ablation, small N =="
cmake --build build -j --target bench_dict_strings
build/bench/bench_dict_strings --smoke --out=bench_out/dict_strings_smoke.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool bench_out/dict_strings_smoke.json >/dev/null
else
  grep -q '"restrict"' bench_out/dict_strings_smoke.json
  grep -q '"fig07"' bench_out/dict_strings_smoke.json
fi

echo "== contention: lock-free read-path harness, small N =="
cmake --build build -j --target bench_lock_contention
build/bench/bench_lock_contention --smoke --out=bench_out/lock_contention.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool bench_out/lock_contention.json >/dev/null
else
  grep -q '"memo_lookup"' bench_out/lock_contention.json
  grep -q '"catalog_resolve"' bench_out/lock_contention.json
fi

echo "== tsan: runtime + session server + epoch + morsel fan-out tests =="
cmake -B build-tsan -S . -DTIOGA2_TSAN=ON >/dev/null
cmake --build build-tsan -j --target \
  runtime_test session_server_test runtime_determinism_test delta_update_test \
  batch_eval_test epoch_test
(cd build-tsan && ctest --output-on-failure \
  -R 'runtime|session_server|delta_update|batch_eval|epoch')

echo "== asan: columnar + batch evaluation + aggregates + epoch + render tests =="
cmake -B build-asan -S . -DTIOGA2_ASAN=ON >/dev/null
cmake --build build-asan -j --target \
  columnar_test batch_eval_test operators_test display_relation_test \
  aggregates_test epoch_test render_test canvas_renderer_test viewer_test
(cd build-asan && ctest --output-on-failure \
  -R 'columnar_test|batch_eval_test|operators_test|display_relation_test|aggregates_test|epoch_test|render_test|canvas_renderer_test|viewer_test')

echo "== ubsan: join + operator + aggregates + epoch + render tests =="
cmake -B build-ubsan -S . -DTIOGA2_UBSAN=ON >/dev/null
cmake --build build-ubsan -j --target \
  join_test operators_test columnar_test batch_eval_test aggregates_test \
  epoch_test render_test canvas_renderer_test viewer_test
(cd build-ubsan && ctest --output-on-failure \
  -R 'join_test|operators_test|columnar_test|batch_eval_test|aggregates_test|epoch_test|render_test|canvas_renderer_test|viewer_test')

echo "== recovery: storage snapshot/replay under tsan, crash injection under asan =="
cmake --build build-tsan -j --target storage_test
(cd build-tsan && ctest --output-on-failure -R 'storage_test')
cmake --build build-asan -j --target storage_test storage_crash_test
(cd build-asan && ctest --output-on-failure -R 'storage_test|storage_crash_test')

echo "== nosimd: full suite with the SIMD tiers compiled out =="
cmake -B build-nosimd -S . -DTIOGA2_SIMD=OFF >/dev/null
cmake --build build-nosimd -j
(cd build-nosimd && ctest --output-on-failure -j)

echo "OK"
