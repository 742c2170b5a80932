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
#               no per-pixel bounds test) and the expression parser /
#               robustness tests (the parser's nesting bound is what keeps
#               pathological input from overflowing the stack) and the
#               session-server / determinism / catalog tests (catalog
#               snapshots and shared-cache entries are freed by reference
#               count while pinned readers and evaluations may hold them:
#               a premature free is a use-after-free asan reports);
#   4. ubsan  — rebuild with UndefinedBehaviorSanitizer alone (unlike the
#               asan pass it traps on the first finding instead of
#               recovering) and run the join/operator tests — the class of
#               bug this catches mechanically is the old HashKey
#               out-of-range double->int64 cast — and the render tests,
#               whose deep-zoom cases would overflow int device coordinates
#               without saturation, and the expression parser / robustness
#               tests (20,000-deep nesting and 20,000-term operator chains
#               must come back as a ParseError);
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
#               (bench_lock_contention --smoke): sweeps the sharded-LRU
#               memo-lookup and pinned catalog-resolution paths at 1/8/32
#               reader threads, five interleaved repetitions each, asserting
#               the median 8-thread throughput holds parity with the median
#               1-thread throughput (readers must never re-serialize) and
#               that every lookup hit and every resolve found its table;
#               then validates the JSON.
# The catalog-churn torture case (session_server_test) runs in the tsan and
# asan passes: a snapshot freed under a pinned reader is a use-after-free
# asan reports, and a publish racing a reader is a race tsan reports.
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

echo "== contention: read-path contention harness, small N =="
cmake --build build -j --target bench_lock_contention
build/bench/bench_lock_contention --smoke --out=bench_out/lock_contention.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool bench_out/lock_contention.json >/dev/null
else
  grep -q '"memo_lookup"' bench_out/lock_contention.json
  grep -q '"catalog_resolve"' bench_out/lock_contention.json
fi

echo "== tsan: runtime + session server + morsel fan-out tests =="
cmake -B build-tsan -S . -DTIOGA2_TSAN=ON >/dev/null
cmake --build build-tsan -j --target \
  runtime_test session_server_test runtime_determinism_test delta_update_test \
  batch_eval_test
(cd build-tsan && ctest --output-on-failure \
  -R 'runtime|session_server|delta_update|batch_eval')

echo "== asan: columnar + batch evaluation + aggregates + render + parser + session tests =="
cmake -B build-asan -S . -DTIOGA2_ASAN=ON >/dev/null
cmake --build build-asan -j --target \
  columnar_test batch_eval_test operators_test display_relation_test \
  aggregates_test render_test canvas_renderer_test viewer_test \
  robustness_test expr_parser_test session_server_test \
  runtime_determinism_test catalog_csv_test
(cd build-asan && ctest --output-on-failure \
  -R 'columnar_test|batch_eval_test|operators_test|display_relation_test|aggregates_test|render_test|canvas_renderer_test|viewer_test|robustness_test|expr_parser_test|session_server_test|runtime_determinism_test|catalog_csv_test')

echo "== ubsan: join + operator + aggregates + render + parser tests =="
cmake -B build-ubsan -S . -DTIOGA2_UBSAN=ON >/dev/null
cmake --build build-ubsan -j --target \
  join_test operators_test columnar_test batch_eval_test aggregates_test \
  render_test canvas_renderer_test viewer_test \
  robustness_test expr_parser_test
(cd build-ubsan && ctest --output-on-failure \
  -R 'join_test|operators_test|columnar_test|batch_eval_test|aggregates_test|render_test|canvas_renderer_test|viewer_test|robustness_test|expr_parser_test')

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
