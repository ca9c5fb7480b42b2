#!/usr/bin/env bash
# Tier-1 gate: plain build + full test suite, then a ThreadSanitizer build
# running the parallel-subsystem tests plus the concurrent two-session flow
# test, then an AddressSanitizer build running the extraction tests (the
# zero-alloc scratch kernels, the geometry cache and the routing footprint
# lean hard on buffer reuse and flat offsets — ASan guards their bounds;
# the scale smoke adds a 10k-net generated tree and heavy LRU eviction
# under a byte budget) and the delta timer's depth-first net slices and
# the search memo's per-load moment offsets, then an
# UndefinedBehaviorSanitizer build running
# the flow/io layers (parsers and typed error boundaries). The memo-fed
# signoff tests (per-load term offsets, rows filled on 8 threads and read
# by concurrent signoff passes) run under both TSan and ASan.
# A CLI identity leg checks `sndr run` stdout and the --spef file across
# lane counts, memory budgets, anneal, margins, corners and the naive
# full-STA scoring (a lent search state signed off from its memo, next to
# per-candidate full evaluations), plus a 20 000-sink design large enough
# for the fork-join clock-tree build (subtrees built concurrently, spliced
# by index) and the parallel footprint record to engage, with and without
# smart NDR (memo-fed vs extracted baseline rows). The clock-tree tests
# (cts_test: 1-vs-8-lane tree identity) run under TSan and ASan. A DSE leg
# checks that a sweep's artifacts do not depend on the lane count, and a
# service leg drains one `sndr_serve --spool` of 3000-sink and small jobs
# (anneal/corners variants) at 1, nproc and 2*nproc workers and compares
# every job's CSV and SPEF with each other and with `sndr run` on the
# same config. The TSan leg's parallel_test and serve_test drive regions
# from several threads at once on one pool (concurrent callers, busy
# serve workers counted as lanes, a cancel raised mid-region).
# The ASan leg also runs the durable-file parser tests.
# Run from anywhere inside the repo.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"

echo "== tier1: plain build + ctest =="
cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" -j "$jobs" --output-on-failure

# The determinism contract end to end: `sndr run` stdout must be
# byte-identical at 1 vs all lanes, under a tight geometry budget, through
# the annealer at both lane counts (and all lanes under a tight budget:
# skew refinement on a budgeted cache, searches starting from the flow's
# evaluations), with non-default guard bands plus a weighted anneal (the
# margins both searches share, under real parallelism), and with corner
# signoff; the --spef file must be byte-identical at 1 vs all lanes and
# under a tight budget. Files land in the build tree.
echo "== tier1: CLI byte-identity (threads, memory budget, anneal, margins, corners, spef) =="
work="$repo/build/identity"
mkdir -p "$work"
sndr="$repo/build/tools/sndr"
"$sndr" generate --sinks 3000 --dist mixed --seed 9 --out "$work/d.txt" \
  >/dev/null
run() { "$sndr" run --design "$work/d.txt" --results-dir "$work" "$@"; }
run --threads 1 >"$work/t1.txt"
run --threads "$(nproc)" >"$work/tN.txt"
run --threads 1 --memory-budget 64k >"$work/budget.txt"
run --threads 1 --anneal 4000 >"$work/anneal1.txt"
run --threads "$(nproc)" --anneal 4000 >"$work/annealN.txt"
run --threads "$(nproc)" --anneal 4000 --memory-budget 64k \
  >"$work/annealNbudget.txt"
margins=(--anneal 4000 --uncertainty-margin 0.08 --skew-margin 0.15
  --power-weight 0.5)
run --threads 1 "${margins[@]}" >"$work/margins1.txt"
run --threads "$(nproc)" "${margins[@]}" >"$work/marginsN.txt"
# Full-STA scoring: every candidate re-extracts, the search's own signoffs
# and the anneal read the one lent state's memo rows.
run --threads 1 --anneal 2000 --scoring full_sta >"$work/fullsta1.txt"
run --threads "$(nproc)" --anneal 2000 --scoring full_sta \
  >"$work/fullstaN.txt"
# Corner signoff: derated-corner lanes of one batched materialize per net,
# under parallel_for; under a tight budget the corners' routing usage reads
# the budgeted cache's always-resident routing footprint.
run --threads 1 --corners >"$work/corners1.txt"
run --threads "$(nproc)" --corners >"$work/cornersN.txt"
run --threads "$(nproc)" --corners --memory-budget 64k \
  >"$work/cornersNbudget.txt"
# SPEF: evaluations keep no parasitics, so the report stage re-extracts the
# final assignment from the run's geometry cache (budgeted or not).
run --threads 1 --spef spef1.spef >/dev/null
run --threads "$(nproc)" --spef spefN.spef >/dev/null
run --threads "$(nproc)" --memory-budget 64k --spef spefNbudget.spef \
  >/dev/null
cmp "$work/t1.txt" "$work/tN.txt"
cmp "$work/t1.txt" "$work/budget.txt"
cmp "$work/anneal1.txt" "$work/annealN.txt"
cmp "$work/anneal1.txt" "$work/annealNbudget.txt"
cmp "$work/margins1.txt" "$work/marginsN.txt"
cmp "$work/fullsta1.txt" "$work/fullstaN.txt"
cmp "$work/corners1.txt" "$work/cornersN.txt"
cmp "$work/corners1.txt" "$work/cornersNbudget.txt"
cmp "$work/spef1.spef" "$work/spefN.spef"
cmp "$work/spef1.spef" "$work/spefNbudget.spef"

# Fork-join clock-tree build: 20 000 sinks clear the parallel gate, so the
# topology, embedding and emission forks and the parallel footprint record
# really run concurrently at all lanes. With smart NDR the baseline rows
# sign off from the search memo; without it they are extracted.
"$sndr" generate --sinks 20000 --dist mixed --seed 9 --out "$work/d20k.txt" \
  >/dev/null
run20k() { "$sndr" run --design "$work/d20k.txt" --results-dir "$work" "$@"; }
run20k --threads 1 --spef fork1.spef >"$work/fork1.txt"
run20k --threads "$(nproc)" --spef forkN.spef >"$work/forkN.txt"
run20k --threads 1 --no-smart >"$work/forkplain1.txt"
run20k --threads "$(nproc)" --no-smart >"$work/forkplainN.txt"
cmp <(grep -v '^wrote ' "$work/fork1.txt") <(grep -v '^wrote ' "$work/forkN.txt")
cmp "$work/fork1.spef" "$work/forkN.spef"
cmp "$work/forkplain1.txt" "$work/forkplainN.txt"

# DSE standalone identity: a 3x5 annealing grid must write the same sweep
# log, front, CSV and warm-start seeds at 1 vs all lanes. Each sweep starts
# from an empty directory (a leftover sweep.ck would resume instead).
echo "== tier1: DSE sweep byte-identity (threads) =="
sweep() {
  rm -rf "${work:?}/$1"
  "$sndr" dse --design "$work/d.txt" --results-dir "$work" --dse-out "$1" \
    --anneal 4000 --dse-power-weight 0.5,1,2 \
    --dse-max-skew 35,40,45,50,60 --threads "$2" >/dev/null
}
sweep dse1 1
sweep dseN "$(nproc)"
for f in sweep.ck pareto.csv front.json; do
  cmp "$work/dse1/$f" "$work/dseN/$f"
done
diff <(cd "$work/dse1" && ls point_*.seed) <(cd "$work/dseN" && ls point_*.seed)
for f in "$work"/dse1/point_*.seed; do
  cmp "$f" "$work/dseN/${f##*/}"
done

# Service identity: one spool of jobs (the 3000-sink design plus small
# ones, with anneal and corners variants) drained at 1, nproc and 2*nproc
# workers. Busy workers count as pool lanes, so these runs move chunks
# between pool threads and each job's own worker; every
# job's CSV and SPEF must not move, and must equal `sndr run` on the same
# config file. Result lines carry wall times, so files are compared, not
# stdout.
echo "== tier1: sndr_serve spool byte-identity (workers) =="
serve="$repo/build/tools/sndr_serve"
"$sndr" generate --sinks 200 --dist uniform --seed 3 --out "$work/s200.txt" \
  >/dev/null
"$sndr" generate --sinks 600 --dist clustered --seed 5 --out "$work/s600.txt" \
  >/dev/null
job_designs=(d.txt d.txt d.txt d.txt s200.txt s200.txt s600.txt s600.txt)
job_extras=("" "anneal = 2000" "corners = true" "anneal = 2000
corners = true" "" "anneal = 2000" "corners = true" "anneal = 2000")
spool() {  # $1: tag; job k writes its CSV and SPEF under serve_$1/job$k.
  rm -rf "${work:?}/spool_$1" "${work:?}/serve_$1"
  mkdir -p "$work/spool_$1"
  for k in "${!job_designs[@]}"; do
    printf 'design = %s\nresults_dir = %s\ncsv = run.csv\nspef = run.spef\n%s\n' \
      "$work/${job_designs[$k]}" "$work/serve_$1/job$k" "${job_extras[$k]}" \
      >"$work/spool_$1/job$k.job"
  done
  "$serve" --spool "$work/spool_$1" --workers "$2" >/dev/null
}
spool w1 1
spool wN "$(nproc)"
spool w2N "$((2 * $(nproc)))"
for k in "${!job_designs[@]}"; do
  "$sndr" run --config "$work/spool_w1/job$k.job" \
    --results-dir "$work/serve_ref/job$k" >/dev/null
  for tag in w1 wN w2N; do
    for f in run.csv run.spef; do
      cmp "$work/serve_ref/job$k/$f" "$work/serve_$tag/job$k/$f"
    done
  done
done

echo "== tier1: ThreadSanitizer build + parallel/obs/flow tests =="
cmake -B "$repo/build-tsan" -S "$repo" -DSNDR_SANITIZE=thread >/dev/null
cmake --build "$repo/build-tsan" -j "$jobs" --target parallel_test \
  --target obs_test --target manifest_golden_test --target flow_test \
  --target delta_timing_test --target net_batch_test \
  --target scenario_fuzz_test --target serve_test --target dse_test \
  --target batch_kernel_test --target memo_signoff_test --target cts_test
# Many drivers on one pool: concurrent callers, the progress case, the
# busy-driver lane cap and per-caller exceptions/cancels.
"$repo/build-tsan/tests/parallel_test"
"$repo/build-tsan/tests/obs_test"
"$repo/build-tsan/tests/manifest_golden_test"
# Pins scope isolation under real concurrency (two sessions, two threads).
"$repo/build-tsan/tests/flow_test"
# Serve smoke: concurrent submits through the worker pool + shared cache,
# jobs at 1/2/8 workers whose regions all fan out (busy workers counted
# as pool lanes), a job cancelled while another fanned-out job runs, a
# mid-anneal cancel unwinding across threads, and both shutdown modes —
# the whole service locking story under TSan.
"$repo/build-tsan/tests/serve_test"
# DSE sweep: the 8-thread-vs-1-thread frontier identity and the dse job
# type through the server's worker pool — cross-session reuse (shared
# geometry, memo transplant, donated prep) under TSan.
"$repo/build-tsan/tests/dse_test"
# Parallel warm_rows fills disjoint memo rows; churn pins 1-vs-8 threads.
# net_batch_test also fills per-load moment rows on 8 threads.
"$repo/build-tsan/tests/delta_timing_test"
"$repo/build-tsan/tests/net_batch_test"
# Memo-fed signoff: rows prefetched on 8 threads, then read by the
# concurrent power / EM / usage passes; and the lent-state handoff.
"$repo/build-tsan/tests/memo_signoff_test"
# Corner signoff's batched materialize and memo-row fills at 1 vs 8 threads.
"$repo/build-tsan/tests/batch_kernel_test"
# Fork-join clock-tree build: topology subtrees, embedder parts and
# emission subtrees built on 8 lanes into disjoint slices.
"$repo/build-tsan/tests/cts_test"
# Property fuzz at reduced depth: every scenario runs the 1-vs-8-thread
# bitwise contracts, so a handful of scenarios under TSan covers the
# multi-domain evaluate/optimize/anneal paths (SNDR_FUZZ_ITERS dials it;
# a failure prints the scenario seed for SNDR_FUZZ_SEED repro).
SNDR_FUZZ_ITERS="${SNDR_FUZZ_ITERS_TSAN:-4}" \
  "$repo/build-tsan/tests/scenario_fuzz_test"

echo "== tier1: AddressSanitizer build + extraction/obs tests =="
cmake -B "$repo/build-asan" -S "$repo" -DSNDR_SANITIZE=address >/dev/null
cmake --build "$repo/build-asan" -j "$jobs" --target extract_test \
  --target extract_cache_test --target batch_kernel_test --target obs_test \
  --target manifest_golden_test --target net_batch_test \
  --target geometry_budget_test --target scale_smoke_test \
  --target scenario_fuzz_test --target assignment_state_test \
  --target pairwise_sum_test --target refine_test --target checkpoint_test \
  --target dse_test --target netlist_test --target route_test \
  --target delta_timing_test --target memo_signoff_test --target cts_test
"$repo/build-asan/tests/extract_test"
"$repo/build-asan/tests/extract_cache_test"
# Skew refinement: per-net cache refresh and re-materialization into
# reused parasitics buffers, in both cache modes.
"$repo/build-asan/tests/refine_test"
# Scale smoke: a 10k-net generated tree plus budgeted caches under heavy
# LRU eviction — ASan guards the pinned-entry and rebuild-in-place paths.
"$repo/build-asan/tests/geometry_budget_test"
"$repo/build-asan/tests/scale_smoke_test"
# Arena-carved batch planes: ASan guards the node-major × lane-minor bounds.
"$repo/build-asan/tests/batch_kernel_test"
# Cross-net lane planes ([nodes × (nets·rules)]) carve deeper into the arena.
"$repo/build-asan/tests/net_batch_test"
"$repo/build-asan/tests/obs_test"
"$repo/build-asan/tests/manifest_golden_test"
# Search state: sum-tree leaf/padding indexing, the depth-first sink runs
# and the per-net path-prefix arrays, through root and leaf-net moves.
"$repo/build-asan/tests/pairwise_sum_test"
"$repo/build-asan/tests/assignment_state_test"
# Delta timing: the depth-first net slice, the flattened per-load arrays
# and the per-load moment offsets every accepted move reads from the memo.
"$repo/build-asan/tests/delta_timing_test"
# Memo-fed signoff: the per-load term CSR (moments, sigmas, crosstalk per
# (net, rule) block) read by every whole-tree pass, also under a budget.
"$repo/build-asan/tests/memo_signoff_test"
# Fork-join clock-tree build: id blocks from subtree sizes, parts spliced
# by index offset, emission into pre-sized preorder node storage.
"$repo/build-asan/tests/cts_test"
# Routing footprint: raw-offset CSR indexing (net -> wire paths -> steps),
# the per-block walk buffers concatenated at prefix-summed offsets, and
# the allocation-free per-cell demand scan of fits_steps.
"$repo/build-asan/tests/netlist_test"
"$repo/build-asan/tests/route_test"
# Property fuzz at reduced depth: budgeted GeometryCache eviction and the
# domain workload generator allocate hard; ASan guards their reuse paths.
SNDR_FUZZ_ITERS="${SNDR_FUZZ_ITERS_ASAN:-4}" \
  "$repo/build-asan/tests/scenario_fuzz_test"
# External-file parsers: anneal checkpoints, warm-start seeds and the DSE
# sweep log, including truncated and corrupted files.
"$repo/build-asan/tests/checkpoint_test"
"$repo/build-asan/tests/dse_test"

echo "== tier1: UndefinedBehaviorSanitizer build + flow/io tests =="
cmake -B "$repo/build-ubsan" -S "$repo" -DSNDR_SANITIZE=undefined >/dev/null
cmake --build "$repo/build-ubsan" -j "$jobs" --target flow_test \
  --target io_test --target design_io_test --target batch_kernel_test \
  --target delta_timing_test --target checkpoint_test \
  --target scenario_fuzz_test --target assignment_state_test \
  --target pairwise_sum_test --target refine_test
"$repo/build-ubsan/tests/flow_test"
# Refinement's stale-net bookkeeping and per-net cache refresh indexing.
"$repo/build-ubsan/tests/refine_test"
"$repo/build-ubsan/tests/io_test"
"$repo/build-ubsan/tests/design_io_test"
# Checkpoint text parser (hexfloat round-trips, fingerprint mixing).
"$repo/build-ubsan/tests/checkpoint_test"
# Lane-index arithmetic (int64 plane offsets) under UBSan.
"$repo/build-ubsan/tests/batch_kernel_test"
# Subtree replay indexing (flattened load offsets) under UBSan.
"$repo/build-ubsan/tests/delta_timing_test"
# Sum-tree and sink-run index arithmetic (size_t ranges, ~driver markers).
"$repo/build-ubsan/tests/pairwise_sum_test"
"$repo/build-ubsan/tests/assignment_state_test"
# Property fuzz at reduced depth: domain-weighted power/EM arithmetic and
# the checkpoint corruption property (strtod hexfloat paths) under UBSan.
SNDR_FUZZ_ITERS="${SNDR_FUZZ_ITERS_UBSAN:-4}" \
  "$repo/build-ubsan/tests/scenario_fuzz_test"

echo "tier1: OK"
