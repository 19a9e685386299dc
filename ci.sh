#!/bin/sh
# Tier-1 gate as named, individually timed stages:
#
#   build         dune build
#   test          dune runtest (full alcotest/qcheck suite)
#   smoke-attach  real `vmsh attach` with trace+metrics export; every
#                 attach phase must appear in the chrome trace
#   smoke-net     networked attach pushing 1000 echo requests through
#                 the side-loaded NIC
#   fault-matrix  `vmsh fuzz --seeds 25`: 0 hangs, 0 unclean failures,
#                 every fault class exercised — then a double-run
#                 determinism check (same seeds => byte-identical
#                 trace and metrics)
#   fleet         `vmsh fleet --vms 8`: all sessions attach, the shared
#                 symbol cache hits, and two identical runs produce
#                 byte-identical schedules and metrics — then a cold
#                 64-VM fleet, which sparse guest memory keeps under
#                 1 GiB peak RSS
#   fleet-fork    linked clones: bake a baseline image, fork a 64-VM
#                 fleet from it through the CoW overlay, gate fork p99
#                 against the cold attach p50 and shared vs copied
#                 pages, then prove bake and double fork runs
#                 byte-identical
#   crash-matrix  `vmsh sweep`: abort-at-yield(k) for every k on every
#                 fault class; each point must restore the guest
#                 byte-for-byte, leak no descriptors, and fail with a
#                 clean round-trippable error — then a concurrent
#                 subset on the virtual-time scheduler
#   hostile-matrix
#                 `vmsh sweep --hostile`: the adversarial-guest chaos
#                 matrix — every hostile class (TOCTOU scanner races,
#                 balloon unmaps, descriptor chaos, memory churn)
#                 crossed with every crash point; each cell must end in
#                 a completed attach or a clean round-trippable abort,
#                 with the guest restored and nothing leaked — then a
#                 hostile cell recorded and replayed through the
#                 replay-diff oracle, and a double-run determinism
#                 check on the matrix metrics
#   trace         flight recorder: record -> replay -> diff on a smoke
#                 attach, a fleet run (cold and forked), and one
#                 crash-point sweep cell;
#                 two identically-seeded recordings must be
#                 byte-identical
#   fuzz-trace    trace-mutation fuzzing: record seed attach and
#                 fleet-8 traces, run `vmsh fuzz --from-trace` at a
#                 pinned seed with the minimizing corpus on — 0 hangs,
#                 0 unclean, 0 oracle divergences, every mutator class
#                 fired — replay a corpus mutant from its file alone,
#                 then double-run `cmp`/`diff -r` proving the whole
#                 campaign (metrics, ledger, corpus) byte-identical
#   serve         `vmsh serve`: a short sustained-load run at a fixed
#                 seed — per-tenant admission enforced, zero failures,
#                 zero leaked workers — then a double-run `cmp` on the
#                 metrics and per-job results files
#   bench         latency experiment regenerating BENCH_results.json,
#                 including the vmsh-faults recovery, vmsh-fleet
#                 scaling, vmsh-fork cold-vs-fork, vmsh-trace
#                 recording-overhead, and vmsh-serve saturation-knee
#                 scenarios
#
# Every sweep/fuzz/fleet failure drops a replayable .vmshtrace artifact
# into $CI_ARTIFACTS (VMSH_TRACE_DIR), uploaded by the workflow.
#
# All JSON assertions go through the dune-built bin/ci_check.exe (no
# python needed). Run one stage with `./ci.sh --stage NAME`; artifacts
# land in $CI_ARTIFACTS (default /tmp/vmsh-ci).

set -u
cd "$(dirname "$0")"

ARTIFACTS=${CI_ARTIFACTS:-/tmp/vmsh-ci}
STAGES="build test smoke-attach smoke-net fault-matrix fleet fleet-fork crash-matrix hostile-matrix trace fuzz-trace serve bench"

# dump-on-failure: any failing sweep/fuzz/fleet run leaves a replayable
# .vmshtrace recording next to the other artifacts
VMSH_TRACE_DIR=$ARTIFACTS
export VMSH_TRACE_DIR

usage() {
  echo "usage: ./ci.sh [--stage NAME]"
  echo "stages: $STAGES"
}

only_stage=""
while [ $# -gt 0 ]; do
  case "$1" in
    --stage) only_stage="$2"; shift 2 ;;
    --stage=*) only_stage="${1#--stage=}"; shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "ci: unknown argument: $1" >&2; usage >&2; exit 2 ;;
  esac
done

# Exact-match the stage name. (A substring `case` pattern here let
# values like "build test" slip through validation, match nothing in
# the run loop below, and exit 0 having run no stage at all.)
if [ -n "$only_stage" ]; then
  found=0
  for s in $STAGES; do
    if [ "$s" = "$only_stage" ]; then found=1; fi
  done
  if [ "$found" -ne 1 ]; then
    echo "ci: no such stage: $only_stage" >&2
    usage >&2
    exit 2
  fi
fi

mkdir -p "$ARTIFACTS"

vmsh() { dune exec --no-print-directory bin/vmsh_cli.exe -- "$@"; }
ci_check() { dune exec --no-print-directory bin/ci_check.exe -- "$@"; }

stage_build() {
  dune build
}

stage_test() {
  dune runtest
}

stage_smoke_attach() {
  trace=$ARTIFACTS/trace.json
  metrics=$ARTIFACTS/metrics.json
  vmsh attach --trace-out "$trace" --metrics-out "$metrics" -e hostname \
    > /dev/null
  ci_check json "$trace" "$metrics"
  ci_check trace "$trace"
}

stage_smoke_net() {
  net_metrics=$ARTIFACTS/net-metrics.json
  vmsh attach --net-echo 1000 --metrics-out "$net_metrics" -e hostname \
    > /dev/null
  ci_check net-metrics "$net_metrics"
}

stage_fault_matrix() {
  fuzz_metrics=$ARTIFACTS/fuzz-metrics.json
  vmsh fuzz --seeds 25 --metrics-out "$fuzz_metrics"
  ci_check fuzz "$fuzz_metrics"
  # Determinism: the same seeds must replay byte-identically.
  vmsh fuzz --seeds 3 --trace-seed 1 \
    --trace-out "$ARTIFACTS/fuzz-trace-a.json" \
    --metrics-out "$ARTIFACTS/fuzz-metrics-a.json" > /dev/null
  vmsh fuzz --seeds 3 --trace-seed 1 \
    --trace-out "$ARTIFACTS/fuzz-trace-b.json" \
    --metrics-out "$ARTIFACTS/fuzz-metrics-b.json" > /dev/null
  cmp "$ARTIFACTS/fuzz-trace-a.json" "$ARTIFACTS/fuzz-trace-b.json" || {
    echo "ci: fault traces diverged across identical seeds" >&2
    return 1
  }
  cmp "$ARTIFACTS/fuzz-metrics-a.json" "$ARTIFACTS/fuzz-metrics-b.json" || {
    echo "ci: fault metrics diverged across identical seeds" >&2
    return 1
  }
}

stage_fleet() {
  fleet_metrics=$ARTIFACTS/fleet-metrics.json
  vmsh fleet --vms 8 \
    --trace-out "$ARTIFACTS/fleet-sched-a.txt" \
    --metrics-out "$fleet_metrics"
  ci_check fleet "$fleet_metrics"
  # Determinism: same seed, byte-identical schedule and metrics.
  vmsh fleet --vms 8 \
    --trace-out "$ARTIFACTS/fleet-sched-b.txt" \
    --metrics-out "$ARTIFACTS/fleet-metrics-b.json" > /dev/null
  cmp "$ARTIFACTS/fleet-sched-a.txt" "$ARTIFACTS/fleet-sched-b.txt" || {
    echo "ci: fleet schedules diverged across identical seeds" >&2
    return 1
  }
  cmp "$fleet_metrics" "$ARTIFACTS/fleet-metrics-b.json" || {
    echo "ci: fleet metrics diverged across identical seeds" >&2
    return 1
  }
  # Scale: 64 cold-booted sessions at once. Each guest's RAM, boot disk
  # and mmaps hold only the pages it wrote, so this fits a small box.
  vmsh fleet --vms 64 --metrics-out "$ARTIFACTS/fleet-64-metrics.json" \
    > /dev/null
  ci_check fleet "$ARTIFACTS/fleet-64-metrics.json"
}

stage_fleet_fork() {
  base=$ARTIFACTS/baseline.vmshbase
  # bake the boot-once baseline; baking is deterministic, so a second
  # bake must produce a byte-identical image file
  vmsh bake-baseline -o "$base"
  vmsh bake-baseline -o "$ARTIFACTS/baseline-b.vmshbase" > /dev/null
  cmp "$base" "$ARTIFACTS/baseline-b.vmshbase" || {
    echo "ci: baked baseline images diverged across identical seeds" >&2
    return 1
  }
  # cold-boot reference fleet: the attach p50 the fork gate compares
  # against
  vmsh fleet --vms 8 \
    --metrics-out "$ARTIFACTS/fork-cold-metrics.json" > /dev/null
  # 64 linked clones of the baked image; the standard fleet gates must
  # hold for forked sessions too, then the fork-specific gates: fork
  # p99 <= 10% of cold attach p50, pages_copied < pages_shared, zero
  # failures
  vmsh fleet --vms 64 --from-baseline "$base" \
    --trace-out "$ARTIFACTS/fork-sched-a.txt" \
    --metrics-out "$ARTIFACTS/fork-metrics-a.json"
  ci_check fleet "$ARTIFACTS/fork-metrics-a.json"
  ci_check fleet-fork "$ARTIFACTS/fork-cold-metrics.json" \
    "$ARTIFACTS/fork-metrics-a.json"
  # Determinism: forking through the overlay must not perturb the
  # schedule — same seed, byte-identical schedule and metrics.
  vmsh fleet --vms 64 --from-baseline "$base" \
    --trace-out "$ARTIFACTS/fork-sched-b.txt" \
    --metrics-out "$ARTIFACTS/fork-metrics-b.json" > /dev/null
  cmp "$ARTIFACTS/fork-sched-a.txt" "$ARTIFACTS/fork-sched-b.txt" || {
    echo "ci: forked-fleet schedules diverged across identical seeds" >&2
    return 1
  }
  cmp "$ARTIFACTS/fork-metrics-a.json" "$ARTIFACTS/fork-metrics-b.json" || {
    echo "ci: forked-fleet metrics diverged across identical seeds" >&2
    return 1
  }
}

stage_crash_matrix() {
  sweep_metrics=$ARTIFACTS/sweep-metrics.json
  # the full matrix: every fault class (plus fault-free), every yield
  vmsh sweep --metrics-out "$sweep_metrics"
  ci_check sweep "$sweep_metrics"
  # a subset interleaved on the virtual-time scheduler: the
  # post-conditions must hold under concurrency too
  vmsh sweep --vms 4 --class fault-free --class inject-eintr \
    --metrics-out "$ARTIFACTS/sweep-metrics-vms4.json"
  ci_check sweep "$ARTIFACTS/sweep-metrics-vms4.json"
}

stage_hostile_matrix() {
  hostile_metrics=$ARTIFACTS/hostile-metrics.json
  # the full chaos matrix: every hostile class x every crash point;
  # any failing cell drops a replayable .vmshtrace into $ARTIFACTS
  vmsh sweep --hostile --metrics-out "$hostile_metrics"
  ci_check hostile "$hostile_metrics"
  # a hostile cell's recipe must round-trip: record one chaos-matrix
  # cell, then re-run it from the .vmshtrace file alone and diff
  vmsh trace record --scenario sweep --hostile toctou-scan --seed 11 \
    -o "$ARTIFACTS/hostile-cell.vmshtrace"
  vmsh trace replay "$ARTIFACTS/hostile-cell.vmshtrace"
  # Determinism: the adversary is seeded like everything else, so the
  # same matrix twice is byte-identical.
  vmsh sweep --hostile --class toctou-scan --class desc-chaos \
    --metrics-out "$ARTIFACTS/hostile-metrics-a.json" > /dev/null
  vmsh sweep --hostile --class toctou-scan --class desc-chaos \
    --metrics-out "$ARTIFACTS/hostile-metrics-b.json" > /dev/null
  cmp "$ARTIFACTS/hostile-metrics-a.json" "$ARTIFACTS/hostile-metrics-b.json" || {
    echo "ci: hostile-matrix metrics diverged across identical seeds" >&2
    return 1
  }
}

stage_trace() {
  # record -> replay -> diff: the replay-diff oracle must come back
  # clean for a smoke attach, a fleet run (cold and forked), and one
  # sweep crash cell
  vmsh trace record --scenario attach --seed 5 \
    -o "$ARTIFACTS/attach-a.vmshtrace"
  vmsh trace replay "$ARTIFACTS/attach-a.vmshtrace"
  vmsh trace record --scenario fleet --seed 7 --vms 8 \
    -o "$ARTIFACTS/fleet.vmshtrace"
  vmsh trace replay "$ARTIFACTS/fleet.vmshtrace"
  # the same fleet forked from a re-baked baseline replays forked
  vmsh trace record --scenario fleet --seed 7 --vms 8 --from-baseline \
    -o "$ARTIFACTS/fleet-fork.vmshtrace"
  vmsh trace replay "$ARTIFACTS/fleet-fork.vmshtrace"
  vmsh trace record --scenario sweep --class inject-eintr -k 3 --seed 5 \
    -o "$ARTIFACTS/sweep-cell.vmshtrace"
  vmsh trace replay "$ARTIFACTS/sweep-cell.vmshtrace"
  # Determinism: the binary recording itself must be byte-stable.
  vmsh trace record --scenario attach --seed 5 \
    -o "$ARTIFACTS/attach-b.vmshtrace" > /dev/null
  cmp "$ARTIFACTS/attach-a.vmshtrace" "$ARTIFACTS/attach-b.vmshtrace" || {
    echo "ci: .vmshtrace recordings diverged across identical seeds" >&2
    return 1
  }
  vmsh trace stat "$ARTIFACTS/attach-a.vmshtrace"
}

stage_fuzz_trace() {
  # the nightly workflow raises these for an extended campaign; PR CI
  # runs the pinned short ones
  rounds=${VMSH_FUZZ_ROUNDS:-24}
  fleet_rounds=${VMSH_FUZZ_FLEET_ROUNDS:-10}
  # seed recordings the campaigns mutate
  vmsh trace record --scenario attach --seed 5 \
    -o "$ARTIFACTS/fuzz-base-attach.vmshtrace" > /dev/null
  vmsh trace record --scenario fleet --seed 7 --vms 8 \
    -o "$ARTIFACTS/fuzz-base-fleet.vmshtrace" > /dev/null
  # the determinism pair below must start from identical (empty)
  # corpora; the nightly job accumulates in its own cached directory
  rm -rf "$ARTIFACTS/fuzz-corpus-a" "$ARTIFACTS/fuzz-corpus-b" \
    "$ARTIFACTS/fuzz-corpus-fleet"
  # pinned-seed campaign over the attach recording, minimizer on:
  # 0 hangs, 0 unclean, 0 oracle divergences (any of those is a BUG
  # verdict, which both the CLI exit code and the gate reject)
  vmsh fuzz --from-trace "$ARTIFACTS/fuzz-base-attach.vmshtrace" \
    --rounds "$rounds" --seed 9 --minimize \
    --corpus "$ARTIFACTS/fuzz-corpus-a" \
    --metrics-out "$ARTIFACTS/fuzz-trace-metrics-a.json"
  ci_check fuzz-trace "$ARTIFACTS/fuzz-trace-metrics-a.json"
  # the same engine over the interleaved fleet-8 recording
  vmsh fuzz --from-trace "$ARTIFACTS/fuzz-base-fleet.vmshtrace" \
    --rounds "$fleet_rounds" --seed 11 --minimize \
    --corpus "$ARTIFACTS/fuzz-corpus-fleet" \
    --metrics-out "$ARTIFACTS/fuzz-fleet-metrics.json"
  ci_check fuzz-trace "$ARTIFACTS/fuzz-fleet-metrics.json"
  # a kept corpus mutant must re-execute to its recorded verdict from
  # the .vmshtrace file alone
  set -- "$ARTIFACTS"/fuzz-corpus-a/mutant-*.vmshtrace
  vmsh trace replay "$1"
  # Determinism: the whole campaign — metrics, verdict ledger,
  # coverage, every corpus/reproducer file — is a function of
  # (trace bytes, seed), so a double run is byte-identical.
  vmsh fuzz --from-trace "$ARTIFACTS/fuzz-base-attach.vmshtrace" \
    --rounds "$rounds" --seed 9 --minimize \
    --corpus "$ARTIFACTS/fuzz-corpus-b" \
    --metrics-out "$ARTIFACTS/fuzz-trace-metrics-b.json" > /dev/null
  cmp "$ARTIFACTS/fuzz-trace-metrics-a.json" \
    "$ARTIFACTS/fuzz-trace-metrics-b.json" || {
    echo "ci: fuzz campaign metrics diverged across identical seeds" >&2
    return 1
  }
  diff -r "$ARTIFACTS/fuzz-corpus-a" "$ARTIFACTS/fuzz-corpus-b" || {
    echo "ci: fuzz corpus diverged across identical seeds" >&2
    return 1
  }
}

stage_serve() {
  serve_metrics=$ARTIFACTS/serve-metrics.json
  # a 1000-job sustained stream through the bounded pool; the gate
  # checks admission (hot tenant shed, light tenants clean), the wire
  # accounting, the latency histograms, and zero failures/leaks
  vmsh serve --workers 8 --jobs 1000 --seed 17 \
    --metrics-out "$serve_metrics" \
    --results-out "$ARTIFACTS/serve-results-a.jsonl" || return 1
  ci_check json "$serve_metrics" || return 1
  ci_check serve "$serve_metrics" || return 1
  # Determinism: same config and seed, byte-identical metrics and
  # per-job results.
  vmsh serve --workers 8 --jobs 1000 --seed 17 \
    --metrics-out "$ARTIFACTS/serve-metrics-b.json" \
    --results-out "$ARTIFACTS/serve-results-b.jsonl" > /dev/null || return 1
  cmp "$serve_metrics" "$ARTIFACTS/serve-metrics-b.json" || {
    echo "ci: serve metrics diverged across identical seeds" >&2
    return 1
  }
  cmp "$ARTIFACTS/serve-results-a.jsonl" "$ARTIFACTS/serve-results-b.jsonl" || {
    echo "ci: serve per-job results diverged across identical seeds" >&2
    return 1
  }
}

stage_bench() {
  dune exec --no-print-directory bench/main.exe -- --only latency > /dev/null
  ci_check bench BENCH_results.json
  cp BENCH_results.json "$ARTIFACTS/BENCH_results.json"
}

summary=""
failures=0
for stage in $STAGES; do
  if [ -n "$only_stage" ] && [ "$stage" != "$only_stage" ]; then
    continue
  fi
  printf '=== ci stage: %s ===\n' "$stage"
  start=$(date +%s)
  if ( set -e; "stage_$(echo "$stage" | tr - _)" ); then
    status=ok
  else
    status=FAIL
    failures=$((failures + 1))
  fi
  elapsed=$(( $(date +%s) - start ))
  summary="$summary$(printf '%-14s %-4s %4ds' "$stage" "$status" "$elapsed")
"
done

printf '\n=== ci summary ===\n%s' "$summary"
if [ "$failures" -gt 0 ]; then
  echo "ci: $failures stage(s) FAILED"
  exit 1
fi
echo "ci: OK"
