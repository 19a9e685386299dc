#!/bin/sh
# Tier-1 gate as named, individually timed stages:
#
#   build         dune build
#   test          dune runtest (full alcotest/qcheck suite)
#   smoke-attach  real `vmsh attach` with trace+metrics export; every
#                 attach phase must appear in the chrome trace and the
#                 metrics must carry its stage profile (exit classes,
#                 blk pump, every stage.attach.*_ns histogram) — then
#                 one attach per LTS kernel (4.4 … 5.10), each of which
#                 must report its ksymtab layout: absolute (value
#                 first) for 4.4/4.9, absolute (name first) for 4.14,
#                 prel32 for 4.19/5.4/5.10, and detach with a clean
#                 rollback oracle — then the CLI's own
#                 rollback oracle: `attach --detach-after` plain and
#                 under the mem-churn and balloon hostile classes must
#                 each exit 0 and report the guest restored — then one
#                 `attach --detach-after` per hypervisor (qemu, kvmtool,
#                 firecracker, crosvm, cloud-hypervisor over PCI), each
#                 with the same clean oracle line — then `vmsh matrix`,
#                 whose 5 hypervisor and 6 kernel rows must all read
#                 supported — then the use cases: `vmsh monitor`, `vmsh
#                 rescue` (which must report the password reset on the
#                 running VM) and the four examples must exit 0. No
#                 `vmsh attach` transcript may glue a prompt to the
#                 previous reply's (`vmsh> vmsh> `)
#   smoke-net     networked attach pushing 1000 echo requests through
#                 the side-loaded NIC; the console, net and both blk
#                 driver meters (vmsh-console.tx_ns, vmsh-net.tx_ns,
#                 vmsh-blk.read_ns, guest-blk.read_ns) and the vmsh-blk
#                 device's backend meter (vmsh-blk.backend.read_ns) must
#                 each have recorded at least once
#   fault-matrix  `vmsh fuzz --seeds 25`: 0 hangs, 0 unclean failures,
#                 every fault class exercised — then a double-run
#                 determinism check (same seeds => byte-identical
#                 trace and metrics)
#   fleet         `vmsh fleet --vms 8`: all sessions attach, the shared
#                 symbol cache hits, and two identical runs produce
#                 byte-identical schedules and metrics — then a cold
#                 64-VM fleet, which sparse guest memory, generated
#                 kernel-image pages, the shared tools image and
#                 flight-recorder rings that grow on demand keep
#                 under 171 MiB peak RSS (see peak_rss)
#   fleet-fork    linked clones: bake a baseline image, fork a 64-VM
#                 fleet from it through the CoW overlay under the cold
#                 fleet's 171 MiB peak-RSS gate (a loaded baseline
#                 holds only its non-zero pages), gate fork p99
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
#                 zero leaked workers, end-to-end p99 within 110 ms —
#                 then a double-run `cmp` on the metrics and per-job
#                 results files
#   bench         the paper's experiments other than E1 (Table 1, E4–E10
#                 and the ablations) plus the Bechamel microbenches: each
#                 must run to completion (the microbenches' ns/op are
#                 printed, not gated), and the run must stay under 1 GiB
#                 peak RSS (see peak_rss)
#   bench-e1      E1 (xfstests over native, qemu-blk and vmsh-blk): its
#                 verdict line must read true, and the run must stay
#                 under 256 MiB peak RSS (see peak_rss) — guest writes
#                 live in the memory write log's per-page state, so a
#                 long run's memory does not grow with them
#   golden        every deterministic output, regenerated and digested
#                 against the committed golden/MANIFEST (see
#                 golden_manifest): attach, fleet, bake-baseline, sweep,
#                 serve, trace, fuzz, matrix and the bench's stdout. A
#                 change that means to move an output updates its
#                 manifest line, so the diff names what moved
#
# peak_rss runs a command while polling its VmHWM from /proc, and fails
# the stage above a bound; the fleet, bench and bench-e1 stages share
# it.
# Every sweep/fuzz/fleet failure drops a replayable .vmshtrace artifact
# into $CI_ARTIFACTS (VMSH_TRACE_DIR), uploaded by the workflow.
#
# All JSON assertions go through the dune-built bin/ci_check.exe (no
# python needed). Run one stage with `./ci.sh --stage NAME`; artifacts
# land in $CI_ARTIFACTS (default /tmp/vmsh-ci).

set -u

ARTIFACTS=${CI_ARTIFACTS:-/tmp/vmsh-ci}
STAGES="build test smoke-attach smoke-net fault-matrix fleet fleet-fork crash-matrix hostile-matrix trace fuzz-trace serve bench bench-e1 golden"

usage() {
  echo "usage: ./ci.sh [--stage NAME]"
  echo "stages: $STAGES"
}

# Stages run the executables one `dune build` made (main runs it
# before a single --stage; a full run's first stage is the build), so
# no stage takes dune's build lock.
build=_build/default
vmsh() { "$build/bin/vmsh_cli.exe" "$@"; }
ci_check() { "$build/bin/ci_check.exe" "$@"; }

# peak_rss LIMIT_MIB LABEL CMD...: run CMD and fail unless it exits 0
# with a peak RSS at or under LIMIT_MIB. There is no /usr/bin/time, so
# CMD runs in the background while the loop polls /proc/PID/status for
# VmHWM (a high-water mark, so the last reading is the peak) until it
# exits. CMD must be the program itself, not a shell function or a
# wrapper that forks it. The gate is a sample: growth in the last 50 ms
# before exit goes unseen, which each caller's margin absorbs. CMD's
# own output goes wherever the caller sends the function's stdout; the
# verdict goes to stderr.
peak_rss() {
  limit_mib=$1 label=$2
  shift 2
  "$@" &
  pid=$!
  hwm_kib=0
  while kill -0 "$pid" 2> /dev/null; do
    kib=$(awk '/^VmHWM:/ { print $2 }' "/proc/$pid/status" 2> /dev/null) ||
      kib=
    if [ -n "$kib" ]; then hwm_kib=$kib; fi
    sleep 0.05
  done
  status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "ci: $label exited $status" >&2
    return 1
  fi
  echo "ci: $label peak RSS $((hwm_kib / 1024)) MiB" >&2
  [ "$hwm_kib" -gt 0 ] && [ "$hwm_kib" -le $((limit_mib * 1024)) ] || {
    echo "ci: $label peak RSS not read or above $limit_mib MiB" >&2
    return 1
  }
}

stage_build() {
  dune build
}

stage_test() {
  dune runtest
}

# glued OUT LABEL: true (and a message) when a console transcript shows
# a prompt glued to the previous reply's prompt
glued() {
  case $1 in
    *"vmsh> vmsh> "*)
      echo "ci: $2: prompt glued to the previous one" >&2
      return 0
      ;;
  esac
  return 1
}

stage_smoke_attach() {
  trace=$ARTIFACTS/trace.json
  metrics=$ARTIFACTS/metrics.json
  out=$(vmsh attach --trace-out "$trace" --metrics-out "$metrics" \
    -e hostname -e ps) || return 1
  glued "$out" "attach" && return 1
  ci_check json "$trace" "$metrics" || return 1
  ci_check trace "$trace" "$metrics" || return 1
  # every ksymtab layout through the symbol-analysis scans, and every
  # kernel's library rolled back under the oracle
  for kv in 4.4 4.9 4.14 4.19 5.4 5.10; do
    case $kv in
      4.4|4.9) want="absolute (value first)" ;;
      4.14) want="absolute (name first)" ;;
      *) want="prel32" ;;
    esac
    out=$(vmsh attach --kernel "$kv" --detach-after -e hostname) || {
      echo "ci: attach to a v$kv guest failed" >&2
      return 1
    }
    glued "$out" "v$kv guest" && return 1
    case $out in
      *"ksymtab layout $want"*) ;;
      *)
        echo "ci: v$kv guest: expected ksymtab layout $want" >&2
        return 1
        ;;
    esac
    case $out in
      *"rollback oracle: guest restored byte-for-byte"*) ;;
      *)
        echo "ci: v$kv guest: no clean rollback oracle after detach" >&2
        return 1
        ;;
    esac
  done
  # the rollback oracle after a detach, also while a hostile guest
  # rewrites and unmaps pages under the walker
  for hostile in "" mem-churn balloon; do
    out=$(vmsh attach --detach-after ${hostile:+--hostile "$hostile"} \
      -e hostname) || {
      echo "ci: attach --detach-after ${hostile:-plain} failed" >&2
      return 1
    }
    glued "$out" "attach ${hostile:-plain}" && return 1
    case $out in
      *"rollback oracle: guest restored byte-for-byte"*) ;;
      *)
        echo "ci: attach --detach-after ${hostile:-plain}: no clean oracle" >&2
        return 1
        ;;
    esac
  done
  # every hypervisor, cloud-hypervisor over its VirtIO-over-PCI
  # transport, attaches and rolls back cleanly
  for hyp in qemu kvmtool firecracker crosvm cloud-hypervisor; do
    case $hyp in
      cloud-hypervisor) want="attached (ioregionfd over pci)" ;;
      *) want="attached (ioregionfd)" ;;
    esac
    out=$(vmsh attach --hypervisor "$hyp" --detach-after -e hostname) || {
      echo "ci: attach to $hyp failed" >&2
      return 1
    }
    glued "$out" "$hyp" && return 1
    case $out in
      *"$want"*) ;;
      *)
        echo "ci: $hyp: expected \"$want\"" >&2
        return 1
        ;;
    esac
    case $out in
      *"rollback oracle: guest restored byte-for-byte"*) ;;
      *)
        echo "ci: $hyp: no clean rollback oracle after detach" >&2
        return 1
        ;;
    esac
  done
  # Table 1 from the CLI: all five hypervisors (cloud-hypervisor over
  # PCI) and all six LTS kernels attach as full sessions
  out=$(vmsh matrix) || {
    echo "ci: vmsh matrix failed" >&2
    return 1
  }
  rows=$(printf '%s\n' "$out" | grep -v -e 'vmsh attach$' -e '^$')
  if [ "$(printf '%s\n' "$rows" | grep -c ' supported$')" -ne 11 ]; then
    echo "ci: vmsh matrix: want 11 rows reading supported, got:" >&2
    printf '%s\n' "$rows" >&2
    return 1
  fi
  # the use cases, each one session on a VM that keeps running
  vmsh monitor > /dev/null || {
    echo "ci: vmsh monitor failed" >&2
    return 1
  }
  out=$(vmsh rescue) || {
    echo "ci: vmsh rescue failed" >&2
    return 1
  }
  case $out in
    *"reset on the running VM: true"*) ;;
    *)
      echo "ci: vmsh rescue: password not reset on the running VM" >&2
      return 1
      ;;
  esac
  for example in quickstart rescue_system security_scanner serverless_debug
  do
    "$build/examples/$example.exe" > /dev/null || {
      echo "ci: example $example failed" >&2
      return 1
    }
  done
  # an unwritable output path is one error line and exit 1, not an
  # uncaught exception (exit 125)
  rc=0
  err=$(vmsh fleet --vms 1 --metrics-out /nonexistent/x.json 2>&1 \
    >/dev/null) || rc=$?
  case $rc:$err in
    1:*"vmsh: cannot write output: "*) ;;
    *)
      echo "ci: unwritable --metrics-out: exit $rc, $err" >&2
      return 1
      ;;
  esac
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
  # and mmaps hold only the pages it wrote, its kernel image only the
  # pages something read (3 of 4 sessions hit the symbol cache, which
  # reads a handful), every session serves one shared tools image, and
  # each host's flight-recorder ring holds only the events recorded, so
  # this fits a small box: peak RSS must stay under 171 MiB (137 MiB
  # measured, plus 25%; 188 MiB when every host allocated the whole
  # 65,536-slot ring, 373 MiB when boots wrote every image page).
  # The CLI is called directly: the vmsh function would put a shell
  # between peak_rss and the CLI.
  peak_rss 171 "cold 64-VM fleet" "$build/bin/vmsh_cli.exe" fleet --vms 64 \
    --metrics-out "$ARTIFACTS/fleet-64-metrics.json" > /dev/null || return 1
  ci_check fleet "$ARTIFACTS/fleet-64-metrics.json" || return 1
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
  # 64 linked clones of the baked image, under the cold 64-VM fleet's
  # peak-RSS gate: the loaded baseline holds only the pages the boot
  # wrote and every clone only the pages it diverged, so the forked
  # fleet peaks at or below the cold one (129 MiB measured; 272 MiB
  # while a loaded baseline was rebuilt as flat 64 MiB RAM and disk
  # bytes). The standard fleet gates must hold for forked sessions too,
  # then the fork-specific gates: fork p99 <= 10% of cold attach p50,
  # pages_copied < pages_shared, zero failures
  peak_rss 171 "forked 64-VM fleet" "$build/bin/vmsh_cli.exe" fleet --vms 64 \
    --from-baseline "$base" \
    --trace-out "$ARTIFACTS/fork-sched-a.txt" \
    --metrics-out "$ARTIFACTS/fork-metrics-a.json" > /dev/null || return 1
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
  # E1 runs on its own in bench-e1; about 500 MiB measured
  peak_rss 1024 "bench experiments" "$build/bench/main.exe" \
    --only table1,e4,e5,e6,e7,e8,e9,e10,ablation,bechamel \
    > "$ARTIFACTS/bench.txt" || return 1
}

stage_bench_e1() {
  e1_out=$ARTIFACTS/bench-e1.txt
  # about 64 MiB measured; the kept interval lists this replaced cost
  # about 3.6 GiB here
  peak_rss 256 "E1 (xfstests)" "$build/bench/main.exe" --only e1 \
    > "$e1_out" || return 1
  grep -q '^=> vmsh-blk fails exactly the tests qemu-blk fails .*: true$' \
    "$e1_out" || {
    echo "ci: E1 verdict is not true (see $e1_out)" >&2
    return 1
  }
}

# golden_filter FILE: FILE without its wall-clock lines, the one rule
# every golden stdout passes through (the bench prints
# `[NAME finished in 1.2s wall]`); output files are digested whole.
golden_filter() {
  case $1 in
    */stdout) grep -a -v 'wall' "$1" || true ;;
    *) cat "$1" ;;
  esac
}

# golden_manifest DIR: run every golden command with the tree's built
# CLI and bench, each in its own directory under DIR and with its
# output paths relative to it, and print the manifest: per command one
# `LABEL $ ARGS` line, then one `LABEL/FILE DIGEST` line per output
# file (stdout included), the digest taken after golden_filter. Output
# files from one command feed the next by relative path, so the
# manifest names no directory of the machine it ran on.
golden_manifest() {
  dir=$1
  root=$PWD
  rm -rf "$dir"
  mkdir -p "$dir"
  golden() {
    label=$1
    shift
    mkdir -p "$dir/$label"
    echo "$label \$ $*"
    (cd "$dir/$label" && "$root/_build/default/bin/vmsh_cli.exe" "$@" > stdout)
  }
  {
    golden attach attach --trace-out trace.json --metrics-out metrics.json \
      -e hostname
    for k in 4.4 4.9 4.14 4.19 5.4 5.10; do
      golden "attach-kernel-$k" attach --kernel "$k" --detach-after -e hostname
    done
    for h in qemu kvmtool firecracker crosvm cloud-hypervisor; do
      golden "attach-$h" attach --hypervisor "$h" --detach-after -e hostname
    done
    golden bake bake-baseline -o baseline.vmshbase
    for n in 8 64; do
      golden "fleet-$n" fleet --vms "$n" --trace-out sched.txt \
        --metrics-out metrics.json
      golden "fleet-$n-fork" fleet --vms "$n" \
        --from-baseline ../bake/baseline.vmshbase --trace-out sched.txt \
        --metrics-out metrics.json
    done
    golden sweep sweep --metrics-out metrics.json
    golden sweep-hostile sweep --hostile --metrics-out metrics.json
    golden serve serve --workers 8 --jobs 1000 --seed 17 \
      --metrics-out metrics.json --results-out results.jsonl
    golden trace-record trace record --scenario attach --seed 5 \
      -o attach.vmshtrace
    golden trace-replay trace replay ../trace-record/attach.vmshtrace
    golden fuzz-seeds fuzz --seeds 25 --metrics-out metrics.json
    golden fuzz-trace fuzz --from-trace ../trace-record/attach.vmshtrace \
      --rounds 12 --seed 9 --minimize --corpus corpus \
      --metrics-out metrics.json
    golden matrix matrix
    echo "bench \$ --only table1,e4,e5,e6,e7,e8,e9,e10,ablation"
    mkdir -p "$dir/bench"
    "$root/_build/default/bench/main.exe" \
      --only table1,e4,e5,e6,e7,e8,e9,e10,ablation > "$dir/bench/stdout"
  } > "$dir/commands"
  (cd "$dir" && find . -type f ! -name commands | sed 's|^\./||' | LC_ALL=C sort) |
    while read -r f; do
      printf '%s %s\n' "$f" "$(golden_filter "$dir/$f" | md5sum | cut -d' ' -f1)"
    done > "$dir/digests"
  cat "$dir/commands"
  cat "$dir/digests"
}

stage_golden() {
  dune build
  golden_manifest "$ARTIFACTS/golden" > "$ARTIFACTS/golden-manifest"
  diff -u golden/MANIFEST "$ARTIFACTS/golden-manifest" || {
    echo "ci: outputs differ from golden/MANIFEST (lines above)" >&2
    return 1
  }
}

# Run one stage in a subshell under `set -e` and return its status.
# Callers must not test the call itself (`if run_stage`, `run_stage ||`,
# `! run_stage`): POSIX shells ignore `set -e` anywhere inside a tested
# command, so a stage would then pass on the status of its last command
# alone.
run_stage() {
  ( set -e; "stage_$(echo "$1" | tr - _)" )
}

main() {
  cd "$(dirname "$0")"

  # dump-on-failure: any failing sweep/fuzz/fleet run leaves a replayable
  # .vmshtrace recording next to the other artifacts
  VMSH_TRACE_DIR=$ARTIFACTS
  export VMSH_TRACE_DIR

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

  # one stage alone runs on a fresh build; a full run builds in its
  # first stage
  if [ -n "$only_stage" ] && [ "$only_stage" != build ]; then
    dune build || {
      echo "ci: dune build failed" >&2
      exit 1
    }
  fi

  summary=""
  failures=0
  for stage in $STAGES; do
    if [ -n "$only_stage" ] && [ "$stage" != "$only_stage" ]; then
      continue
    fi
    printf '=== ci stage: %s ===\n' "$stage"
    start=$(date +%s)
    run_stage "$stage"
    if [ $? -eq 0 ]; then
      status=ok
    else
      status=FAIL
      failures=$((failures + 1))
    fi
    elapsed=$(( $(date +%s) - start ))
    summary="$summary$(printf '%-14s %-4s %4ds' "$stage" "$status" "$elapsed")
"
    # the later stages would run stale executables
    if [ "$stage" = build ] && [ "$status" = FAIL ]; then break; fi
  done

  printf '\n=== ci summary ===\n%s' "$summary"
  if [ "$failures" -gt 0 ]; then
    echo "ci: $failures stage(s) FAILED"
    exit 1
  fi
  echo "ci: OK"
}

# Sourcing the file (`. ./ci.sh`) defines the stages and `run_stage`
# without running anything.
case $(basename -- "$0") in
  ci.sh) main "$@" ;;
esac
