(* The benchmark's contract in one place: its workloads, every metric it
   reports (name, unit, direction, bound, clock, layer, and the metric it
   should move), the run length, and the pinned digest of the modelled
   cost table. BENCHMARK.json at the repository root is generated from
   this module ([main.exe benchmark-json]); the perf tests check that the
   two agree. *)

type clock =
  | V  (** the virtual clock: what the modelled VMSH system would take *)
  | W  (** the host: what the simulator takes to run *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
  clock : clock;
  layer : string;
  moves : string;  (** which end-to-end metric, on which workload *)
}

let run_seconds = 12

(* Setups per run; [setup_s] is their median. *)
let setup_repeats = 3

type workload = { wname : string; why : string }

let workloads =
  [
    {
      wname = "interactive";
      why =
        "closed loop, 1 client: cold shell sessions over 6 LTS kernels x 5 \
         hypervisors with no symbol cache, so symbol analysis dominates \
         attach and the data path idles";
    };
    {
      wname = "fleet-cold";
      why =
        "closed loop: rounds of 4 concurrent cold sessions sharing the \
         build-id cache (1 miss, 3 hits), so analysis is mostly skipped and \
         memory per session sets peak RSS";
    };
    {
      wname = "blkio";
      why =
        "closed loop on one attached guest: 256 KiB sequential and 4 KiB \
         random vmsh-blk requests plus SimpleFS file I/O, so the data path \
         does all the work and attach none";
    };
    {
      wname = "serve";
      why =
        "open loop: Poisson arrivals at 375 jobs/s (75% of the measured \
         knee) from 4 tenants into 4 workers, the only workload that runs \
         admission, fair queueing and dispatch";
    };
  ]

let workload_names = List.map (fun w -> w.wname) workloads

let e2e name unit_ better bound moves =
  { name; unit_; better; bound = Some bound; clock = W; layer = "end-to-end"; moves }

(* Every end-to-end metric is a host-side one. The modelled (virtual)
   numbers repeat exactly for any seed on three of the four workloads,
   and a bound shared by all workloads could not tell a model change
   from seed noise on the fourth, so they are per-layer metrics that
   [compare] holds to exact equality. *)
let end_to_end =
  [
    e2e "host_ms_per_op" "ms" Lower 0.20
      "host time per operation (a session on interactive and fleet-cold, \
       an I/O batch on blkio, a job on serve) over the whole timed phase, \
       at the nominal host speed";
    e2e "peak_rss_mib" "MiB" Lower 0.15
      "peak resident memory of the process after the modelled window's \
       fixed work";
    e2e "setup_s" "s" Lower 0.25
      "median of the run's set-ups, each ending with one warm-up unit, at \
       the nominal host speed";
  ]

(* The shared host's speed drifts by a third within minutes, so host
   times are rescaled to a nominal speed: multiplied by this over the
   run's [Probe.calibrate] time (about its time on a quiet 2-CPU
   reference box). The raw numbers stay in the per-layer metrics. *)
let nominal_calibration_ms = 0.5

let layer ?(clock = V) name unit_ better layer moves =
  { name; unit_; better; bound = None; clock; layer; moves }

let attach_phases =
  [
    "ptrace-attach"; "fd-discovery"; "memslot-dump"; "register-read";
    "symbol-analysis"; "device-setup"; "klib-sideload";
  ]

let phase_metric phase =
  "vmsh.attach." ^ String.map (fun c -> if c = '-' then '_' else c) phase ^ "_us.p50"

(* Cost classes of [Hostos.Clock] whose charge is exactly count x price.
   Exits mix in-kernel and userspace prices, device ops scale with a
   block count the counters do not keep, and raw [Clock.advance] calls
   have no class: all of that is [unattributed]. *)
let ledger_classes =
  [
    "context_switch"; "syscall"; "ptrace_stop"; "copy"; "remote_copy";
    "page_cache"; "irq"; "socket"; "fs"; "mmio_exit";
  ]

let exit_kinds = [ "ioregionfd"; "ioeventfd"; "mmio-userspace" ]

let exit_metric kind =
  "kvm.exit." ^ String.map (fun c -> if c = '-' then '_' else c) kind ^ "_per_mib"

let attach_moves = "vmsh.attach_ms.p50 on interactive"

let per_layer =
  [
    (* modelled headline numbers: the paper's claims *)
    layer "vmsh.attach_ms.p50" "ms" Lower "vmsh"
      "headline: time from Attach.attach call to return (interactive, \
       fleet-cold)";
    layer "vmsh.attach_ms.p90" "ms" Lower "vmsh" "headline (interactive, fleet-cold)";
    layer "vmsh.detach_ms.p50" "ms" Lower "vmsh" "headline (interactive)";
    layer "vmsh.shell_cmd_us.p50" "us" Lower "vmsh" "headline, Fig. 7 (interactive)";
    layer "vmsh.shell_cmd_us.p95" "us" Lower "vmsh" "headline (interactive)";
    layer "virtio.blk.read_mb_s" "MB/s" Higher "virtio" "headline, Fig. 6 (blkio)";
    layer "virtio.blk.write_mb_s" "MB/s" Higher "virtio" "headline, Fig. 6 (blkio)";
    layer "virtio.blk.rand_kiops" "kIOPS" Higher "virtio" "headline, Fig. 6 (blkio)";
    layer "blockdev.fs_write_mb_s" "MB/s" Higher "blockdev" "headline (blkio)";
    layer "service.e2e_ms.p50" "ms" Lower "service" "headline (serve)";
    layer "service.e2e_ms.p90" "ms" Lower "service" "headline (serve)";
    layer "service.goodput_jobs_s" "1/s" Higher "service" "headline (serve)";
    layer "fleet.session_ms.p50" "ms" Lower "fleet"
      "Fleet's own per-session span: tools pack + attach + console + detach \
       (fleet-cold)";
    (* attach phases *)
  ]
  @ List.map
      (fun p ->
        layer (phase_metric p) "us" Lower "vmsh"
          (if p = "symbol-analysis" then
             attach_moves ^ "; barely on fleet-cold or serve"
           else attach_moves))
      attach_phases
  @ [
      layer "vmsh.attach.unphased_ns.max" "ns" Lower "vmsh"
        "attach time outside every phase; the run fails above 1 ns";
      layer "vmsh.symcache.hit_ratio" "ratio" Higher "vmsh"
        "vmsh.attach_ms.p50 on fleet-cold and serve";
      layer "vmsh.journal.entries_per_attach" "count" Lower "vmsh"
        "vmsh.detach_ms.p50 on interactive";
      layer "hostos.syscalls_per_attach" "count" Lower "hostos" attach_moves;
      layer "hostos.ptrace_stops_per_attach" "count" Lower "hostos" attach_moves;
      layer "hostos.socket_msgs_per_attach" "count" Lower "hostos" attach_moves;
      layer "hostos.remote_copy_kib_per_attach" "KiB" Lower "hostos" attach_moves;
      layer "kvm.exits_per_attach" "count" Lower "kvm" attach_moves;
      layer "kvm.mmio_exits_per_attach" "count" Lower "kvm" attach_moves;
      layer "kvm.irqs_per_attach" "count" Lower "kvm" attach_moves;
      layer "hypervisor.pump_calls_per_attach" "count" Lower "hypervisor" attach_moves;
      layer "hypervisor.pump_virt_us_per_attach" "us" Lower "hypervisor" attach_moves;
      layer "trace.events_per_attach" "count" Lower "trace"
        "host_ms_per_op on interactive";
    ]
  @ List.map
      (fun c ->
        layer ("hostos.ledger." ^ c ^ "_pct") "%" Lower "hostos"
          ("share of attach virtual time; " ^ attach_moves))
      ledger_classes
  @ [
      layer "hostos.ledger.unattributed_pct" "%" Lower "hostos"
        "attach time no exact cost class explains (exits, device ops, raw \
         advances)";
      layer "virtio.blk.read_us.p50" "us" Lower "virtio" "virtio.blk.rand_kiops on blkio";
      layer "virtio.blk.read_us.p99" "us" Lower "virtio" "virtio.blk.read_mb_s on blkio";
      layer "virtio.blk.write_us.p50" "us" Lower "virtio" "virtio.blk.rand_kiops on blkio";
      layer "virtio.blk.write_us.p99" "us" Lower "virtio" "virtio.blk.write_mb_s on blkio";
      layer "hostos.remote_copy_bytes_per_mib" "B/MiB" Lower "hostos"
        "virtio.blk.read_mb_s on blkio";
    ]
  @ List.map
      (fun k ->
        layer (exit_metric k) "count" Lower "kvm" "virtio.blk.read_mb_s on blkio")
      exit_kinds
  @ [
      layer "blockdev.device_ops_per_mib" "count" Lower "blockdev"
        "virtio.blk.read_mb_s on blkio";
      layer "linux_guest.page_cache.hit_ratio" "ratio" Higher "linux_guest"
        "blockdev.fs_write_mb_s on blkio";
      layer "virtio.blk.qemu_read_mb_s" "MB/s" Higher "virtio"
        "control: vmsh-blk work must not move it (blkio)";
      layer "virtio.blk.vmsh_vs_qemu_ratio" "ratio" Higher "virtio"
        "Fig. 6 shape, gated to [0.35, 0.75] (blkio)";
      layer "virtio.console.tx_us.p50" "us" Lower "virtio"
        "vmsh.shell_cmd_us.p50 on interactive";
      layer "fleet.slices_per_session" "count" Lower "fleet"
        "host_ms_per_op on fleet-cold";
      layer "service.wait_ms.p50" "ms" Lower "service" "service.e2e_ms.p90 on serve";
      layer "service.wait_ms.p90" "ms" Lower "service" "service.e2e_ms.p90 on serve";
      layer "service.exec_ms.p50" "ms" Lower "service" "service.e2e_ms.p50 on serve";
      layer "service.exec_ms.p90" "ms" Lower "service" "service.e2e_ms.p90 on serve";
      layer "service.queue_depth.max" "count" Lower "service"
        "service.e2e_ms.p90 on serve";
      layer "service.shed_ratio" "ratio" Lower "service"
        "service.goodput_jobs_s on serve";
      (* host-side self time of the simulator's layers *)
      layer ~clock:W "hypervisor.boot_wall_ms" "ms" Lower "hypervisor"
        "host_ms_per_op on interactive";
      layer ~clock:W "vmsh.attach.wall_ms" "ms" Lower "vmsh"
        "host_ms_per_op on interactive";
      layer ~clock:W "vmsh.snapshot.capture_wall_ms" "ms" Lower "vmsh"
        "host_ms_per_op on interactive";
      layer ~clock:W "vmsh.snapshot.diff_wall_ms" "ms" Lower "vmsh"
        "host_ms_per_op on interactive";
      layer ~clock:W "blockdev.image_pack_wall_ms" "ms" Lower "blockdev"
        "host_ms_per_op on interactive";
      layer ~clock:W "hypervisor.pump_wall_ms_per_attach" "ms" Lower "hypervisor"
        "host_ms_per_op on interactive";
      layer ~clock:W "virtio.blk.wall_us_per_request" "us" Lower "virtio"
        "host_ms_per_op on blkio";
      layer ~clock:W "fleet.peak_rss_mib_per_session" "MiB" Lower "fleet"
        "peak_rss_mib on fleet-cold";
      layer ~clock:W "host.raw_wall_ms_per_op" "ms" Lower "runtime"
        "host_ms_per_op before the speed rescaling";
      layer ~clock:W "host.calibration_ms" "ms" Lower "runtime"
        "median time of the calibration pass: the host's speed during the run";
      layer ~clock:W "gc.alloc_mib_per_op" "MiB" Lower "runtime"
        "host_ms_per_op and peak_rss_mib on every workload";
      layer ~clock:W "trace.overhead_pct" "%" Lower "trace"
        "traced units' wall time over untraced ones, minus 1";
    ]

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

(* A cost-constant edit must not pass as a speedup: every run checks the
   modelled cost table against this digest and fails on a mismatch. A
   deliberate recalibration updates the pin in the same change. *)
let pinned_costs_digest = "49f430182c973f6be296530a807fce2d"

let costs_digest () =
  Digest.to_hex
    (Digest.string (Marshal.to_string Hostos.Clock.default_costs []))

let better_string = function Lower -> "lower" | Higher -> "higher"

let benchmark_json () =
  let open Json in
  let m ~with_bound x =
    Obj
      ([
         ("name", Str x.name); ("unit", Str x.unit_);
         ("better", Str (better_string x.better));
       ]
      @
      match (with_bound, x.bound) with
      | true, Some b -> [ ("bound", Num b) ]
      | _ -> [])
  in
  Obj
    [
      ("command", Arr [ Str "bash"; Str "perf/run.sh" ]);
      ("paths", Arr [ Str "perf" ]);
      ("run_seconds", Num (float_of_int run_seconds));
      ( "workloads",
        Arr
          (List.map
             (fun w -> Obj [ ("name", Str w.wname); ("why", Str w.why) ])
             workloads) );
      ("end_to_end", Arr (List.map (m ~with_bound:true) end_to_end));
      ("per_layer", Arr (List.map (m ~with_bound:false) per_layer));
    ]
