(* The pieces every workload builds its sessions from, and the modelled
   attach accounting they share: call-boundary virtual time, the
   program's own stage.attach.* registry, counter deltas and the
   per-class cost ledger. *)

module H = Hostos
module Clock = H.Clock
module Sfs = Blockdev.Simplefs
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version
module Acc = Probe.Acc

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let rootfs_blocks = 2048

(* A guest boot disk: SimpleFS root holding /etc/hostname in the first
   [rootfs_blocks] blocks, raw scratch space after it. *)
let boot_disk h ~hostname ~blocks =
  let backend = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks () in
  let rootdev =
    Blockdev.Dev.sub (Blockdev.Backend.dev backend) ~first_block:0
      ~blocks:rootfs_blocks
  in
  let fs =
    match Sfs.mkfs rootdev () with
    | Ok f -> f
    | Error e -> failwith ("mkfs: " ^ H.Errno.show e)
  in
  ignore (Sfs.mkdir_p fs "/dev");
  ignore (Sfs.mkdir_p fs "/etc");
  ignore (Sfs.write_file fs "/etc/hostname" (Bytes.of_string (hostname ^ "\n")));
  Sfs.sync fs;
  backend

(* The VMSH tools image (the vmsh-blk backing store), packed on the
   host clock like the CLI packs it. *)
let tools_image ?(extra_blocks = 64) clock =
  match
    Blockdev.Image.pack ~clock ~extra_blocks
      [ Blockdev.Image.file "/bin/busybox" 800_000 ]
  with
  | Ok (backend, _) -> backend
  | Error e -> failwith ("tools image: " ^ H.Errno.show e)

let open_fds h =
  List.fold_left
    (fun acc p -> acc + List.length (H.Proc.fd_numbers p))
    0 h.H.Host.procs

let registry h = Observe.metrics h.H.Host.observe

let counter mx name =
  Observe.Metrics.counter_value (Observe.Metrics.counter mx name)

let histogram mx name =
  List.find_opt
    (fun hs -> Observe.Metrics.histogram_name hs = name)
    (Observe.Metrics.histograms mx)

let stage_name phase = "stage.attach." ^ phase ^ "_ns"

(* A registry holding exactly one attach: read its total and phases
   exactly (a one-sample histogram's min is the sample). *)
let single_attach mx =
  let one name =
    match histogram mx name with
    | Some hs when Observe.Metrics.count hs = 1 -> Observe.Metrics.min_value hs
    | Some hs ->
        raise
          (Check_failed
             (Printf.sprintf "%s holds %d samples, expected one attach" name
                (Observe.Metrics.count hs)))
    | None -> 0.0
  in
  ( one "stage.attach.total_ns",
    List.map (fun p -> (p, one (stage_name p))) Catalogue.attach_phases )

(* Record one attach's program-side stage profile into [acc] and check
   that the phases account for all of it. *)
let record_stages acc ~total ~phases =
  let phased = List.fold_left (fun a (_, v) -> a +. v) 0. phases in
  let gap = Float.abs (total -. phased) in
  check (gap <= 1.0) "attach phases sum to %.0f ns but the attach took %.0f ns"
    phased total;
  Acc.add acc "attach_ns" total;
  Acc.add acc "unphased_ns" gap;
  List.iter (fun (p, v) -> Acc.add acc ("phase:" ^ p) v) phases

let ledger_ns (costs : Clock.costs) (d : (string * int) list) =
  let f name = float_of_int (List.assoc name d) in
  [
    ("context_switch", f "context_switches" *. costs.Clock.ns_context_switch);
    ("syscall", f "syscalls" *. costs.Clock.ns_syscall);
    ("ptrace_stop", f "ptrace_stops" *. costs.Clock.ns_ptrace_stop);
    ("copy", f "bytes_copied" *. costs.Clock.ns_per_byte_copy);
    ("remote_copy", f "bytes_copied_remote" *. costs.Clock.ns_per_byte_remote_copy);
    ("page_cache", f "page_cache_hits" *. costs.Clock.ns_page_cache_hit);
    ("irq", f "irq_injections" *. costs.Clock.ns_irq_injection);
    ("socket", f "socket_msgs" *. costs.Clock.ns_socket_msg);
    ("fs", f "fs_ops" *. costs.Clock.ns_fs_op);
    ("mmio_exit", f "mmio_exits" *. costs.Clock.ns_vmexit_userspace);
  ]

(* Per-counter change between two [Clock.snapshot]s. *)
let delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, b - a)) (Clock.to_fields before)
    (Clock.to_fields after)

(* Attach with every layer measured from outside: the [pump] handed to
   attach is wrapped to count its calls and their virtual and host
   time, the host's counters are read on both sides of the call, and
   the call-boundary virtual time is checked against the program's own
   stage.attach.total_ns. *)
let attach probe acc h vmm ~image ~config =
  let clock = h.H.Host.clock in
  let calls = ref 0 and pump_virt = ref 0. and pump_wall = ref 0. in
  let counting = ref true in
  let pump () =
    let v0 = Clock.now_ns clock and w0 = Unix.gettimeofday () in
    Vmm.run_until_idle vmm;
    if !counting then begin
      incr calls;
      pump_virt := !pump_virt +. (Clock.now_ns clock -. v0);
      pump_wall := !pump_wall +. (Unix.gettimeofday () -. w0)
    end
  in
  let before = Clock.snapshot clock in
  let events0 = Trace.Recorder.total h.H.Host.recorder in
  let t0 = Clock.now_ns clock in
  let result =
    Probe.call probe ~clock "attach" (fun () ->
        Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ~fs_image:image
          ~config ~pump ())
  in
  let took = Clock.now_ns clock -. t0 in
  counting := false;
  match result with
  | Error _ as e -> e
  | Ok session ->
      let mx = registry h in
      let total, phases = single_attach mx in
      check (Float.abs (took -. total) <= 1.0)
        "attach took %.0f virtual ns at the call boundary but \
         stage.attach.total_ns says %.0f"
        took total;
      record_stages acc ~total ~phases;
      let d = delta before (Clock.snapshot clock) in
      List.iter (fun (k, v) -> Acc.add acc ("ctr:" ^ k) (float_of_int v)) d;
      List.iter
        (fun (k, v) -> Acc.add acc ("ledger:" ^ k) v)
        (ledger_ns (Clock.costs clock) d);
      Acc.add acc "pump_calls" (float_of_int !calls);
      Acc.add acc "pump_virt_ns" !pump_virt;
      Acc.add acc "pump_wall_s" !pump_wall;
      Acc.add acc "trace_events"
        (float_of_int (Trace.Recorder.total h.H.Host.recorder - events0));
      Acc.add acc "symcache_hits" (float_of_int (counter mx "symcache.hits"));
      Acc.add acc "symcache_misses" (float_of_int (counter mx "symcache.misses"));
      (match Vmsh.Attach.journal session with
      | Some j -> Acc.add acc "journal_entries" (float_of_int (Vmsh.Journal.length j))
      | None -> ());
      Ok session

(* Detach and prove the guest came back byte-for-byte with no
   descriptor left behind. *)
let detach_and_verify probe acc h vmm session ~before ~fds_before =
  let clock = h.H.Host.clock in
  let vm = Vmm.kvm_vm vmm in
  let late =
    match Vmsh.Attach.journal session with
    | Some j -> Vmsh.Journal.late_writes j
    | None -> []
  in
  let t0 = Clock.now_ns clock in
  let detached =
    Probe.call probe ~clock "detach" (fun () -> Vmsh.Attach.detach session)
  in
  Acc.add acc "detach_ns" (Clock.now_ns clock -. t0);
  match detached with
  | Error e -> Error e
  | Ok () ->
      let diff =
        Probe.call probe "oracle" (fun () ->
            let after = Vmsh.Snapshot.capture vm in
            let exclude = Vmsh.Snapshot.dirty_since vm before @ late in
            Vmsh.Snapshot.diff ~before ~after ~exclude)
      in
      check (diff = []) "rollback oracle: %s" (String.concat "; " diff);
      let leaked = open_fds h - fds_before in
      check (leaked = 0) "detach leaked %d descriptors" leaked;
      Ok ()

(* --- per-layer values from the accumulated samples ----------------- *)

let ratio a b = if b = 0. then 0. else a /. b

(* Modelled attach metrics over every attach recorded in [acc]. *)
let attach_layers acc =
  let totals = Acc.get acc "attach_ns" in
  let n = float_of_int (Array.length totals) in
  if n = 0. then []
  else
    let per_attach key = Acc.total acc key /. n in
    let counters =
      if Acc.count acc "ctr:syscalls" = 0 then []
      else
        let total_ns = Acc.total acc "attach_ns" in
        let classes =
          List.map
            (fun c -> (c, Acc.total acc ("ledger:" ^ c) /. total_ns *. 100.))
            Catalogue.ledger_classes
        in
        [
          ("hostos.syscalls_per_attach", per_attach "ctr:syscalls");
          ("hostos.ptrace_stops_per_attach", per_attach "ctr:ptrace_stops");
          ("hostos.socket_msgs_per_attach", per_attach "ctr:socket_msgs");
          ("hostos.remote_copy_kib_per_attach", per_attach "ctr:bytes_copied_remote" /. 1024.);
          ("kvm.exits_per_attach", per_attach "ctr:vmexits");
          ("kvm.mmio_exits_per_attach", per_attach "ctr:mmio_exits");
          ("kvm.irqs_per_attach", per_attach "ctr:irq_injections");
          ("hypervisor.pump_calls_per_attach", per_attach "pump_calls");
          ("hypervisor.pump_virt_us_per_attach", per_attach "pump_virt_ns" /. 1e3);
          ("trace.events_per_attach", per_attach "trace_events");
          ( "hostos.ledger.unattributed_pct",
            100. -. List.fold_left (fun a (_, p) -> a +. p) 0. classes );
        ]
        @ List.map (fun (c, p) -> ("hostos.ledger." ^ c ^ "_pct", p)) classes
    in
    [
      ("vmsh.journal.entries_per_attach", Stats.mean (Acc.get acc "journal_entries"));
      ("vmsh.attach_ms.p50", Stats.percentile totals 0.5 /. 1e6);
      ("vmsh.attach_ms.p90", Stats.percentile totals 0.9 /. 1e6);
      ("vmsh.attach.unphased_ns.max", Stats.max_of (Acc.get acc "unphased_ns"));
      ( "vmsh.symcache.hit_ratio",
        let hits = Acc.total acc "symcache_hits" in
        ratio hits (hits +. Acc.total acc "symcache_misses") );
    ]
    @ List.map
        (fun p ->
          (Catalogue.phase_metric p, Stats.percentile (Acc.get acc ("phase:" ^ p)) 0.5 /. 1e3))
        Catalogue.attach_phases
    @ counters

(* Percentile of a histogram folded from many hosts' registries (its
   log buckets bound the error to about half a bucket). *)
let hist_p mx name p =
  match histogram mx name with
  | Some hs when Observe.Metrics.count hs > 0 -> Observe.Metrics.percentile hs p
  | _ -> 0.

let console_layers mx =
  [ ("virtio.console.tx_us.p50", hist_p mx "vmsh-console.tx_ns" 50. /. 1e3) ]

let host_layers probe acc =
  let ms name metric =
    match Probe.wall_ms probe name with Some v -> [ (metric, v) ] | None -> []
  in
  ms "boot" "hypervisor.boot_wall_ms"
  @ ms "attach" "vmsh.attach.wall_ms"
  @ ms "snapshot" "vmsh.snapshot.capture_wall_ms"
  @ ms "oracle" "vmsh.snapshot.diff_wall_ms"
  @ ms "image-pack" "blockdev.image_pack_wall_ms"
  @
  if Acc.count acc "pump_wall_s" = 0 then []
  else
    [ ("hypervisor.pump_wall_ms_per_attach", Stats.mean (Acc.get acc "pump_wall_s") *. 1e3) ]
