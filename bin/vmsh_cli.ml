(* The vmsh command-line tool.

   Because this reproduction runs against a simulated host (see
   DESIGN.md), every subcommand first stands up a simulated machine with
   a running hypervisor, then exercises the *real* VMSH code paths
   against it:

     vmsh attach   -- attach to a freshly booted VM and run shell commands
     vmsh matrix   -- the Table-1 support matrix
     vmsh debloat  -- trace + strip one of the top-40 images
     vmsh rescue   -- the password-reset use case end to end *)

module H = Hostos
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version
module Guest = Linux_guest.Guest
module Config = Vmsh.Attach.Config
open Cmdliner

let profile_of_string = function
  | "qemu" -> Ok Profile.qemu
  | "kvmtool" -> Ok Profile.kvmtool
  | "firecracker" -> Ok Profile.firecracker
  | "crosvm" -> Ok Profile.crosvm
  | "cloud-hypervisor" -> Ok Profile.cloud_hypervisor
  | s -> Error (`Msg ("unknown hypervisor: " ^ s))

let profile_conv =
  Arg.conv
    ( profile_of_string,
      fun ppf p -> Format.pp_print_string ppf p.Profile.prof_name )

let version_conv =
  Arg.conv
    ( (fun s ->
        match KV.of_string s with
        | Some v -> Ok v
        | None -> Error (`Msg ("unknown kernel version: " ^ s))),
      fun ppf v -> Format.pp_print_string ppf (KV.to_string v) )

let transport_conv =
  Arg.conv
    ( (function
      | "ioregionfd" -> Ok Vmsh.Devices.Ioregionfd
      | "wrap_syscall" -> Ok Vmsh.Devices.Wrap_syscall
      | s -> Error (`Msg ("unknown transport: " ^ s))),
      fun ppf t -> Format.pp_print_string ppf (Vmsh.Devices.show_transport t) )

let log_level_conv =
  Arg.conv
    ( (fun s ->
        match Observe.level_of_string s with
        | Some l -> Ok l
        | None -> Error (`Msg ("unknown log level: " ^ s))),
      fun ppf l -> Format.pp_print_string ppf (Observe.level_to_string l) )

(* A flag with no default value, and an integer flag. *)
let opt_string name ~docv ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let opt_int name default ~docv ~doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let log_level_arg =
  Arg.(
    value
    & opt (some log_level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Structured, virtual-time-stamped stderr logging: quiet, info or \
           debug. Default quiet (stderr byte-identical to a build without \
           logging).")

(* A class name given on the command line; an unknown one lists the
   valid names and exits 2. *)
let parse_class ~verb ~what ~names of_name s =
  match of_name s with
  | Some c -> c
  | None ->
      Printf.eprintf "%s: unknown %s class %S (one of: %s)\n" verb what s
        (String.concat ", " names);
      exit 2

let hostile_class verb =
  parse_class ~verb ~what:"hostile"
    ~names:(List.map Hostile.name Hostile.all)
    Hostile.of_name

(* A flag value out of range: one line and exit 2. *)
let require_positive verb flag n =
  if n <= 0 then begin
    Printf.eprintf "%s: --%s must be positive\n" verb flag;
    exit 2
  end

(* The one place the CLI writes files: [f] writes them, and an
   unwritable path is one error line and [None] instead of an uncaught
   Sys_error. *)
let writing f =
  match f () with
  | v -> Some v
  | exception Sys_error msg ->
      Printf.eprintf "vmsh: cannot write output: %s\n" msg;
      None

let contents data path =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

let written path data = writing (fun () -> contents data path) <> None

(* Write the optional output file with [save] and print "[what] written
   to PATH"; exit 1 if it cannot be written. *)
let output_file what path save =
  Option.iter
    (fun path ->
      if writing (fun () -> save path) = None then exit 1;
      Printf.printf "%s written to %s\n" what path)
    path

(* --- attach --- *)

(* Sync the virtual clock's counters into the metrics registry so the
   JSON snapshot carries them alongside the histograms. *)
let snapshot_clock_metrics h =
  let obs = h.H.Host.observe in
  let mx = Observe.metrics obs in
  Observe.Metrics.set_gauge
    (Observe.Metrics.gauge mx "clock.virtual_ns")
    (Observe.now obs);
  List.iter
    (fun (k, v) ->
      Observe.Metrics.set_counter (Observe.Metrics.counter mx ("clock." ^ k)) v)
    (H.Clock.to_fields (H.Clock.counters h.H.Host.clock))

(* Runs at every end of an attach: [-v] prints the recorded stream,
   then the requested files are written. *)
let write_observe_outputs h ~verbose ~trace_out ~metrics_out =
  let obs = h.H.Host.observe in
  if verbose then
    List.iter
      (fun (phase, e) ->
        match phase with
        | Trace.Begin -> Format.eprintf ">> %a@." Trace.pp_event e
        | Trace.End ->
            let nonzero = List.filter (fun (_, v) -> v <> Trace.I 0) e.args in
            Format.eprintf "<< %a@." Trace.pp_event { e with args = nonzero }
        | Trace.Boundary | Trace.Instant ->
            Format.eprintf "%a@." Trace.pp_event e)
      (Trace.Recorder.stream h.H.Host.recorder);
  (* both files are attempted; the result says whether both were written *)
  let write path data said =
    Option.fold path ~none:true ~some:(fun path ->
        written path (data ()) && (Printf.printf said path; true))
  in
  let trace_ok =
    write trace_out
      (fun () -> Observe.Export.chrome_trace obs)
      "trace written to %s (load it in Perfetto or chrome://tracing)\n"
  in
  write metrics_out
    (fun () ->
      snapshot_clock_metrics h;
      Observe.Export.metrics_json (Observe.metrics obs))
    "metrics written to %s\n"
  && trace_ok

let attach_cmd =
  let run verbose profile version transport commands net_echo detach_after
      hostile trace_out metrics_out log_level =
    let module S = Fleet.Session in
    let hostile = Option.map (hostile_class "attach") hostile in
    let h = H.Host.create ~seed:11 () in
    let config = Config.with_transport transport (Config.make ()) in
    let config =
      if net_echo = 0 then config
      else
        let fabric, port =
          Workloads.Traffic.make_network h ~mode:Workloads.Traffic.Echo ()
        in
        Config.with_net { Vmsh.Attach.fabric; port } config
    in
    let mark kind =
      Trace.Recorder.record h.H.Host.recorder ~phase:Trace.Instant ~kind ()
    in
    let devices = ref None in
    let step = function
      | S.Booted vmm ->
          Option.iter (Observe.set_log_level h.H.Host.observe) log_level;
          if verbose || trace_out <> None || metrics_out <> None then
            Observe.enable h.H.Host.observe;
          mark "cli.booted";
          Printf.printf "booted %s with guest kernel v%s (hypervisor pid %d)\n"
            profile.Profile.prof_name (KV.to_string version) (Vmm.pid vmm);
          Option.iter
            (fun c -> Printf.printf "hostile guest armed: %s\n" (Hostile.name c))
            hostile;
          Ok ()
      | S.Attached (vmm, session) ->
          mark "cli.attached";
          let anal = Vmsh.Attach.analysis session in
          Printf.printf
            "attached (%s%s): kernel at 0x%x, %d symbols, ksymtab layout %s\n"
            (Vmsh.Devices.show_transport transport)
            (if Config.pci (Vmsh.Attach.config session) then " over pci" else "")
            anal.Vmsh.Symbol_analysis.kernel_base
            (List.length anal.Vmsh.Symbol_analysis.symbols)
            (match anal.Vmsh.Symbol_analysis.layout with
            | KV.Prel32 -> "prel32"
            | KV.Absolute_value_first -> "absolute (value first)"
            | KV.Absolute_name_first -> "absolute (name first)");
          ignore (Vmsh.Attach.console_recv session);
          List.iter
            (fun cmd ->
              Printf.printf "vmsh> %s\n%s" cmd
                (Vmsh.Attach.console_roundtrip session cmd))
            (if commands = [] then [ "ls /"; "hostname"; "ps" ] else commands);
          if net_echo > 0 then
            Format.printf "net echo over vmsh-net: %a@."
              Workloads.Traffic.pp_result
              (Workloads.Traffic.run_client vmm (Vmm.guest_exn vmm)
                 ~requests:net_echo ~payload_size:64
                 ~mode:Workloads.Traffic.Echo ());
          devices := Some (Vmsh.Attach.devices session);
          Ok ()
    in
    (* an adversarial guest races the attach from inside: one seeded
       engine step at every cooperative yield point of the attach path *)
    let r =
      S.run ~step ~host:h
        (S.spec ~config
           ?plan:
             (Option.map (fun _ -> Faults.create ~seed:11 ~rate:0.0 ()) hostile)
           ?hostile:(Option.map (fun c -> (c, 11)) hostile)
           (S.cold ~profile ~version "cli-vm"))
    in
    let failed what e =
      ignore (write_observe_outputs h ~verbose ~trace_out ~metrics_out);
      Printf.eprintf "%s failed: %s\n" what (Vmsh.Vmsh_error.to_string e);
      exit 1
    in
    match r.S.outcome with
    | S.Escaped e -> raise e
    | S.Aborted e -> failed "attach" e
    | S.Detach_failed e -> failed "detach" e
    | S.Completed | S.Broken _ (* the steps above never break *) ->
        mark "cli.detached";
        let problems =
          r.S.oracle
          @ if r.S.leaked_fds = 0 then []
            else [ Printf.sprintf "%d descriptors leaked" r.S.leaked_fds ]
        in
        if detach_after then
          if problems = [] then
            Printf.printf
              "rollback oracle: guest restored byte-for-byte (modulo \
               guest-dirtied pages)\n"
          else List.iter (Printf.eprintf "rollback oracle: %s\n") problems;
        let outputs_ok =
          write_observe_outputs h ~verbose ~trace_out ~metrics_out
        in
        Printf.printf "detached; %d block requests served by vmsh-blk\n"
          (Vmsh.Devices.stats_requests (Option.get !devices));
        if not (outputs_ok && (problems = [] || not detach_after)) then exit 1
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "Trace the attach and print the recorded event stream to \
             stderr when the command ends.")
  in
  let profile =
    Arg.(
      value
      & opt profile_conv Profile.qemu
      & info [ "hypervisor" ] ~docv:"NAME"
          ~doc:"Hypervisor: qemu, kvmtool, firecracker, crosvm, cloud-hypervisor.")
  in
  let version =
    Arg.(
      value
      & opt version_conv KV.V5_10
      & info [ "kernel" ] ~docv:"VER" ~doc:"Guest kernel LTS version.")
  in
  let transport =
    Arg.(
      value
      & opt transport_conv Vmsh.Devices.Ioregionfd
      & info [ "transport" ] ~docv:"T" ~doc:"MMIO transport: ioregionfd or wrap_syscall.")
  in
  let commands =
    Arg.(value & opt_all string [] & info [ "exec"; "e" ] ~docv:"CMD"
           ~doc:"Shell command to run (repeatable).")
  in
  let net_echo =
    opt_int "net-echo" 0 ~docv:"N"
      ~doc:"Cable the side-loaded virtio-net NIC to a simulated network \
            and run N echo request/response round-trips after the shell \
            commands."
  in
  let detach_after =
    Arg.(
      value & flag
      & info [ "detach-after" ]
          ~doc:
            "Print the rollback oracle after detach: guest memory and vCPU \
             registers restored byte-for-byte (modulo pages the guest itself \
             dirtied), no tracer, process or descriptor left behind; exit 1 \
             if the oracle finds a discrepancy.")
  in
  let hostile =
    opt_string "hostile" ~docv:"CLASS"
      ~doc:"Attach while a seeded adversarial guest attacks from inside \
            (toctou-scan, balloon, desc-chaos or mem-churn); combine with \
            --detach-after to assert the rollback oracle under attack."
  in
  let trace_out =
    opt_string "trace-out" ~docv:"FILE"
      ~doc:"Write a Chrome trace_event JSON of the attach (virtual-ns \
            timestamps; load in Perfetto or chrome://tracing)."
  in
  let metrics_out =
    opt_string "metrics-out" ~docv:"FILE"
      ~doc:"Write a flat JSON snapshot of counters/gauges/histograms."
  in
  Cmd.v
    (Cmd.info "attach" ~doc:"Boot a VM and attach a VMSH shell to it")
    Term.(
      const run $ verbose $ profile $ version $ transport $ commands
      $ net_echo $ detach_after $ hostile $ trace_out $ metrics_out
      $ log_level_arg)

(* --- matrix --- *)

let matrix_cmd =
  let run () =
    (* one full session per cell: attach, console round trip, detach *)
    let verdict ~profile ~version ~seed =
      (Fleet.Session.run ~host:(H.Host.create ~seed ())
         (Fleet.Session.spec (Fleet.Session.cold ~profile ~version "cli-vm")))
        .Fleet.Session.verdict
    in
    Printf.printf "%-18s %s\n" "hypervisor" "vmsh attach";
    List.iter
      (fun profile ->
        Printf.printf "%-18s %s\n" profile.Profile.prof_name
          (match verdict ~profile ~version:KV.V5_10 ~seed:21 with
          | Faults.Abort.Survived -> "supported"
          | _ -> "unsupported"))
      Profile.all;
    Printf.printf "\n%-10s %s\n" "kernel" "vmsh attach";
    List.iter
      (fun version ->
        Printf.printf "v%-9s %s\n" (KV.to_string version)
          (match verdict ~profile:Profile.qemu ~version ~seed:23 with
          | Faults.Abort.Survived -> "supported"
          | v -> "FAILED: " ^ Faults.Abort.detail v))
      KV.all_lts
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Print the hypervisor/kernel support matrix (Table 1)")
    Term.(const run $ const ())

(* --- debloat --- *)

let debloat_cmd =
  let run name =
    match Debloat.Dataset.find name with
    | None ->
        Printf.eprintf "unknown image %S; available: %s\n" name
          (String.concat ", "
             (List.map (fun i -> i.Debloat.Dataset.iname) (Debloat.Dataset.top40 ())));
        exit 1
    | Some image ->
        let h = H.Host.create ~seed:33 () in
        let r = Debloat.Analyze.analyze h image in
        let scale = Debloat.Dataset.size_scale in
        let mb b = Float.of_int (b * scale) /. 1048576.0 in
        Printf.printf
          "%s: %.1f MB -> %.1f MB (%.0f%% reduction); app still works: %b\n"
          r.Debloat.Analyze.r_name
          (mb r.Debloat.Analyze.before_bytes)
          (mb r.Debloat.Analyze.after_bytes)
          r.Debloat.Analyze.reduction_pct r.Debloat.Analyze.still_works
  in
  let image_arg =
    Arg.(value & pos 0 string "nginx" & info [] ~docv:"IMAGE" ~doc:"Image name.")
  in
  Cmd.v
    (Cmd.info "debloat" ~doc:"Trace and strip one of the top-40 images (Fig. 8)")
    Term.(const run $ image_arg)

(* --- monitor --- *)

let monitor_cmd =
  let run () =
    let h = H.Host.create ~seed:51 () in
    let vmm, g =
      Fleet.Machine.cold_boot h ~profile:Profile.qemu ~version:KV.V5_10
        ~hostname:"cli-vm"
    in
    (* some workload to observe *)
    Vmm.in_guest vmm (fun () ->
        ignore
          (Guest.spawn_container g ~name:"web"
             ~image:[ ("/etc/nginx.conf", "worker_processes 4;\n") ]));
    match Usecases.Monitor.collect h ~vmm with
    | Error v ->
        Printf.eprintf "monitor failed: %s\n" (Faults.Abort.to_string v);
        exit 1
    | Ok report -> Format.printf "%a@." Usecases.Monitor.pp_report report
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Collect guest-OS metrics (process list, disk usage) without an agent")
    Term.(const run $ const ())

(* --- rescue --- *)

let rescue_cmd =
  let run user password =
    let h = H.Host.create ~seed:41 () in
    let vmm, g =
      Fleet.Machine.cold_boot h ~profile:Profile.qemu ~version:KV.V5_10
        ~hostname:"cli-vm"
    in
    Vmm.in_guest vmm (fun () ->
        ignore
          (Guest.file_write g ~ns:(Guest.root_ns g) "/etc/shadow"
             (Bytes.of_string (user ^ ":$6$lost$00000000:19000:0:99999:7:::\n"))));
    match Usecases.Rescue.reset_password h ~vmm ~user ~password with
    | Error v ->
        Printf.eprintf "rescue failed: %s\n" (Faults.Abort.to_string v);
        exit 1
    | Ok _ ->
        Printf.printf "password for %S reset on the running VM: %b\n" user
          (Usecases.Rescue.verify_password_set vmm g ~user ~password)
  in
  let user = Arg.(value & pos 0 string "root" & info [] ~docv:"USER") in
  let password = Arg.(value & pos 1 string "hunter2" & info [] ~docv:"PASSWORD") in
  Cmd.v
    (Cmd.info "rescue" ~doc:"Reset a password in a running VM (use case #2)")
    Term.(const run $ user $ password)

(* --- fuzz --- *)

(* The deterministic fault-matrix sweep (one seeded fault schedule per
   seed through the full attach path) and trace-mutation campaigns; both
   drivers are [Replay.fuzz_seeds] and [Replay.fuzz_from_trace]. *)

let fuzz_cmd =
  let run seeds rate metrics_out trace_out trace_seed from_trace
      rounds campaign_seed corpus minimize log_level =
    let write_metrics sm =
      output_file "fuzz metrics" metrics_out (fun path ->
          contents (Observe.Export.metrics_json sm) path)
    in
    match from_trace with
    | Some file -> (
        require_positive "fuzz" "rounds" rounds;
        match
          writing (fun () ->
              Replay.fuzz_from_trace ?log_level ~file ~rounds
                ~seed:campaign_seed ~corpus ~minimize ())
        with
        | None -> exit 1
        | Some (Error e) ->
            Printf.eprintf "fuzz: %s\n" e;
            exit 1
        | Some (Ok c) ->
            let rep = c.Replay.cp_report in
            List.iter print_endline c.Replay.cp_ledger;
            write_metrics c.Replay.cp_metrics;
            Printf.printf
              "fuzz --from-trace: %d mutants, %d survived, %d clean aborts, \
               %d bugs (%d minimized), %d hangs, corpus +%d entries / %d \
               n-grams\n"
              rep.Fuzz.fz_mutants_run rep.Fuzz.fz_survived
              rep.Fuzz.fz_clean_aborts rep.Fuzz.fz_bugs
              rep.Fuzz.fz_minimized_bugs rep.Fuzz.fz_hangs
              rep.Fuzz.fz_corpus_kept
              (List.length rep.Fuzz.fz_coverage);
            if rep.Fuzz.fz_bugs > 0 then exit 1)
    | None ->
        require_positive "fuzz" "seeds" seeds;
        let trace_seed = Option.map (fun _ -> trace_seed) trace_out in
        let r = Replay.fuzz_seeds ?log_level ~seeds ~rate ~trace_seed () in
        List.iter
          (fun s ->
            let v = s.Replay.sd_verdict in
            Printf.printf
              "seed %2d: %-10s boosted=%-13s injected=%2d virtual=%6.1f ms%s\n"
              s.Replay.sd_seed (Faults.Abort.label v)
              (Faults.name s.Replay.sd_boosted)
              s.Replay.sd_injected
              (s.Replay.sd_virtual_ns /. 1e6)
              (match Faults.Abort.detail v with "" -> "" | m -> " (" ^ m ^ ")"))
          r.Replay.ss_runs;
        Option.iter
          (fun path ->
            Option.iter
              (fun t -> if not (written path t) then exit 1)
              r.Replay.ss_trace)
          trace_out;
        write_metrics r.Replay.ss_metrics;
        Printf.printf
          "fuzz: %d seeds, %d hangs, %d unclean failures, %d/%d fault \
           classes seen\n"
          seeds r.Replay.ss_hangs r.Replay.ss_unclean r.Replay.ss_classes_seen
          (List.length Faults.all);
        if r.Replay.ss_hangs > 0 || r.Replay.ss_unclean > 0 then exit 1
  in
  let seeds =
    opt_int "seeds" 25 ~docv:"N" ~doc:"Number of fault schedules to sweep."
  in
  let rate =
    Arg.(
      value & opt float 0.15
      & info [ "rate" ] ~docv:"P"
          ~doc:"Background per-decision fault probability for every class.")
  in
  let metrics_out =
    opt_string "metrics-out" ~docv:"FILE"
      ~doc:"Write the aggregate fuzz metrics (outcomes, per-class \
              injection and recovery counters) as JSON."
  in
  let trace_out =
    opt_string "trace-out" ~docv:"FILE"
      ~doc:"Write the Chrome trace of the schedule chosen by --trace-seed."
  in
  let trace_seed =
    opt_int "trace-seed" 0 ~docv:"K"
      ~doc:"Which schedule --trace-out captures (default 0)."
  in
  let from_trace =
    opt_string "from-trace" ~docv:"FILE"
      ~doc:"Trace-mutation mode: mutate the recorded .vmshtrace with seeded \
            structure-aware operators and judge every mutant through the \
            causality validator and the live attach pipeline (journal + \
            snapshot oracle). Replaces the --seeds sweep."
  in
  let rounds =
    opt_int "rounds" 32 ~docv:"N"
      ~doc:"Mutants per campaign (--from-trace mode)."
  in
  let campaign_seed =
    opt_int "seed" 1 ~docv:"S"
      ~doc:"Campaign seed (--from-trace mode); the whole campaign is a \
            deterministic function of (trace bytes, seed, rounds)."
  in
  let corpus =
    opt_string "corpus" ~docv:"DIR"
      ~doc:"Corpus directory (--from-trace mode): pre-loads coverage.txt, \
            then persists coverage, the verdict ledger, kept mutants and \
            minimized reproducers as .vmshtrace files."
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:
            "Auto-minimize every BUG mutant by delta-debugging its mutation \
             chain (--from-trace mode).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Sweep N deterministic fault schedules through boot + attach (or, \
          with --from-trace, mutate a recorded boundary trace) and assert \
          every run completes or fails cleanly")
    Term.(
      const run $ seeds $ rate $ metrics_out $ trace_out $ trace_seed
      $ from_trace $ rounds $ campaign_seed $ corpus $ minimize
      $ log_level_arg)

(* --- sweep --- *)

(* The crash-point sweep gate: for every fault class, learn how many
   cooperative yield points the attach crosses, then kill the attach at
   each one and assert the transaction rolled the guest back. *)

let sweep_cmd =
  let run verbose vms seed classes hostile metrics_out log_level =
    require_positive "sweep" "vms" vms;
    let parse_classes parse =
      if classes = [] then None else Some (List.map parse classes)
    in
    let r =
      if hostile then
        (* the hostile-guest chaos matrix: --class names select hostile
           classes here, not fault classes *)
        Fleet.Sweep.run_hostile ~seed
          ?classes:(parse_classes (hostile_class "sweep"))
          ~vms ?log_level ()
      else
        Fleet.Sweep.run ~seed
          ?classes:
            (parse_classes
               (parse_class ~verb:"sweep" ~what:"fault"
                  ~names:("fault-free" :: List.map Faults.name Faults.all)
                  (function
                    | "fault-free" -> Some None
                    | s -> Option.map Option.some (Faults.of_name s))))
          ~vms ?log_level ()
    in
    if verbose then
      List.iter
        (fun p -> Format.printf "%a@." Fleet.Sweep.pp_point p)
        r.Fleet.Sweep.sw_points;
    output_file "sweep metrics" metrics_out (fun path ->
        let sm = Observe.Metrics.create () in
        Fleet.Sweep.record sm r;
        contents (Observe.Export.metrics_json sm) path);
    Printf.printf
      "sweep: %d points over %d classes, oracle %d pass / %d FAIL, %d leaked \
       fds, %d unclean\n"
      (List.length r.Fleet.Sweep.sw_points)
      r.Fleet.Sweep.sw_classes r.Fleet.Sweep.sw_oracle_pass
      r.Fleet.Sweep.sw_oracle_fail r.Fleet.Sweep.sw_leaked_fds
      r.Fleet.Sweep.sw_unclean;
    if not (Fleet.Sweep.ok r) then begin
      List.iter
        (fun p ->
          if Faults.Abort.is_bug p.Fleet.Sweep.pt_report.Fleet.Session.verdict
          then Format.eprintf "%a@." Fleet.Sweep.pp_point p)
        r.Fleet.Sweep.sw_points;
      exit 1
    end
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"One line per sweep point.")
  in
  let vms =
    opt_int "vms" 1 ~docv:"N"
      ~doc:"Interleave N sweep points concurrently on the virtual-time \
            scheduler (each point still gets its own machine)."
  in
  let seed =
    opt_int "seed" 5 ~docv:"S" ~doc:"Base seed for the per-point hosts."
  in
  let classes =
    Arg.(
      value & opt_all string []
      & info [ "class" ] ~docv:"CLS"
          ~doc:
            "Restrict the sweep to this fault class (repeatable; \
             \"fault-free\" sweeps crash points with no faults armed). \
             Default: fault-free plus every class. With --hostile, names \
             select hostile classes instead.")
  in
  let hostile =
    Arg.(
      value & flag
      & info [ "hostile" ]
          ~doc:
            "Run the hostile-guest chaos matrix instead of the fault sweep: \
             every cell races the attach (and each crash point) against a \
             seeded adversarial guest mutating scanned structures, \
             ballooning scanned pages, corrupting virtqueue descriptors or \
             churning memory from inside.")
  in
  let metrics_out =
    opt_string "metrics-out" ~docv:"FILE"
      ~doc:"Write the sweep.* counters (points, oracle verdicts, leaked \
            fds) as JSON."
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Kill the attach at every yield point under every fault class and \
          assert full rollback (crash-point sweep gate)")
    Term.(
      const run $ verbose $ vms $ seed $ classes $ hostile $ metrics_out
      $ log_level_arg)

(* --- fleet --- *)

(* Bake a boot-once baseline image and persist it; [vmsh fleet
   --from-baseline FILE] then stands every session up as a CoW fork. *)
let bake_baseline_cmd =
  let run seed hostname out =
    let img = Fleet.Baseline.bake ~seed ~hostname () in
    if writing (fun () -> Fleet.Baseline.save img ~path:out) = None then exit 1;
    Printf.printf "baked baseline (kernel %s, hostname %s, digest %s) to %s\n"
      (Linux_guest.Kernel_version.to_string (Fleet.Baseline.version img))
      (Fleet.Baseline.hostname img)
      (Fleet.Baseline.digest img)
      out
  in
  let seed =
    opt_int "seed" 0xba5e ~docv:"S" ~doc:"Seed for the baseline's boot host."
  in
  let hostname =
    Arg.(
      value & opt string "baseline"
      & info [ "hostname" ] ~docv:"H"
          ~doc:"Hostname frozen into the baseline (forks that keep it copy \
                zero pages).")
  in
  let out =
    Arg.(
      value & opt string "baseline.vmshbase"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output image file.")
  in
  Cmd.v
    (Cmd.info "bake-baseline"
       ~doc:
         "Boot one machine to the attach-ready point and freeze it as a \
          forkable baseline image")
    Term.(const run $ seed $ hostname $ out)

let fleet_cmd =
  let run verbose vms seed fault_rate no_share from_baseline metrics_out
      trace_out log_level =
    let cfg =
      Fleet.Config.make ~vms ()
      |> Fleet.Config.with_seed seed
      |> Fleet.Config.with_fault_rate fault_rate
      |> Fleet.Config.with_share_symbols (not no_share)
    in
    let cfg =
      match log_level with
      | Some l -> Fleet.Config.with_log_level l cfg
      | None -> cfg
    in
    let cfg =
      match from_baseline with
      | None -> cfg
      | Some path -> (
          match Fleet.Baseline.load ~path with
          | Ok img ->
              Fleet.Config.with_boot_source (Fleet.Config.Fork_of img) cfg
          | Error e ->
              Printf.eprintf "fleet: %s\n" (Vmsh.Vmsh_error.to_string e);
              exit 2)
    in
    let r =
      match Fleet.run cfg with
      | Ok r -> r
      | Error e ->
          Printf.eprintf "fleet: %s\n" (Vmsh.Vmsh_error.to_string e);
          exit 2
    in
    let failures =
      List.filter
        (fun s -> Result.is_error s.Fleet.s_result)
        r.Fleet.r_sessions
    in
    if verbose then
      List.iter
        (fun s ->
          Printf.printf "%-6s %-9s attach=%8.2f ms total=%8.2f ms%s\n"
            s.Fleet.s_name
            (match s.Fleet.s_result with Ok () -> "attached" | Error _ -> "FAILED")
            (s.Fleet.s_attach_ns /. 1e6)
            (s.Fleet.s_total_ns /. 1e6)
            (match s.Fleet.s_result with Ok () -> "" | Error e -> " (" ^ e ^ ")"))
        r.Fleet.r_sessions;
    Printf.printf
      "fleet: %d/%d attached, %d scheduler slices, symbol cache %d hits / %d \
       misses\n"
      (vms - List.length failures)
      vms r.Fleet.r_yields r.Fleet.r_cache_hits r.Fleet.r_cache_misses;
    let p50 = Fleet.attach_p r 0.50 and p99 = Fleet.attach_p r 0.99 in
    if not (Float.is_nan p50) then
      Printf.printf "attach latency: p50 %.2f ms, p99 %.2f ms (virtual)\n"
        (p50 /. 1e6) (p99 /. 1e6);
    if r.Fleet.r_forked then begin
      let f50 = Fleet.fork_p r 0.50 and f99 = Fleet.fork_p r 0.99 in
      if not (Float.is_nan f50) then
        Printf.printf "fork latency:   p50 %.2f us, p99 %.2f us (virtual)\n"
          (f50 /. 1e3) (f99 /. 1e3)
    end;
    (* one merged document: fleet-wide aggregates (every session's
       counters and histogram samples folded together) plus the
       per-session breakdown *)
    output_file "fleet metrics" metrics_out (fun path ->
        contents (Fleet.metrics_json r) path);
    output_file "fleet schedule" trace_out (contents r.Fleet.r_schedule);
    (* clean runs must attach everything; under injected faults a clean
       per-session failure is an expected outcome *)
    if fault_rate = 0.0 && failures <> [] then begin
      List.iter
        (fun s ->
          Printf.eprintf "%s: %s\n" s.Fleet.s_name
            (match s.Fleet.s_result with Error e -> e | Ok () -> ""))
        failures;
      exit 1
    end
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-session lines.") in
  let vms =
    opt_int "vms" 8 ~docv:"N" ~doc:"Number of concurrent attach sessions."
  in
  let seed =
    opt_int "seed" 7 ~docv:"S"
      ~doc:"Base seed; every per-session host derives its own stream."
  in
  let fault_rate =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Arm an independent per-session fault plan at this rate.")
  in
  let no_share =
    Arg.(
      value & flag
      & info [ "no-share-symbols" ]
          ~doc:"Disable the shared build-id symbol cache (every session \
                pays the full binary analysis).")
  in
  let from_baseline =
    opt_string "from-baseline" ~docv:"FILE"
      ~doc:"Fork every session from this baked baseline image (see \
            $(b,vmsh bake-baseline)) through per-page copy-on-write \
            overlays instead of cold-booting it."
  in
  let metrics_out =
    opt_string "metrics-out" ~docv:"FILE"
      ~doc:"Write attach-latency histograms and cache counters as JSON \
            (forked runs also carry fleet.fork_ns and the overlay.* \
            occupancy counters)."
  in
  let trace_out =
    opt_string "trace-out" ~docv:"FILE"
      ~doc:"Write the scheduler's slice-by-slice interleaving (byte-\
            identical across runs with the same seed)."
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Attach to N VMs concurrently over virtual time with a shared \
          symbol cache")
    Term.(
      const run $ verbose $ vms $ seed $ fault_rate $ no_share $ from_baseline
      $ metrics_out $ trace_out $ log_level_arg)

(* --- serve --- *)

(* The long-running-service verb: feed a seeded open-loop arrival
   stream of attach/detach/sweep/fuzz jobs through per-tenant admission
   into a bounded worker pool, all on the virtual-time scheduler. *)

let serve_cmd =
  let module D = Service.Dispatch in
  let run verbose workers jobs seed rate arrivals deadline_ms ram_mb
      hot_rate hostile_tenant metrics_out results_out trace_out log_level =
    require_positive "serve" "workers" workers;
    let hostile_tenant =
      match hostile_tenant with
      | None -> None
      | Some spec -> (
          match String.index_opt spec ':' with
          | None ->
              Printf.eprintf
                "serve: --hostile-tenant wants TENANT:CLASS, got %S\n" spec;
              exit 2
          | Some i ->
              let tenant = String.sub spec 0 i in
              let cls =
                String.sub spec (i + 1) (String.length spec - i - 1)
              in
              ignore (hostile_class "serve" cls);
              Some (tenant, cls))
    in
    let arrivals =
      match D.arrivals_of_string arrivals with
      | Some a -> a
      | None ->
          Printf.eprintf
            "serve: unknown arrival profile %S (try poisson, bursty, ramp)\n"
            arrivals;
          exit 2
    in
    let tenants =
      List.map
        (fun tc ->
          if tc.Service.Admission.tc_name = "t0" then
            { tc with Service.Admission.tc_rate = hot_rate }
          else tc)
        D.default_tenants
    in
    let cfg =
      {
        D.default_config with
        D.workers;
        jobs;
        seed;
        rate;
        arrivals;
        tenants;
        hostile_tenant;
        deadline_ns = deadline_ms *. 1e6;
        ram_mb;
        log_level;
      }
    in
    let r = D.run cfg in
    let mx = Observe.metrics r.D.rp_host.H.Host.observe in
    let shed, expired =
      Array.fold_left
        (fun (s, x) jr ->
          match jr.D.jr_status with
          | Service.Job.Shed _ -> (s + 1, x)
          | Service.Job.Expired _ -> (s, x + 1)
          | _ -> (s, x))
        (0, 0) r.D.rp_records
    in
    Printf.printf "serve: %d jobs over %d tenants, %d workers (%s arrivals at %.0f/s)\n"
      jobs
      (List.length cfg.D.tenants)
      workers (D.arrivals_to_string arrivals) rate;
    List.iter
      (fun (name, st) ->
        Printf.printf
          "  %-4s submitted %4d  admitted %4d  shed %d (rate %d, queue %d, \
           evicted %d)\n"
          name st.Service.Admission.ts_submitted st.Service.Admission.ts_admitted
          (st.Service.Admission.ts_shed_rate
          + st.Service.Admission.ts_shed_queue
          + st.Service.Admission.ts_shed_evicted)
          st.Service.Admission.ts_shed_rate st.Service.Admission.ts_shed_queue
          st.Service.Admission.ts_shed_evicted)
      r.D.rp_stats;
    let h = Observe.Metrics.histogram mx "service.e2e_ns" in
    if Observe.Metrics.count h > 0 then
      Printf.printf
        "e2e latency: p50 %.2f ms, p99 %.2f ms, p999 %.2f ms (virtual, %d \
         jobs ran)\n"
        (Observe.Metrics.percentile h 50. /. 1e6)
        (Observe.Metrics.percentile h 99. /. 1e6)
        (Observe.Metrics.percentile h 99.9 /. 1e6)
        (Observe.Metrics.count h);
    Printf.printf
      "completed %d  failed %d  shed %d  expired %d  makespan %.1f ms  \
       throughput %.0f jobs/s (virtual)\n"
      (D.completed r) (D.failed r) shed expired
      (r.D.rp_makespan_ns /. 1e6)
      (if r.D.rp_makespan_ns > 0. then
         float_of_int (D.completed r) /. (r.D.rp_makespan_ns /. 1e9)
       else 0.);
    if verbose then
      Array.iter
        (fun jr ->
          let j = jr.D.jr_job in
          Printf.printf "  job %4d %-4s %-24s %s\n" j.Service.Job.id
            j.Service.Job.tenant
            (Service.Job.kind_to_string j.Service.Job.kind)
            (Service.Job.status_to_string jr.D.jr_status))
        r.D.rp_records;
    output_file "serve metrics" metrics_out (fun path ->
        contents (D.metrics_json r) path);
    output_file "serve results" results_out (fun path ->
        contents (D.results_jsonl r) path);
    output_file "admission flight recording" trace_out (fun path ->
        Trace.save r.D.rp_host.H.Host.recorder path);
    if D.failed r > 0 || r.D.rp_leaked_workers > 0 then begin
      Array.iter
        (fun jr ->
          match jr.D.jr_status with
          | Service.Job.Failed e ->
              Printf.eprintf "job %d: %s\n" jr.D.jr_job.Service.Job.id e
          | _ -> ())
        r.D.rp_records;
      if r.D.rp_leaked_workers > 0 then
        Printf.eprintf "serve: %d workers still busy after drain\n"
          r.D.rp_leaked_workers;
      exit 1
    end
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"One line per job.")
  in
  let workers =
    opt_int "workers" 8 ~docv:"K"
      ~doc:"Bounded worker pool size: at most K job sessions run \
            concurrently on the virtual-time scheduler."
  in
  let jobs =
    opt_int "jobs" 1000 ~docv:"N" ~doc:"Length of the arrival stream."
  in
  let seed =
    opt_int "seed" 17 ~docv:"S"
      ~doc:"Seeds the arrival process and every job's machine; the whole \
            run is a deterministic function of it."
  in
  let rate =
    Arg.(
      value & opt float 600.
      & info [ "rate" ] ~docv:"R"
          ~doc:"Mean offered load in jobs per virtual second (open loop).")
  in
  let arrivals =
    Arg.(
      value & opt string "poisson"
      & info [ "arrivals" ] ~docv:"P"
          ~doc:"Arrival profile: poisson, bursty (batches of 8), or ramp \
                (0.25x to 1.75x of --rate across the run).")
  in
  let deadline_ms =
    Arg.(
      value & opt float 0.
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-job relative deadline in virtual milliseconds; a job \
                still queued past it is dropped with Deadline_exceeded. 0 \
                disables.")
  in
  let ram_mb =
    opt_int "ram-mb" 32 ~docv:"MB"
      ~doc:"Guest RAM per job VM (bounds the real memory of K \
            concurrent sessions)."
  in
  let hot_rate =
    Arg.(
      value & opt float 120.
      & info [ "hot-rate" ] ~docv:"R"
          ~doc:"Token-bucket rate (jobs/s) of the hot tenant t0, which \
                carries over half the arrival share: arrivals beyond this \
                are shed at admission.")
  in
  let hostile_tenant =
    opt_string "hostile-tenant" ~docv:"TENANT:CLASS"
      ~doc:"Turn every job of TENANT into an adversarial-guest attach \
            of the named hostile class (e.g. t3:desc-chaos): the \
            misbehaving tenant's guests race their own attaches while \
            the other tenants' streams run unchanged."
  in
  let metrics_out =
    opt_string "metrics-out" ~docv:"FILE"
      ~doc:"Write the merged service metrics (latency histograms, \
            queue-depth gauges, admission/shed counters, per-stage \
            aggregates over every job session) as JSON."
  in
  let results_out =
    opt_string "results-out" ~docv:"FILE"
      ~doc:"Write the durable per-job result log (JSON lines, one \
            object per job in id order)."
  in
  let trace_out =
    opt_string "trace-out" ~docv:"FILE"
      ~doc:"Write the frontend's admission flight recording \
            (service.enqueue/admit/shed events) as .vmshtrace."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run vmsh as a long-running job service: seeded arrival stream, \
          per-tenant admission and backpressure, bounded worker pool")
    Term.(
      const run $ verbose $ workers $ jobs $ seed $ rate $ arrivals
      $ deadline_ms $ ram_mb $ hot_rate $ hostile_tenant $ metrics_out
      $ results_out
      $ trace_out $ log_level_arg)

(* --- trace --- *)

(* The flight-recorder verb: record a scenario as a .vmshtrace file,
   replay one deterministically and diff, or inspect an artifact a
   failed sweep/fuzz/fleet run left behind. *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"A .vmshtrace flight recording.")

let trace_record_cmd =
  let run scenario seed vms from_baseline cls k hostile out log_level =
    let spec =
      match scenario with
      | "attach" -> Replay.Attach { seed }
      | "fleet" -> Replay.Fleet_run { seed; vms; from_baseline }
      | "sweep" | "sweep-cell" ->
          Replay.Sweep_cell { seed; cls; k; hostile; from_baseline }
      | s ->
          Printf.eprintf
            "trace record: unknown scenario %S (try attach, fleet or sweep)\n" s;
          exit 2
    in
    match writing (fun () -> Replay.record ?log_level spec ~path:out) with
    | None -> exit 1
    | Some (Error e) ->
        Printf.eprintf "trace record: %s\n" e;
        exit 1
    | Some (Ok r) ->
        Printf.printf "recorded %d events (guest digest %s) to %s\n"
          (List.length r.Replay.run_events)
          r.Replay.run_digest out
  in
  let scenario =
    Arg.(
      value & opt string "attach"
      & info [ "scenario" ] ~docv:"S"
          ~doc:"What to run and record: attach, fleet, or sweep (one cell).")
  in
  let seed =
    opt_int "seed" 5 ~docv:"N" ~doc:"Scenario seed (fleet default is 7)."
  in
  let vms =
    opt_int "vms" 8 ~docv:"N" ~doc:"Fleet size (fleet scenario only)."
  in
  let from_baseline =
    Arg.(
      value & flag
      & info [ "from-baseline" ]
          ~doc:"Fork the fleet's sessions (or the sweep cell's machine) from \
                a deterministically re-baked baseline instead of \
                cold-booting them (fleet and sweep scenarios; the replay \
                re-bakes the identical image).")
  in
  let cls =
    Arg.(
      value & opt string "fault-free"
      & info [ "class" ] ~docv:"CLS"
          ~doc:"Fault class of the sweep cell (sweep scenario only).")
  in
  let k =
    opt_int "k" (-1) ~docv:"K"
      ~doc:"Abort-at-yield index of the sweep cell; -1 is the probe \
            (sweep scenario only)."
  in
  let hostile =
    Arg.(
      value & opt string ""
      & info [ "hostile" ] ~docv:"CLASS"
          ~doc:
            "Adversarial-guest class attacking the sweep cell (sweep \
             scenario only; empty = no adversary).")
  in
  let out =
    Arg.(
      value & opt string "out.vmshtrace"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a deterministic scenario and save its flight recording")
    Term.(
      const run $ scenario $ seed $ vms $ from_baseline $ cls $ k $ hostile
      $ out $ log_level_arg)

(* Load a recording for [vmsh trace VERB]; exit 1 if it cannot be read. *)
let load_trace verb file =
  match Trace.load file with
  | Ok f -> f
  | Error e ->
      Printf.eprintf "trace %s: %s\n" verb e;
      exit 1

let trace_replay_cmd =
  let run file log_level =
    let f = load_trace "replay" file in
    match Replay.replay ?log_level f with
    | Error e ->
        Printf.eprintf "trace replay: %s\n" e;
        exit 1
    | Ok [] ->
        let meta k = List.assoc_opt k f.Trace.f_meta in
        if meta "scenario" = Some Fuzz.mutant_scenario then
          Printf.printf
            "mutant re-executes to its recorded verdict (%s; %d base events)\n"
            (Option.value (meta "verdict") ~default:"?")
            (List.length f.Trace.f_events)
        else
          Printf.printf
            "replay matches recording: %d events, guest digest identical\n"
            (List.length f.Trace.f_events)
    | Ok lines ->
        List.iter (Printf.eprintf "replay-diff: %s\n") lines;
        exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a recording's scenario deterministically and diff the two \
          event streams and guest digests")
    Term.(const run $ trace_file_arg $ log_level_arg)

let trace_dump_cmd =
  let run file limit =
    let f = load_trace "dump" file in
    List.iter (fun (k, v) -> Printf.printf "# %s = %s\n" k v) f.Trace.f_meta;
    if f.Trace.f_dropped > 0 then
      Printf.printf "# dropped = %d\n" f.Trace.f_dropped;
    let n = List.length f.Trace.f_events in
    List.iteri
      (fun i e ->
        if limit <= 0 || i < limit then Format.printf "%a@." Trace.pp_event e)
      f.Trace.f_events;
    if limit > 0 && n > limit then
      Printf.printf "... %d more events (raise --limit)\n" (n - limit)
  in
  let limit =
    opt_int "limit" 0 ~docv:"N"
      ~doc:"Print at most N events (0 = everything)."
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print a recording's metadata and events")
    Term.(const run $ trace_file_arg $ limit)

let trace_stat_cmd =
  let run file =
    let f = load_trace "stat" file in
    Printf.printf "%d events (%d dropped at record time)\n"
      (List.length f.Trace.f_events)
      f.Trace.f_dropped;
    List.iter
      (fun (kind, n) -> Printf.printf "%8d  %s\n" n kind)
      (Trace.stat f.Trace.f_events)
  in
  Cmd.v
    (Cmd.info "stat" ~doc:"Per-event-kind counts of a recording")
    Term.(const run $ trace_file_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Record, replay and inspect hypervisor-boundary flight recordings \
          (.vmshtrace)")
    [ trace_record_cmd; trace_replay_cmd; trace_dump_cmd; trace_stat_cmd ]

let () =
  let info =
    Cmd.info "vmsh" ~version:"0.1.0"
      ~doc:"Hypervisor-agnostic guest overlays for VMs (simulated reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            attach_cmd; matrix_cmd; debloat_cmd; rescue_cmd; monitor_cmd;
            fuzz_cmd; fleet_cmd; bake_baseline_cmd; sweep_cmd; serve_cmd;
            trace_cmd;
          ]))
