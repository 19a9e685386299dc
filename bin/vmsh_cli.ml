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
open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

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

let log_level_arg =
  Arg.(
    value
    & opt (some log_level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Structured, virtual-time-stamped stderr logging: quiet, info or \
           debug. Default quiet (stderr byte-identical to a build without \
           logging).")

let boot_vm_on h ~profile ~version =
  Fleet.Machine.cold_boot h ~profile ~version ~hostname:"cli-vm"

let boot_vm ~profile ~version ~seed =
  let h = H.Host.create ~seed () in
  let vmm, g = boot_vm_on h ~profile ~version in
  (h, vmm, g)

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

let write_observe_outputs h ~trace_out ~metrics_out =
  let obs = h.H.Host.observe in
  let ok = ref true in
  let write path data =
    match open_out path with
    | oc ->
        output_string oc data;
        close_out oc;
        true
    | exception Sys_error msg ->
        Printf.eprintf "vmsh: cannot write output: %s\n" msg;
        ok := false;
        false
  in
  (match trace_out with
  | None -> ()
  | Some path ->
      if write path (Observe.Export.chrome_trace obs) then
        Printf.printf
          "trace written to %s (load it in Perfetto or chrome://tracing)\n" path);
  (match metrics_out with
  | None -> ()
  | Some path ->
      snapshot_clock_metrics h;
      if write path (Observe.Export.metrics_json obs) then
        Printf.printf "metrics written to %s\n" path);
  !ok

let attach_cmd =
  let run verbose profile version transport commands net_echo detach_after
      hostile trace_out metrics_out log_level =
    setup_logs verbose;
    let hostile =
      Option.map
        (fun s ->
          match Hostile.of_name s with
          | Some c -> c
          | None ->
              Printf.eprintf "attach: unknown hostile class %S (one of: %s)\n"
                s
                (String.concat ", " (List.map Hostile.name Hostile.all));
              exit 2)
        hostile
    in
    let h, vmm, g = boot_vm ~profile ~version ~seed:11 in
    let obs = h.H.Host.observe in
    Option.iter (Observe.set_log_level obs) log_level;
    if verbose || trace_out <> None || metrics_out <> None then
      Observe.enable obs;
    if verbose then
      Observe.set_listener obs
        (Some (fun e -> Format.eprintf "%a@." Observe.Export.pp_event e));
    Observe.instant obs ~name:"cli.booted" ();
    Printf.printf "booted %s with guest kernel v%s (hypervisor pid %d)\n"
      profile.Profile.prof_name (KV.to_string version) (Vmm.pid vmm);
    let net =
      if net_echo > 0 then
        Some (Workloads.Traffic.make_network h ~mode:Workloads.Traffic.Echo ())
      else None
    in
    let config =
      let c =
        Vmsh.Attach.Config.with_transport transport
          (Vmsh.Attach.Config.make ())
      in
      match net with
      | Some (fabric, port) ->
          Vmsh.Attach.Config.with_net { Vmsh.Attach.fabric; port } c
      | None -> c
    in
    (* an adversarial guest races the attach from inside: one seeded
       engine step at every cooperative yield point of the attach path *)
    let config =
      match hostile with
      | None -> config
      | Some cls ->
          let plan = Faults.create ~seed:11 ~rate:0.0 () in
          let eng = Hostile.create ~seed:11 ~cls vmm in
          Faults.set_on_yield plan (Some (fun _ -> Hostile.step eng));
          Printf.printf "hostile guest armed: %s\n" (Hostile.name cls);
          Vmsh.Attach.Config.with_faults plan config
    in
    let before =
      if detach_after then Some (Vmsh.Snapshot.capture (Vmm.kvm_vm vmm))
      else None
    in
    match
      Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
        ~fs_image:(Fleet.Machine.tools_image h.H.Host.clock)
        ~config
        ~pump:(fun () -> Vmm.run_until_idle vmm)
        ()
    with
    | Error e ->
        ignore (write_observe_outputs h ~trace_out ~metrics_out);
        Printf.eprintf "attach failed: %s\n" (Vmsh.Vmsh_error.to_string e);
        exit 1
    | Ok session ->
        Observe.instant obs ~name:"cli.attached" ();
        let anal = Vmsh.Attach.analysis session in
        Printf.printf
          "attached (%s): kernel at 0x%x, %d symbols, ksymtab layout %s\n"
          (Vmsh.Devices.show_transport transport)
          anal.Vmsh.Symbol_analysis.kernel_base
          (List.length anal.Vmsh.Symbol_analysis.symbols)
          (match anal.Vmsh.Symbol_analysis.layout with
          | KV.Prel32 -> "prel32"
          | KV.Absolute_value_first -> "absolute (value first)"
          | KV.Absolute_name_first -> "absolute (name first)");
        ignore (Vmsh.Attach.console_recv session);
        let commands = if commands = [] then [ "ls /"; "hostname"; "ps" ] else commands in
        List.iter
          (fun cmd ->
            Printf.printf "vmsh> %s\n%s" cmd
              (Vmsh.Attach.console_roundtrip session cmd))
          commands;
        if net_echo > 0 then begin
          let r =
            Workloads.Traffic.run_client vmm g ~requests:net_echo
              ~payload_size:64 ~mode:Workloads.Traffic.Echo ()
          in
          Format.printf "net echo over vmsh-net: %a@."
            Workloads.Traffic.pp_result r
        end;
        (* grab the journal's late-write intervals before detach replays
           and drops the log *)
        let late_writes =
          match Vmsh.Attach.journal session with
          | Some j -> Vmsh.Journal.late_writes j
          | None -> []
        in
        (match Vmsh.Attach.detach session with
        | Ok () -> ()
        | Error e ->
            ignore (write_observe_outputs h ~trace_out ~metrics_out);
            Printf.eprintf "detach failed: %s\n" (Vmsh.Vmsh_error.to_string e);
            exit 1);
        Observe.instant obs ~name:"cli.detached" ();
        let oracle_ok =
          match before with
          | None -> true
          | Some snap ->
              let vm = Vmm.kvm_vm vmm in
              let exclude = Vmsh.Snapshot.dirty_since vm snap @ late_writes in
              let problems =
                Vmsh.Snapshot.diff ~before:snap
                  ~after:(Vmsh.Snapshot.capture vm) ~exclude
              in
              (match problems with
              | [] ->
                  Printf.printf
                    "rollback oracle: guest restored byte-for-byte (modulo \
                     guest-dirtied pages)\n"
              | ps ->
                  List.iter (Printf.eprintf "rollback oracle: %s\n") ps);
              problems = []
        in
        let outputs_ok = write_observe_outputs h ~trace_out ~metrics_out in
        Printf.printf "detached; %d block requests served by vmsh-blk\n"
          (Vmsh.Devices.stats_requests (Vmsh.Attach.devices session));
        if not (outputs_ok && oracle_ok) then exit 1
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logs.") in
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
    Arg.(
      value
      & opt int 0
      & info [ "net-echo" ] ~docv:"N"
          ~doc:
            "Cable the side-loaded virtio-net NIC to a simulated network \
             and run N echo request/response round-trips after the shell \
             commands.")
  in
  let detach_after =
    Arg.(
      value & flag
      & info [ "detach-after" ]
          ~doc:
            "Snapshot guest memory and vCPU registers before attaching and \
             verify after detach that the journal replay restored the guest \
             byte-for-byte (modulo pages the guest itself dirtied); exit 1 \
             if the oracle finds a discrepancy.")
  in
  let hostile =
    Arg.(
      value
      & opt (some string) None
      & info [ "hostile" ] ~docv:"CLASS"
          ~doc:
            "Attach while a seeded adversarial guest attacks from inside \
             (toctou-scan, balloon, desc-chaos or mem-churn); combine with \
             --detach-after to assert the rollback oracle under attack.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON of the attach (virtual-ns \
             timestamps; load in Perfetto or chrome://tracing).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write a flat JSON snapshot of counters/gauges/histograms.")
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
    let h, vmm, g = boot_vm ~profile:Profile.qemu ~version:KV.V5_10 ~seed:51 in
    (* some workload to observe *)
    Vmm.in_guest vmm (fun () ->
        ignore
          (Guest.spawn_container g ~name:"web"
             ~image:[ ("/etc/nginx.conf", "worker_processes 4;\n") ]));
    match Usecases.Monitor.collect h ~vmm with
    | Error e ->
        Printf.eprintf "monitor failed: %s\n" e;
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
    let h, vmm, g = boot_vm ~profile:Profile.qemu ~version:KV.V5_10 ~seed:41 in
    Vmm.in_guest vmm (fun () ->
        ignore
          (Guest.file_write g ~ns:(Guest.root_ns g) "/etc/shadow"
             (Bytes.of_string (user ^ ":$6$lost$00000000:19000:0:99999:7:::\n"))));
    match Usecases.Rescue.reset_password h ~vmm ~user ~password with
    | Error e ->
        Printf.eprintf "rescue failed: %s\n" e;
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

(* The deterministic fault-matrix sweep: one seeded fault schedule per
   seed, each exercising the full attach path (boot, ptrace attach,
   injected syscalls, remote memory, device side-load, echo traffic over
   the side-loaded NIC with bursty link loss). Every attach must either
   complete or fail cleanly with a diagnosable error; because every
   retry loop in the substrate is bounded, a run that exceeds the
   virtual-time budget is reported as a hang. *)

let fuzz_echo_requests = 20

type fuzz_outcome =
  | Fuzz_completed
  | Fuzz_clean_fail of string
  | Fuzz_unclean of string
  | Fuzz_hang

let outcome_label = function
  | Fuzz_completed -> "completed"
  | Fuzz_clean_fail _ -> "clean-fail"
  | Fuzz_unclean _ -> "UNCLEAN"
  | Fuzz_hang -> "HANG"

let fuzz_one ?log_level ~seed ~rate ~trace () =
  let plan = Faults.create ~seed ~rate () in
  (* Boost one class per seed to certainty (with a small cap so bounded
     retries still win): 25 seeds sweep all 7 classes several times over
     while the background rate keeps every other class in play. *)
  let boosted = List.nth Faults.all (seed mod List.length Faults.all) in
  Faults.set_class plan boosted ~rate:1.0 ~cap:2;
  let h = H.Host.create ~seed:(0xf0 + seed) () in
  (* the recipe a failure artifact needs to be replayed without us *)
  List.iter
    (fun (k, v) -> Trace.Recorder.set_meta h.H.Host.recorder k v)
    [
      ("scenario", "fuzz");
      ("fuzz-seed", string_of_int seed);
      ("rate", string_of_float rate);
    ];
  Option.iter (Observe.set_log_level h.H.Host.observe) log_level;
  H.Host.arm_faults h plan;
  if trace then Observe.enable h.H.Host.observe;
  let outcome =
    match
      let vmm, g = boot_vm_on h ~profile:Profile.qemu ~version:KV.V5_10 in
      let net =
        Workloads.Traffic.make_network h ~mode:Workloads.Traffic.Echo ()
      in
      let config =
        let fabric, port = net in
        Vmsh.Attach.Config.(make () |> with_net { Vmsh.Attach.fabric; port })
      in
      match
        Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
          ~fs_image:(Fleet.Machine.tools_image h.H.Host.clock)
          ~config
          ~pump:(fun () -> Vmm.run_until_idle vmm)
          ()
      with
      | Error e -> Fuzz_clean_fail (Vmsh.Vmsh_error.to_string e)
      | Ok session ->
          ignore (Vmsh.Attach.console_recv session);
          let out = Vmsh.Attach.console_roundtrip session "hostname" in
          let echo =
            Workloads.Traffic.run_client vmm g ~requests:fuzz_echo_requests
              ~payload_size:64 ~mode:Workloads.Traffic.Echo ()
          in
          (match Vmsh.Attach.detach session with
          | Error e -> Fuzz_unclean ("detach: " ^ Vmsh.Vmsh_error.to_string e)
          | Ok () ->
              if String.length out = 0 then
                Fuzz_unclean "console dead after attach (guest state corrupted?)"
              else if
                echo.Workloads.Traffic.completed = 0
                && Faults.injected plan Faults.Link_burst = 0
              then Fuzz_unclean "echo made no progress despite a clean link"
              else Fuzz_completed)
    with
    | outcome -> outcome
    | exception e -> Fuzz_unclean (Printexc.to_string e)
  in
  let outcome =
    if H.Clock.now_ns h.H.Host.clock > Fleet.Session.budget_ns then Fuzz_hang
    else outcome
  in
  (h, plan, boosted, outcome)

(* --- fuzz --from-trace: trace-mutation campaigns --- *)

(* The session a mutation chain perturbs — the session of its first
   site in the base stream. A fleet recording interleaves sessions;
   the attack re-runs the one the mutation touched. *)
let mutation_session base (ms : Fuzz.mutation list) =
  let arr = Array.of_list base in
  match ms with
  | m :: _ when m.Fuzz.m_at >= 0 && m.Fuzz.m_at < Array.length arr ->
      arr.(m.Fuzz.m_at).Trace.session
  | _ -> 0

(* A corpus entry or reproducer is a .vmshtrace holding the base-recipe
   prefix the chain applies to, with the chain itself (and the verdict)
   in the metadata — [vmsh trace replay] rebuilds the mutant and
   re-executes the attack from the file alone. *)
let write_mutant_trace ~path ~base_meta ~base_events ~muts ~verdict =
  let events = Fuzz.truncate_base base_events muts in
  let meta =
    Fuzz.mutant_meta ~base_meta ~muts ~prefix:(List.length events) ~verdict
  in
  let oc = open_out_bin path in
  output_string oc (Trace.encode ~meta events);
  close_out oc

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (if l = "" then acc else l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  end

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* Build the executor the campaign judges protocol-consistent mutants
   with: lower the chain to a scripted fault plan and re-run the
   recipe's attach for real, oracle live. *)
let attack_executor ?log_level ~base ~spec () =
  let virtual_ns = ref 0.0 in
  let noops = ref 0 in
  let execute _mutant muts =
    let plan = Faults.create ~seed:0 ~rate:0.0 () in
    Faults.set_script plan (Fuzz.script_of_mutations base muts);
    Faults.set_skew_script plan (Fuzz.skew_script_of_mutations base muts);
    noops := !noops + Fuzz.lowering_noops muts;
    let session = mutation_session base muts in
    let atk = Replay.execute_attack ?log_level ~session ~plan spec in
    virtual_ns := !virtual_ns +. atk.Replay.at_virtual_ns;
    atk.Replay.at_verdict
  in
  (execute, virtual_ns, noops)

let fuzz_from_trace ?log_level ~file ~rounds ~seed ~corpus ~minimize
    ~metrics_out () =
  let f =
    match Trace.load file with
    | Ok f -> f
    | Error e ->
        Printf.eprintf "fuzz: %s\n" e;
        exit 1
  in
  let spec =
    match Replay.spec_of_meta f.Trace.f_meta with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "fuzz: %s\n" e;
        exit 1
  in
  let base = f.Trace.f_events in
  (match Fuzz.validate base with
  | [] -> ()
  | p :: _ ->
      Printf.eprintf "fuzz: base recording violates the protocol model: %s\n" p;
      exit 1);
  let seen =
    match corpus with
    | Some dir -> read_lines (Filename.concat dir "coverage.txt")
    | None -> []
  in
  let execute, _, lowering_noops = attack_executor ?log_level ~base ~spec () in
  let rep =
    Fuzz.run_campaign ~base ~seed ~rounds ~minimize_bugs:minimize ~seen
      ~execute ()
  in
  (* the verdict ledger: one deterministic line per mutant *)
  let ledger =
    List.map
      (fun (r : Fuzz.round_result) ->
        Printf.sprintf "round=%d op=%s chain=%d verdict=%s new-keys=%d muts=%s"
          r.Fuzz.rr_round
          (Fuzz.mutator_name r.Fuzz.rr_op)
          (List.length r.Fuzz.rr_muts)
          (Faults.Abort.label r.Fuzz.rr_verdict)
          r.Fuzz.rr_new_keys
          (Fuzz.mutations_to_string r.Fuzz.rr_muts))
      rep.Fuzz.fz_rounds
  in
  List.iter print_endline ledger;
  (* persist the corpus: coverage keys, the ledger, kept mutants and
     minimized reproducers, all deterministic functions of (trace,
     seed) so a double run is byte-identical *)
  (match corpus with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      write_lines (Filename.concat dir "coverage.txt") rep.Fuzz.fz_coverage;
      write_lines (Filename.concat dir "ledger.txt") ledger;
      List.iter
        (fun (r : Fuzz.round_result) ->
          if r.Fuzz.rr_new_keys > 0 && not (Faults.Abort.is_bug r.Fuzz.rr_verdict)
          then
            write_mutant_trace
              ~path:
                (Filename.concat dir
                   (Printf.sprintf "mutant-%d.vmshtrace" r.Fuzz.rr_round))
              ~base_meta:f.Trace.f_meta ~base_events:base ~muts:r.Fuzz.rr_muts
              ~verdict:r.Fuzz.rr_verdict;
          match r.Fuzz.rr_minimized with
          | None -> ()
          | Some min_muts ->
              (* the reproducer carries the minimized chain's own
                 verdict (recomputed — minimization can land on a
                 different failure message than the full chain) *)
              let mutant = Fuzz.apply_all base min_muts in
              let verdict =
                match Fuzz.validate mutant with
                | p :: _ -> Faults.Abort.Clean_abort ("protocol: " ^ p)
                | [] -> execute mutant min_muts
              in
              write_mutant_trace
                ~path:
                  (Filename.concat dir
                     (Printf.sprintf "repro-%d.vmshtrace" r.Fuzz.rr_round))
                ~base_meta:f.Trace.f_meta ~base_events:base ~muts:min_muts
                ~verdict)
        rep.Fuzz.fz_rounds);
  (match metrics_out with
  | None -> ()
  | Some path ->
      let sobs = Observe.create ~now:(fun () -> 0.0) () in
      let sm = Observe.metrics sobs in
      let set name v =
        Observe.Metrics.set_counter (Observe.Metrics.counter sm name) v
      in
      set "fuzz.mutants_run" rep.Fuzz.fz_mutants_run;
      set "fuzz.survived" rep.Fuzz.fz_survived;
      set "fuzz.clean_aborts" rep.Fuzz.fz_clean_aborts;
      set "fuzz.bugs" rep.Fuzz.fz_bugs;
      set "fuzz.minimized_bugs" rep.Fuzz.fz_minimized_bugs;
      set "fuzz.hangs" rep.Fuzz.fz_hangs;
      set "fuzz.corpus.kept" rep.Fuzz.fz_corpus_kept;
      set "fuzz.corpus.ngrams" (List.length rep.Fuzz.fz_coverage);
      set "fuzz.lowering.noop" !lowering_noops;
      List.iter
        (fun (op, n) -> set ("fuzz.mutator_fired." ^ Fuzz.mutator_name op) n)
        rep.Fuzz.fz_mutator_fired;
      let oc = open_out path in
      output_string oc (Observe.Export.metrics_json sobs);
      close_out oc;
      Printf.printf "fuzz metrics written to %s\n" path);
  Printf.printf
    "fuzz --from-trace: %d mutants, %d survived, %d clean aborts, %d bugs \
     (%d minimized), %d hangs, corpus +%d entries / %d n-grams\n"
    rep.Fuzz.fz_mutants_run rep.Fuzz.fz_survived rep.Fuzz.fz_clean_aborts
    rep.Fuzz.fz_bugs rep.Fuzz.fz_minimized_bugs rep.Fuzz.fz_hangs
    rep.Fuzz.fz_corpus_kept
    (List.length rep.Fuzz.fz_coverage);
  if rep.Fuzz.fz_bugs > 0 then exit 1

let fuzz_cmd =
  let run verbose seeds rate metrics_out trace_out trace_seed from_trace
      rounds campaign_seed corpus minimize log_level =
    setup_logs verbose;
    (match from_trace with
    | Some file ->
        if rounds <= 0 then begin
          Printf.eprintf "fuzz: --rounds must be positive\n";
          exit 2
        end;
        fuzz_from_trace ?log_level ~file ~rounds ~seed:campaign_seed ~corpus
          ~minimize ~metrics_out ();
        exit 0
    | None -> ());
    if seeds <= 0 then begin
      Printf.eprintf "fuzz: --seeds must be positive\n";
      exit 2
    end;
    let sobs = Observe.create ~now:(fun () -> 0.0) () in
    let sm = Observe.metrics sobs in
    let scount ?(by = 1) name =
      Observe.Metrics.incr ~by (Observe.Metrics.counter sm name)
    in
    let attach_hist = Observe.Metrics.histogram sm "fuzz.attach_virtual_ns" in
    let hangs = ref 0 and unclean = ref 0 in
    for seed = 0 to seeds - 1 do
      let trace = trace_out <> None && seed = trace_seed in
      let h, plan, boosted, outcome = fuzz_one ?log_level ~seed ~rate ~trace () in
      scount "fuzz.seeds";
      (match outcome with
      | Fuzz_completed -> scount "fuzz.completed"
      | Fuzz_clean_fail _ -> scount "fuzz.clean_failures"
      | Fuzz_unclean _ ->
          incr unclean;
          scount "fuzz.unclean"
      | Fuzz_hang ->
          incr hangs;
          scount "fuzz.hangs");
      (* every fuzz failure leaves a replayable flight recording when
         VMSH_TRACE_DIR is set *)
      (match outcome with
      | Fuzz_unclean _ | Fuzz_hang ->
          ignore
            (Trace.dump_on_failure h.H.Host.recorder
               ~name:(Printf.sprintf "fuzz-seed%d" seed)
               ())
      | Fuzz_completed | Fuzz_clean_fail _ -> ());
      List.iter
        (fun cls ->
          let n = Faults.injected plan cls in
          if n > 0 then begin
            scount ("fuzz.class_seen." ^ Faults.name cls);
            scount ~by:n ("faults.injected." ^ Faults.name cls)
          end)
        Faults.all;
      List.iter
        (fun c ->
          let name = Observe.Metrics.counter_name c in
          if String.length name >= 9 && String.sub name 0 9 = "recovery." then
            scount ~by:(Observe.Metrics.counter_value c) name)
        (Observe.Metrics.counters (Observe.metrics h.H.Host.observe));
      Observe.Metrics.observe attach_hist (H.Clock.now_ns h.H.Host.clock);
      Printf.printf "seed %2d: %-10s boosted=%-13s injected=%2d virtual=%6.1f ms%s\n"
        seed (outcome_label outcome) (Faults.name boosted)
        (Faults.total_injected plan)
        (H.Clock.now_ns h.H.Host.clock /. 1e6)
        (match outcome with
        | Fuzz_clean_fail m | Fuzz_unclean m -> " (" ^ m ^ ")"
        | _ -> "");
      if trace then
        match trace_out with
        | Some path ->
            let oc = open_out path in
            output_string oc (Observe.Export.chrome_trace h.H.Host.observe);
            close_out oc
        | None -> ()
    done;
    (match metrics_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Observe.Export.metrics_json sobs);
        close_out oc;
        Printf.printf "fuzz metrics written to %s\n" path);
    let classes_seen =
      List.length
        (List.filter
           (fun cls ->
             List.exists
               (fun c ->
                 Observe.Metrics.counter_name c
                 = "fuzz.class_seen." ^ Faults.name cls
                 && Observe.Metrics.counter_value c > 0)
               (Observe.Metrics.counters sm))
           Faults.all)
    in
    Printf.printf
      "fuzz: %d seeds, %d hangs, %d unclean failures, %d/%d fault classes seen\n"
      seeds !hangs !unclean classes_seen
      (List.length Faults.all);
    if !hangs > 0 || !unclean > 0 then exit 1
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logs.") in
  let seeds =
    Arg.(
      value & opt int 25
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of fault schedules to sweep.")
  in
  let rate =
    Arg.(
      value & opt float 0.15
      & info [ "rate" ] ~docv:"P"
          ~doc:"Background per-decision fault probability for every class.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the aggregate fuzz metrics (outcomes, per-class \
             injection and recovery counters) as JSON.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace of the schedule chosen by --trace-seed.")
  in
  let trace_seed =
    Arg.(
      value & opt int 0
      & info [ "trace-seed" ] ~docv:"K"
          ~doc:"Which schedule --trace-out captures (default 0).")
  in
  let from_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-trace" ] ~docv:"FILE"
          ~doc:
            "Trace-mutation mode: mutate the recorded .vmshtrace with seeded \
             structure-aware operators and judge every mutant through the \
             causality validator and the live attach pipeline (journal + \
             snapshot oracle). Replaces the --seeds sweep.")
  in
  let rounds =
    Arg.(
      value & opt int 32
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Mutants per campaign (--from-trace mode).")
  in
  let campaign_seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Campaign seed (--from-trace mode); the whole campaign is a \
             deterministic function of (trace bytes, seed, rounds).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Corpus directory (--from-trace mode): pre-loads coverage.txt, \
             then persists coverage, the verdict ledger, kept mutants and \
             minimized reproducers as .vmshtrace files.")
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
      const run $ verbose $ seeds $ rate $ metrics_out $ trace_out $ trace_seed
      $ from_trace $ rounds $ campaign_seed $ corpus $ minimize
      $ log_level_arg)

(* --- sweep --- *)

(* The crash-point sweep gate: for every fault class, learn how many
   cooperative yield points the attach crosses, then kill the attach at
   each one and assert the transaction rolled the guest back. *)

let sweep_cmd =
  let run verbose vms seed classes hostile metrics_out log_level =
    setup_logs verbose;
    if vms <= 0 then begin
      Printf.eprintf "sweep: --vms must be positive\n";
      exit 2
    end;
    let r =
      if hostile then begin
        (* the hostile-guest chaos matrix: --class names select hostile
           classes here, not fault classes *)
        let classes =
          match classes with
          | [] -> None
          | cs ->
              Some
                (List.map
                   (fun s ->
                     match Hostile.of_name s with
                     | Some c -> c
                     | None ->
                         Printf.eprintf
                           "sweep: unknown hostile class %S (one of: %s)\n" s
                           (String.concat ", "
                              (List.map Hostile.name Hostile.all));
                         exit 2)
                   cs)
        in
        Fleet.Sweep.run_hostile ~seed ?classes ~vms ?log_level ()
      end
      else
        let classes =
          match classes with
          | [] -> None
          | cs ->
              Some
                (List.map
                   (fun s ->
                     if s = "fault-free" then None
                     else
                       match Faults.of_name s with
                       | Some c -> Some c
                       | None ->
                           Printf.eprintf
                             "sweep: unknown fault class %S (try fault-free \
                              or: %s)\n"
                             s
                             (String.concat ", "
                                (List.map Faults.name Faults.all));
                           exit 2)
                   cs)
        in
        Fleet.Sweep.run ~seed ?classes ~vms ?log_level ()
    in
    if verbose then
      List.iter
        (fun p -> Format.printf "%a@." Fleet.Sweep.pp_point p)
        r.Fleet.Sweep.sw_points;
    (match metrics_out with
    | None -> ()
    | Some path ->
        let sobs = Observe.create ~now:(fun () -> 0.0) () in
        Fleet.Sweep.record (Observe.metrics sobs) r;
        let oc = open_out path in
        output_string oc (Observe.Export.metrics_json sobs);
        close_out oc;
        Printf.printf "sweep metrics written to %s\n" path);
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
          if p.Fleet.Sweep.pt_oracle <> [] || p.Fleet.Sweep.pt_leaked_fds > 0
             || p.Fleet.Sweep.pt_unclean <> None
          then Format.eprintf "%a@." Fleet.Sweep.pp_point p)
        r.Fleet.Sweep.sw_points;
      exit 1
    end
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"One line per sweep point.")
  in
  let vms =
    Arg.(
      value & opt int 1
      & info [ "vms" ] ~docv:"N"
          ~doc:"Interleave N sweep points concurrently on the virtual-time \
                scheduler (each point still gets its own machine).")
  in
  let seed =
    Arg.(
      value & opt int 5
      & info [ "seed" ] ~docv:"S" ~doc:"Base seed for the per-point hosts.")
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
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the sweep.* counters (points, oracle verdicts, leaked \
                fds) as JSON.")
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
    (match Fleet.Baseline.save img ~path:out with
    | () -> ()
    | exception Sys_error e ->
        Printf.eprintf "bake-baseline: %s\n" e;
        exit 1);
    Printf.printf "baked baseline (kernel %s, hostname %s, digest %s) to %s\n"
      (Linux_guest.Kernel_version.to_string (Fleet.Baseline.version img))
      (Fleet.Baseline.hostname img)
      (Fleet.Baseline.digest img)
      out
  in
  let seed =
    Arg.(
      value & opt int 0xba5e
      & info [ "seed" ] ~docv:"S" ~doc:"Seed for the baseline's boot host.")
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
    setup_logs verbose;
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
    (match metrics_out with
    | None -> ()
    | Some path ->
        (* one merged document: fleet-wide aggregates (every session's
           counters and histogram samples folded together) plus the
           per-session breakdown *)
        let oc = open_out path in
        output_string oc (Fleet.metrics_json r);
        close_out oc;
        Printf.printf "fleet metrics written to %s\n" path);
    (match trace_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc r.Fleet.r_schedule;
        close_out oc;
        Printf.printf "fleet schedule written to %s\n" path);
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
    Arg.(
      value & opt int 8
      & info [ "vms" ] ~docv:"N" ~doc:"Number of concurrent attach sessions.")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"S"
          ~doc:"Base seed; every per-session host derives its own stream.")
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
    Arg.(
      value
      & opt (some string) None
      & info [ "from-baseline" ] ~docv:"FILE"
          ~doc:"Fork every session from this baked baseline image (see \
                $(b,vmsh bake-baseline)) through per-page copy-on-write \
                overlays instead of cold-booting it.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write attach-latency histograms and cache counters as JSON \
                (forked runs also carry fleet.fork_ns and the overlay.* \
                occupancy counters).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the scheduler's slice-by-slice interleaving (byte-\
                identical across runs with the same seed).")
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
    setup_logs verbose;
    if workers <= 0 then begin
      Printf.eprintf "serve: --workers must be positive\n";
      exit 2
    end;
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
              if Hostile.of_name cls = None then begin
                Printf.eprintf
                  "serve: unknown hostile class %S (try %s)\n" cls
                  (String.concat ", " (List.map Hostile.name Hostile.all));
                exit 2
              end;
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
    (match metrics_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (D.metrics_json r);
        close_out oc;
        Printf.printf "serve metrics written to %s\n" path);
    (match results_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (D.results_jsonl r);
        close_out oc;
        Printf.printf "serve results written to %s\n" path);
    (match trace_out with
    | None -> ()
    | Some path ->
        let recorder = r.D.rp_host.H.Host.recorder in
        let oc = open_out_bin path in
        output_string oc
          (Trace.encode
             ~meta:(Trace.Recorder.meta recorder)
             (Trace.Recorder.events recorder));
        close_out oc;
        Printf.printf "admission flight recording written to %s\n" path);
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
    Arg.(
      value & opt int 8
      & info [ "workers" ] ~docv:"K"
          ~doc:"Bounded worker pool size: at most K job sessions run \
                concurrently on the virtual-time scheduler.")
  in
  let jobs =
    Arg.(
      value & opt int 1000
      & info [ "jobs" ] ~docv:"N" ~doc:"Length of the arrival stream.")
  in
  let seed =
    Arg.(
      value & opt int 17
      & info [ "seed" ] ~docv:"S"
          ~doc:"Seeds the arrival process and every job's machine; the whole \
                run is a deterministic function of it.")
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
    Arg.(
      value & opt int 32
      & info [ "ram-mb" ] ~docv:"MB"
          ~doc:"Guest RAM per job VM (bounds the real memory of K \
                concurrent sessions).")
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
    Arg.(
      value
      & opt (some string) None
      & info [ "hostile-tenant" ] ~docv:"TENANT:CLASS"
          ~doc:"Turn every job of TENANT into an adversarial-guest attach \
                of the named hostile class (e.g. t3:desc-chaos): the \
                misbehaving tenant's guests race their own attaches while \
                the other tenants' streams run unchanged.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the merged service metrics (latency histograms, \
                queue-depth gauges, admission/shed counters, per-stage \
                aggregates over every job session) as JSON.")
  in
  let results_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "results-out" ] ~docv:"FILE"
          ~doc:"Write the durable per-job result log (JSON lines, one \
                object per job in id order).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the frontend's admission flight recording \
                (service.enqueue/admit/shed events) as .vmshtrace.")
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
    match Replay.record ?log_level spec ~path:out with
    | Error e ->
        Printf.eprintf "trace record: %s\n" e;
        exit 1
    | Ok r ->
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
    Arg.(
      value & opt int 5
      & info [ "seed" ] ~docv:"N" ~doc:"Scenario seed (fleet default is 7).")
  in
  let vms =
    Arg.(
      value & opt int 8
      & info [ "vms" ] ~docv:"N" ~doc:"Fleet size (fleet scenario only).")
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
    Arg.(
      value & opt int (-1)
      & info [ "k" ] ~docv:"K"
          ~doc:
            "Abort-at-yield index of the sweep cell; -1 is the probe \
             (sweep scenario only).")
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

let trace_replay_cmd =
  let run file log_level =
    match Trace.load file with
    | Error e ->
        Printf.eprintf "trace replay: %s\n" e;
        exit 1
    | Ok f -> (
        (* fuzz artifacts replay through the CLI's own fuzz driver;
           fuzz-mutant corpus entries and reproducers by rebuilding the
           mutant from the stored base prefix + mutation chain and
           re-executing the attack; every other scenario through the
           recipe library *)
        let diffs =
          match List.assoc_opt "scenario" f.Trace.f_meta with
          | Some s when s = Fuzz.mutant_scenario -> (
              match Fuzz.parse_mutant_meta f.Trace.f_meta with
              | Error _ as e -> e
              | Ok mf -> (
                  match Replay.spec_of_meta mf.Fuzz.mf_base_meta with
                  | Error _ as e -> e
                  | Ok spec ->
                      let base = f.Trace.f_events in
                      let mutant = Fuzz.apply_all base mf.Fuzz.mf_muts in
                      let verdict =
                        match Fuzz.validate mutant with
                        | p :: _ ->
                            Faults.Abort.Clean_abort ("protocol: " ^ p)
                        | [] ->
                            let execute, _, _ =
                              attack_executor ?log_level ~base ~spec ()
                            in
                            execute mutant mf.Fuzz.mf_muts
                      in
                      let got = Faults.Abort.to_string verdict in
                      let want = Faults.Abort.to_string mf.Fuzz.mf_verdict in
                      Ok
                        (if got = want then []
                         else
                           [
                             Printf.sprintf
                               "mutant verdict diverges: recorded %S, replay \
                                %S"
                               want got;
                           ])))
          | Some "fuzz" ->
              let geti key d =
                Option.bind (List.assoc_opt key f.Trace.f_meta)
                  int_of_string_opt
                |> Option.value ~default:d
              in
              let rate =
                Option.bind (List.assoc_opt "rate" f.Trace.f_meta)
                  float_of_string_opt
                |> Option.value ~default:0.15
              in
              let h, _, _, _ =
                fuzz_one ?log_level ~seed:(geti "fuzz-seed" 0) ~rate
                  ~trace:false ()
              in
              Ok
                (Trace.diff f.Trace.f_events
                   (Trace.Recorder.events h.H.Host.recorder))
          | _ -> Replay.replay ?log_level ~path:file ()
        in
        match diffs with
        | Error e ->
            Printf.eprintf "trace replay: %s\n" e;
            exit 1
        | Ok [] ->
            if
              List.assoc_opt "scenario" f.Trace.f_meta
              = Some Fuzz.mutant_scenario
            then
              Printf.printf
                "mutant re-executes to its recorded verdict (%s; %d base \
                 events)\n"
                (Option.value
                   (List.assoc_opt "verdict" f.Trace.f_meta)
                   ~default:"?")
                (List.length f.Trace.f_events)
            else
              Printf.printf
                "replay matches recording: %d events, guest digest identical\n"
                (List.length f.Trace.f_events)
        | Ok lines ->
            List.iter (Printf.eprintf "replay-diff: %s\n") lines;
            exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a recording's scenario deterministically and diff the two \
          event streams and guest digests")
    Term.(const run $ trace_file_arg $ log_level_arg)

let trace_dump_cmd =
  let run file limit =
    match Trace.load file with
    | Error e ->
        Printf.eprintf "trace dump: %s\n" e;
        exit 1
    | Ok f ->
        List.iter (fun (k, v) -> Printf.printf "# %s = %s\n" k v) f.Trace.f_meta;
        if f.Trace.f_dropped > 0 then
          Printf.printf "# dropped = %d\n" f.Trace.f_dropped;
        let n = List.length f.Trace.f_events in
        List.iteri
          (fun i e ->
            if limit <= 0 || i < limit then
              Format.printf "%a@." Trace.pp_event e)
          f.Trace.f_events;
        if limit > 0 && n > limit then
          Printf.printf "... %d more events (raise --limit)\n" (n - limit)
  in
  let limit =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Print at most N events (0 = everything).")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print a recording's metadata and events")
    Term.(const run $ trace_file_arg $ limit)

let trace_stat_cmd =
  let run file =
    match Trace.load file with
    | Error e ->
        Printf.eprintf "trace stat: %s\n" e;
        exit 1
    | Ok f ->
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
