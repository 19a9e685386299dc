(* One attach session, end to end: the one harness behind every attach
   the fleet, the sweep, the service, both fuzzers, the use cases and
   [vmsh attach] run; each is a thin mapping onto [run].

   A spec names the machine (a cold boot, a CoW fork of a baked
   baseline or a running VM), the side-loaded image, the caller's
   attach config (transport, NIC cabling), the fault plan armed on the
   attach, an optional adversarial guest and the shared symbol cache;
   the caller brings the host (seed, clock offset, log level and trace
   tags are the caller's business). [run] executes the one pipeline

     boot or fork -> [Booted] step -> snapshot + fd and pid watermarks
     -> attach -> [Attached] step (default: console "hostname" round
     trip) -> detach -> rollback oracle, tracer and process checks ->
     fd-leak check -> guest digest (lazy: computed only when read)

   and [verdict] files it under one {!Faults.Abort.verdict}. The oracle
   is unconditional: a capture costs no virtual time, so it cannot
   perturb any run. *)

module H = Hostos
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version
module E = Vmsh.Vmsh_error

type boot =
  | Cold of {
      profile : Profile.t;
      version : KV.t;
      ram_mb : int;
      hostname : string;
    }
  | Fork of { image : Baseline.image; hostname : string }
  | Running of Vmm.t
      (* a VM the caller booted and keeps: no boot cost, and the
         session runs on the VM's own host *)

type spec = {
  boot : boot;
  image : Blockdev.Backend.t option;
      (* what the attach side-loads; [None] is a fresh
         [Machine.tools_image], instantiated just before the attach *)
  config : Vmsh.Attach.Config.t;
      (* the caller's attach config; [run] adds the plan, the cache and
         the PCI transport the boot's profile needs *)
  plan : Faults.t option;
  hostile : (Hostile.cls * int) option;  (* adversary class and seed *)
  cache : Vmsh.Symbol_analysis.Cache.t option;
}

let cold ?(profile = Profile.qemu) ?(version = KV.V5_10) ?(ram_mb = 64)
    hostname =
  Cold { profile; version; ram_mb; hostname }

let spec ?image ?(config = Vmsh.Attach.Config.make ()) ?plan ?hostile ?cache
    boot =
  { boot; image; config; plan; hostile; cache }

type outcome =
  | Completed  (* attached, did the attached step's work, detached *)
  | Aborted of E.t  (* the fork or the attach failed with a typed error *)
  | Broken of string  (* a step reported the machine misbehaving *)
  | Detach_failed of E.t  (* attached, then the detach's rollback failed *)
  | Escaped of exn

type step = Booted of Vmm.t | Attached of Vmm.t * Vmsh.Attach.session

type report = {
  outcome : outcome;
  verdict : Faults.Abort.verdict;
  boot_ns : float;  (* nan when the machine never stood up *)
  attach_ns : float;  (* attach through detach; nan without a machine *)
  elapsed_ns : float;
  yields : int;  (* yield points the attach crossed (0 if it failed) *)
  oracle : string list;
  leaked_fds : int;
  digest : string Lazy.t;
      (* [Snapshot.digest] of the after-detach capture, computed when
         first forced and exact however late: a capture answers each
         page as of its mark. Until forced it keeps the guest memory
         alive; "" without a machine. *)
}

(* Every bounded retry loop gives up long before this, so a session
   that consumes 120 virtual seconds is hung, not slow. *)
let budget_ns = 120e9

let verdict r =
  let open Faults.Abort in
  if r.elapsed_ns > budget_ns then Bug (Hang r.elapsed_ns)
  else
    match r.outcome with
    | Escaped e -> Bug (Escaped (Printexc.to_string e))
    | Broken m -> Bug (Broken m)
    | Detach_failed e -> Bug (Broken ("detach: " ^ E.to_string e))
    | _ when r.oracle <> [] -> Bug (Oracle (List.hd r.oracle))
    | _ when r.leaked_fds > 0 -> Bug (Leaked_fds r.leaked_fds)
    | Completed -> Survived
    | Aborted e -> Clean_abort (E.to_string e)

(* A fork runs under the profile its baseline was baked with. *)
let profile = function
  | Cold { profile; _ } -> profile
  | Fork { image; _ } ->
      List.find_opt
        (fun p -> p.Profile.prof_name = Baseline.profile_name image)
        Profile.all
      |> Option.value ~default:Profile.qemu
  | Running vmm -> Vmm.profile vmm

let stand_up host boot =
  match boot with
  | Cold { profile; version; ram_mb; hostname } ->
      Ok (fst (Machine.cold_boot ~ram_mb host ~profile ~version ~hostname), None)
  | Running vmm when Vmm.host vmm != host ->
      invalid_arg "Session.run: a running VM attaches from its own host"
  | Running vmm -> Ok (vmm, None)
  | Fork { image; hostname } -> (
      match Baseline.fork image ~host ~profile:(profile boot) ~name:hostname with
      | Ok f ->
          Observe.Metrics.observe
            (Observe.Metrics.histogram
               (Observe.metrics host.H.Host.observe)
               "fleet.fork_ns")
            f.Baseline.fk_fork_ns;
          Ok (f.Baseline.fk_vmm, Some f)
      | Error e -> Error e)

(* The fork's overlay occupancy after the session: pages still shared
   with the baseline vs pages the clone privately copied. *)
let observe_overlay host f =
  let s = Baseline.resident f in
  let set name v =
    Observe.Metrics.set_counter
      (Observe.Metrics.counter (Observe.metrics host.H.Host.observe) name)
      v
  in
  set "overlay.pages_copied" s.H.Mem.cs_pages_copied;
  set "overlay.pages_shared" (s.H.Mem.cs_pages_total - s.H.Mem.cs_pages_copied);
  set "overlay.silent_writes" s.H.Mem.cs_silent_writes;
  set "overlay.resident_bytes" s.H.Mem.cs_resident_bytes

(* The plan's yield-point observers: the timewarp executor (a scripted
   skew at yield n stretches the virtual clock by the factor's excess
   over unity; compression adds nothing, virtual time is monotone) and
   the adversarial guest, one engine step per yield. *)
let arm_hooks ~host ~vmm spec =
  match (spec.plan, spec.hostile) with
  | None, Some _ -> invalid_arg "Session.run: a hostile guest needs a plan"
  | None, None -> ()
  | Some plan, hostile -> (
      if Faults.skew_script plan <> [] then
        Faults.set_on_skew plan
          (Some
             (fun permille ->
               let stretch_ns = float_of_int (max 0 (permille - 1000)) *. 1e3 in
               if stretch_ns > 0. then
                 H.Clock.advance host.H.Host.clock stretch_ns));
      match hostile with
      | Some (cls, seed) ->
          let eng = Hostile.create ~seed ~cls vmm in
          Faults.set_on_yield plan (Some (fun _ -> Hostile.step eng))
      | None -> ())

(* The default attached step: prove the overlay answers on the console.
   A fork must answer with its own per-clone hostname, the one write
   that diverged it from the baseline and every sibling. *)
let hostname_roundtrip boot = function
  | Booted _ -> Ok ()
  | Attached (_, session) -> (
      ignore (Vmsh.Attach.console_recv session);
      let out = Vmsh.Attach.console_roundtrip session "hostname" in
      match boot with
      | _ when out = "" -> Error "console dead after attach"
      | Fork { hostname; _ }
        when not (String.starts_with ~prefix:(hostname ^ "\n") out) ->
          Error
            (Printf.sprintf "fork isolation: console answered %S, want %S" out
               hostname)
      | _ -> Ok ())

(* Attach, run the attached step, detach. Fills [yields] and [late],
   the journal's post-seal device writes the oracle must not blame on
   VMSH, read after the step so its device traffic lands in them. The
   session detaches whatever the step did, raising included; a failed
   detach outranks a failed step. *)
let attach_step_detach ~host ~vmm ~step spec ~yields ~late =
  let config =
    let open Vmsh.Attach.Config in
    (* VirtIO over PCI where the hypervisor offers no MMIO transport *)
    with_pci (not (profile spec.boot).Profile.mmio_transport) spec.config
    |> Option.fold spec.cache ~none:Fun.id ~some:with_symbol_cache
    |> Option.fold spec.plan ~none:Fun.id ~some:with_faults
  in
  match
    Vmsh.Attach.attach host ~hypervisor_pid:(Vmm.pid vmm)
      ~fs_image:
        (match spec.image with
        | Some i -> i
        | None -> Machine.tools_image host.H.Host.clock)
      ~config
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Error e -> Aborted e
  | Ok session -> (
      Option.iter (fun p -> yields := Faults.yield_ticks p) spec.plan;
      let work =
        match step (Attached (vmm, session)) with
        | Ok () -> Completed
        | Error m -> Broken m
        | exception e -> Escaped e
      in
      Option.iter
        (fun j -> late := Vmsh.Journal.late_writes j)
        (Vmsh.Attach.journal session);
      match Vmsh.Attach.detach session with
      | Error e -> Detach_failed e
      | Ok () -> work)

(* Whatever the outcome, VMSH must leave the hypervisor untraced (a
   dangling tracer makes every later attach to the VM fail), and no
   process behind: teardown reaps its helper. *)
let host_leaks host vmm ~pids =
  (match H.Host.find_proc host ~pid:(Vmm.pid vmm) with
  | Some { H.Proc.tracer = Some pid; _ } ->
      [ Printf.sprintf "hypervisor still ptrace-attached (tracer pid %d)" pid ]
  | _ -> [])
  @ (List.filter (fun pid -> not (List.mem pid pids)) (H.Host.pids host)
    |> List.map (fun pid ->
           Printf.sprintf "host process %s (pid %d) outlived the session"
             (H.Host.proc_exn host ~pid).H.Proc.proc_name pid))

let run ?step ~host spec =
  let step = Option.value step ~default:(hostname_roundtrip spec.boot) in
  let clock = host.H.Host.clock in
  let t_start = H.Clock.now_ns clock in
  let report ?(boot_ns = Float.nan) ?(attach_ns = Float.nan) ?(yields = 0)
      ?(oracle = []) ?(leaked_fds = 0) ?(digest = Lazy.from_val "") outcome =
    let r =
      {
        outcome;
        verdict = Faults.Abort.Survived;
        boot_ns;
        attach_ns;
        elapsed_ns = H.Clock.now_ns clock -. t_start;
        yields;
        oracle;
        leaked_fds;
        digest;
      }
    in
    { r with verdict = verdict r }
  in
  match stand_up host spec.boot with
  | exception e -> report (Escaped e)
  | Error e -> report (Aborted e)
  | Ok (vmm, fork) -> (
      match step (Booted vmm) with
      | exception e -> report (Escaped e)
      | Error m -> report (Broken m)
      | Ok () ->
          let t_attach = H.Clock.now_ns clock in
          let vm = Vmm.kvm_vm vmm in
          let before = Vmsh.Snapshot.capture vm in
          let fds_before = Machine.open_fds host in
          let pids = H.Host.pids host in
          let yields = ref 0 and late = ref [] in
          let outcome =
            match
              arm_hooks ~host ~vmm spec;
              attach_step_detach ~host ~vmm ~step spec ~yields ~late
            with
            | o -> o
            | exception e -> Escaped e
          in
          let attach_ns = H.Clock.now_ns clock -. t_attach in
          Option.iter (observe_overlay host) fork;
          let after = Vmsh.Snapshot.capture vm in
          report ~boot_ns:(t_attach -. t_start) ~attach_ns ~yields:!yields
            ~oracle:
              (Vmsh.Snapshot.diff ~before ~after ~exclude:!late
              @ host_leaks host vmm ~pids)
            ~leaked_fds:(Machine.open_fds host - fds_before)
            ~digest:(lazy (Vmsh.Snapshot.digest after))
            outcome)
