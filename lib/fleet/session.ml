(* One attach session, end to end: the one harness behind every attach
   the fleet, the sweep, the service and the fuzzer run.

   A spec names the machine (a cold boot or a CoW fork of a baked
   baseline), the fault plan armed on the attach, an optional
   adversarial guest and the shared symbol cache; the caller brings the
   host (seed, clock offset, log level and trace tags are the caller's
   business). [run] executes the one pipeline

     boot or fork -> snapshot + fd watermark -> attach -> console
     "hostname" round trip -> detach -> rollback oracle and tracer
     check -> fd-leak check -> guest digest (lazy: computed only when
     read)

   and [verdict] files it under one {!Faults.Abort.verdict}. The fleet,
   the crash-point sweep, the job service and the trace-mutation fuzzer
   are thin mappings onto [run]. The oracle is unconditional: a capture
   costs no virtual time, so it cannot perturb any run. *)

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

type spec = {
  boot : boot;
  plan : Faults.t option;
  hostile : (Hostile.cls * int) option;  (* adversary class and seed *)
  cache : Vmsh.Symbol_analysis.Cache.t option;
}

let cold ?(profile = Profile.qemu) ?(version = KV.V5_10) ?(ram_mb = 64)
    hostname =
  Cold { profile; version; ram_mb; hostname }

let spec ?plan ?hostile ?cache boot = { boot; plan; hostile; cache }

type outcome =
  | Completed  (* attached, answered on the console, detached *)
  | Aborted of E.t  (* the fork or the attach failed with a typed error *)
  | Broken of string  (* attached, then misbehaved *)
  | Escaped of exn

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
    | _ when r.oracle <> [] -> Bug (Oracle (List.hd r.oracle))
    | _ when r.leaked_fds > 0 -> Bug (Leaked_fds r.leaked_fds)
    | Completed -> Survived
    | Aborted e -> Clean_abort (E.to_string e)

let stand_up host = function
  | Cold { profile; version; ram_mb; hostname } ->
      Ok (fst (Machine.cold_boot ~ram_mb host ~profile ~version ~hostname), None)
  | Fork { image; hostname } -> (
      let profile =
        List.find_opt
          (fun p -> p.Profile.prof_name = Baseline.profile_name image)
          Profile.all
        |> Option.value ~default:Profile.qemu
      in
      match Baseline.fork image ~host ~profile ~name:hostname with
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

(* Attach, prove the overlay answers on the console (a fork must answer
   with its own per-clone hostname, the one write that diverged it from
   the baseline and every sibling), detach. Fills [yields] and [late],
   the journal's post-seal device writes the oracle must not blame on
   VMSH. *)
let attach_roundtrip_detach ~host ~vmm spec ~yields ~late =
  let config =
    let open Vmsh.Attach.Config in
    let c = make () in
    let c = match spec.cache with Some k -> with_symbol_cache k c | None -> c in
    match spec.plan with Some p -> with_faults p c | None -> c
  in
  match
    Vmsh.Attach.attach host ~hypervisor_pid:(Vmm.pid vmm)
      ~fs_image:(Machine.tools_image host.H.Host.clock)
      ~config
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Error e -> Aborted e
  | Ok session -> (
      Option.iter (fun p -> yields := Faults.yield_ticks p) spec.plan;
      ignore (Vmsh.Attach.console_recv session);
      let out = Vmsh.Attach.console_roundtrip session "hostname" in
      Option.iter
        (fun j -> late := Vmsh.Journal.late_writes j)
        (Vmsh.Attach.journal session);
      match (Vmsh.Attach.detach session, spec.boot) with
      | Error e, _ -> Broken ("detach: " ^ E.to_string e)
      | Ok (), _ when String.length out = 0 -> Broken "console dead after attach"
      | Ok (), Fork { hostname; _ }
        when not
               (String.length out > String.length hostname
               && String.sub out 0 (String.length hostname + 1)
                  = hostname ^ "\n") ->
          Broken
            (Printf.sprintf "fork isolation: console answered %S, want %S" out
               hostname)
      | Ok (), _ -> Completed)

(* Whatever the outcome, VMSH must leave the hypervisor untraced: a
   dangling tracer makes every later attach to the VM fail. *)
let still_traced host vmm =
  match H.Host.find_proc host ~pid:(Vmm.pid vmm) with
  | Some { H.Proc.tracer = Some pid; _ } ->
      [ Printf.sprintf "hypervisor still ptrace-attached (tracer pid %d)" pid ]
  | _ -> []

let run ~host spec =
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
  | Ok (vmm, fork) ->
      let t_attach = H.Clock.now_ns clock in
      let vm = Vmm.kvm_vm vmm in
      let before = Vmsh.Snapshot.capture vm in
      let fds_before = Machine.open_fds host in
      let yields = ref 0 and late = ref [] in
      let outcome =
        match
          arm_hooks ~host ~vmm spec;
          attach_roundtrip_detach ~host ~vmm spec ~yields ~late
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
          @ still_traced host vmm)
        ~leaked_fds:(Machine.open_fds host - fds_before)
        ~digest:(lazy (Vmsh.Snapshot.digest after))
        outcome
