(* Scenario-recipe replay: a [.vmshtrace] file names the deterministic
   driver that produced it (plus all of its seeds), so replaying is
   just re-running that driver and diffing the two flight recordings
   and guest-state digests. No guest memory image is needed — the
   recipe *is* the reproducer. For the single-session recipes (attach,
   sweep cell, serve job) the recipe is the very {!Fleet.Session} spec
   that produced the run: each maps to its scenario's own entry point,
   whose own function also writes the metadata. *)

type spec =
  | Attach of { seed : int }
  | Fleet_run of { seed : int; vms : int; from_baseline : bool }
  | Sweep_cell of {
      seed : int;
      cls : string;
      k : int;
      hostile : string;
      from_baseline : bool;
    }
  | Serve_job of {
      job : Service.Job.t;
      start_ns : float;
      ram_mb : int;
      worker : int;
      warm_cache : bool;
    }

type run = { run_events : Trace.event list; run_digest : string }

let meta_of_spec = function
  | Attach { seed } -> [ ("scenario", "attach"); ("seed", string_of_int seed) ]
  | Fleet_run { seed; vms; from_baseline } ->
      [
        ("scenario", "fleet");
        ("fleet-seed", string_of_int seed);
        ("vms", string_of_int vms);
        ("boot", (if from_baseline then "fork" else "cold"));
      ]
  | Sweep_cell { seed; cls; k; hostile; from_baseline } ->
      Fleet.Sweep.cell_meta ~seed ~cls ~k ~hostile ~fork:from_baseline
  | Serve_job { job; start_ns; ram_mb; worker; warm_cache } ->
      Service.Dispatch.job_meta ~job ~start_ns ~ram_mb ~worker
      @ [ ("symcache", if warm_cache then "warm" else "cold") ]

let spec_of_meta meta =
  let str k = List.assoc_opt k meta in
  let int_or k default =
    match str k with
    | None -> Ok default
    | Some s -> (
        match int_of_string_opt s with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "bad integer for %s: %s" k s))
  in
  let from_baseline = str "boot" = Some "fork" in
  let ( let* ) = Result.bind in
  match str "scenario" with
  | None -> Error "trace has no scenario metadata; cannot derive a recipe"
  | Some "attach" ->
      let* seed = int_or "seed" 5 in
      Ok (Attach { seed })
  | Some "fleet" ->
      (* dump-on-failure artifacts carry the fleet seed as [fleet-seed];
         the per-session [seed] key is the derived host seed, not the
         recipe's *)
      let* seed =
        match str "fleet-seed" with
        | Some _ -> int_or "fleet-seed" 7
        | None -> int_or "seed" 7
      in
      let* vms = int_or "vms" 1 in
      Ok (Fleet_run { seed; vms; from_baseline })
  | Some "sweep-cell" ->
      let* seed =
        match str "sweep-seed" with
        | Some _ -> int_or "sweep-seed" 5
        | None -> int_or "seed" 5
      in
      let* k = int_or "k" (-1) in
      let cls = Option.value (str "class") ~default:Fleet.Sweep.fault_free in
      let hostile = Option.value (str "hostile") ~default:"" in
      Ok (Sweep_cell { seed; cls; k; hostile; from_baseline })
  | Some "serve-job" ->
      let* seed = int_or "job-seed" 0 in
      let* id = int_or "job" 0 in
      let* ram_mb = int_or "ram-mb" 32 in
      let* worker = int_or "worker" (-1) in
      let tenant = Option.value (str "tenant") ~default:"t0" in
      let kind_name = Option.value (str "kind") ~default:"attach" in
      let* kind =
        Option.to_result ~none:("unknown job kind: " ^ kind_name)
          (Service.Job.kind_of_string kind_name)
      in
      let start_ns =
        Option.value
          (Option.bind (str "start-ns") float_of_string_opt)
          ~default:0.
      in
      let job =
        { Service.Job.id; tenant; kind; seed; priority = 0; deadline_ns = 0. }
      in
      let warm_cache = str "symcache" = Some "warm" in
      Ok (Serve_job { job; start_ns; ram_mb; worker; warm_cache })
  | Some s -> Error ("unknown scenario: " ^ s)

(* A forked recipe needs no baseline file: baking is itself
   deterministic, so the replay re-bakes the identical image. *)
let rebake from_baseline =
  if from_baseline then Some (Fleet.Baseline.bake ()) else None

let rec execute ?log_level = function
  | Attach { seed } ->
      (* the smoke attach is the fault-free probe cell *)
      execute ?log_level
        (Sweep_cell
           {
             seed;
             cls = Fleet.Sweep.fault_free;
             k = -1;
             hostile = "";
             from_baseline = false;
           })
  | Fleet_run { seed; vms; from_baseline } -> (
      let cfg = Fleet.Config.make ~vms () |> Fleet.Config.with_seed seed in
      let cfg =
        match rebake from_baseline with
        | Some img ->
            Fleet.Config.with_boot_source (Fleet.Config.Fork_of img) cfg
        | None -> cfg
      in
      let cfg =
        match log_level with
        | Some l -> Fleet.Config.with_log_level l cfg
        | None -> cfg
      in
      match Fleet.run cfg with
      | Error e -> Error (Vmsh.Vmsh_error.to_string e)
      | Ok r ->
          Ok { run_events = Fleet.flight_events r; run_digest = Fleet.digest r })
  | Sweep_cell { seed; cls; k; hostile; from_baseline } -> (
      let named what of_name = function
        | "" -> Ok None
        | s ->
            Option.to_result
              ~none:(Printf.sprintf "unknown %s class: %s" what s)
              (Option.map Option.some (of_name s))
      in
      (* chaos-matrix cells record pt_class = "hostile-<class>" with no
         fault class armed; accept that label too *)
      let cls =
        if cls = Fleet.Sweep.fault_free || hostile <> "" then "" else cls
      in
      match
        (named "fault" Faults.of_name cls, named "hostile" Hostile.of_name hostile)
      with
      | Error e, _ | _, Error e -> Error e
      | Ok cls, Ok hostile ->
          let k = if k < 0 then None else Some k in
          let pt =
            Fleet.Sweep.run_point ?log_level ?baseline:(rebake from_baseline)
              ?hostile ~seed ~cls ~k ()
          in
          Ok
            {
              run_events = pt.Fleet.Sweep.pt_events;
              run_digest = Lazy.force pt.Fleet.Sweep.pt_report.Fleet.Session.digest;
            })
  | Serve_job { job; start_ns; ram_mb; worker; warm_cache } ->
      let host =
        Service.Dispatch.prepare_host ~job ~start_ns ~ram_mb ?log_level ~worker
          ()
      in
      let cache =
        if warm_cache then Service.Dispatch.warm_cache ~ram_mb
        else Vmsh.Symbol_analysis.Cache.create ()
      in
      let status = Service.Dispatch.execute_on ~host ~job ~ram_mb ~cache () in
      (* no whole-guest digest survives a detached job; the terminal
         status stands in (computed identically on both sides of the
         diff) *)
      Ok
        {
          run_events = Trace.Recorder.events host.Hostos.Host.recorder;
          run_digest =
            Digest.to_hex (Digest.string (Service.Job.status_to_string status));
        }

(* ------------------------------------------------------------------ *)
(* Mutant execution: drive the recipe under a scripted fault plan      *)
(* ------------------------------------------------------------------ *)

(* The trace-mutation fuzzer turns a mutated flight recording into a
   scripted {!Faults.t} plan and asks: does the real pipeline survive
   that perturbation? The attack re-runs the recipe's attach on a fresh
   machine (for a fleet recipe, the one session the mutation touched —
   per-session host seeds are the fleet's own derivation) as one
   session-harness run, whose verdict it reports. *)

type attack = {
  at_verdict : Faults.Abort.verdict;
  at_events : Trace.event list;  (** the attacked run's flight recording *)
  at_virtual_ns : float;  (** virtual time the attacked run consumed *)
}

let attack_host_seed spec ~session =
  match spec with
  | Attach { seed } -> seed
  | Sweep_cell { seed; _ } -> seed
  | Serve_job { job; _ } -> job.Service.Job.seed
  (* the fleet engine's per-session host seed derivation *)
  | Fleet_run { seed; _ } -> (seed * 1009) + (session * 17)

let execute_attack ?log_level ?(session = 0) ~plan spec =
  let seed = attack_host_seed spec ~session in
  let pt = Fleet.Sweep.run_point ?log_level ~plan ~seed ~cls:None ~k:None () in
  {
    at_verdict = pt.Fleet.Sweep.pt_report.Fleet.Session.verdict;
    at_events = pt.Fleet.Sweep.pt_events;
    at_virtual_ns = pt.Fleet.Sweep.pt_virtual_ns;
  }

let record ?log_level spec ~path =
  match execute ?log_level spec with
  | Error _ as e -> e
  | Ok run ->
      let meta = meta_of_spec spec @ [ ("digest", run.run_digest) ] in
      let oc = open_out_bin path in
      output_string oc (Trace.encode ~meta run.run_events);
      close_out oc;
      Ok run

let replay ?log_level ~path () =
  match Trace.load path with
  | Error e -> Error e
  | Ok f -> (
      match spec_of_meta f.Trace.f_meta with
      | Error _ as e -> e
      | Ok spec -> (
          match execute ?log_level spec with
          | Error _ as e -> e
          | Ok run ->
              let diffs = Trace.diff f.Trace.f_events run.run_events in
              let diffs =
                match List.assoc_opt "digest" f.Trace.f_meta with
                | Some d when d <> run.run_digest ->
                    diffs
                    @ [
                        Printf.sprintf
                          "snapshot digest diverges: recorded %s, replay %s" d
                          run.run_digest;
                      ]
                | _ -> diffs
              in
              Ok diffs))
