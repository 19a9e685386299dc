module H = Hostos
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version
module E = Vmsh.Vmsh_error
module Sweep = Fleet_sweep
module Baseline = Baseline
module Machine = Machine
module Session = Session

(* --- configuration ------------------------------------------------ *)

module Config = struct
  type boot_source = Cold_boot | Fork_of of Baseline.image

  type t = {
    vms : int;
    seed : int;
    profile : Profile.t;
    version : KV.t;
    fault_rate : float;
    share_symbols : bool;
    log_level : Observe.level option;
    boot_source : boot_source;
  }

  let make ?(vms = 1) () =
    {
      vms;
      seed = 7;
      profile = Profile.qemu;
      version = KV.V5_10;
      fault_rate = 0.0;
      share_symbols = true;
      log_level = None;
      boot_source = Cold_boot;
    }

  let with_seed seed t = { t with seed }
  let with_profile profile t = { t with profile }
  let with_version version t = { t with version }
  let with_fault_rate fault_rate t = { t with fault_rate }
  let with_share_symbols share_symbols t = { t with share_symbols }
  let with_log_level level t = { t with log_level = Some level }
  let with_boot_source boot_source t = { t with boot_source }
  let vms t = t.vms
  let seed t = t.seed
  let profile t = t.profile
  let version t = t.version
  let fault_rate t = t.fault_rate
  let log_level t = t.log_level
  let is_fork t = match t.boot_source with Fork_of _ -> true | Cold_boot -> false

  let validate t =
    if t.vms <= 0 then Error (E.Invalid_config "fleet: vms must be positive")
    else if t.fault_rate < 0.0 || t.fault_rate > 1.0 then
      Error (E.Invalid_config "fleet: fault_rate must be within [0, 1]")
    else
      match t.boot_source with
      | Cold_boot -> Ok t
      | Fork_of img -> (
          match Baseline.validate img ~profile:t.profile ~version:t.version with
          | Ok () -> Ok t
          | Error e -> Error e)
end

(* --- per-session reports ------------------------------------------ *)

type session_report = {
  s_name : string;
  s_result : (unit, string) result;
  s_attach_ns : float;
  s_fork_ns : float;
  s_total_ns : float;
  s_host : H.Host.t;
  s_digest : string Lazy.t;
}

type report = {
  r_vms : int;
  r_seed : int;
  r_forked : bool;
  r_sessions : session_report list;
  r_yields : int;
  r_cache_hits : int;
  r_cache_misses : int;
  r_schedule : string;
}

(* One fleet session: the {!Session} pipeline on the session's own host
   (cold boot or CoW fork, named after the session), run as a fiber;
   every step between yield points touches only this host. *)
let session ~host ~name ~(cfg : Config.t) ~index ~cache results () =
  (* tag every flight event and any failure artifact with the session *)
  Trace.Recorder.set_session host.H.Host.recorder index;
  Trace.Recorder.set_meta host.H.Host.recorder "session" name;
  Trace.Recorder.set_meta host.H.Host.recorder "boot"
    (if Config.is_fork cfg then "fork" else "cold");
  let boot =
    match cfg.Config.boot_source with
    | Config.Cold_boot ->
        Session.cold ~profile:cfg.Config.profile ~version:cfg.Config.version
          name
    | Config.Fork_of image -> Session.Fork { image; hostname = name }
  in
  let plan =
    if cfg.Config.fault_rate > 0.0 then
      Some
        (Faults.create
           ~seed:((cfg.Config.seed * 31) + index)
           ~rate:cfg.Config.fault_rate ())
    else None
  in
  let r = Session.run ~host (Session.spec ?plan ?cache boot) in
  results.(index) <-
    Some
      {
        s_name = name;
        s_result =
          (match r.Session.verdict with
          | Faults.Abort.Survived -> Ok ()
          | v -> Error (Faults.Abort.detail v));
        s_attach_ns = r.Session.attach_ns;
        s_fork_ns = (if Config.is_fork cfg then r.Session.boot_ns else Float.nan);
        s_total_ns = H.Clock.now_ns host.H.Host.clock;
        s_host = host;
        s_digest = r.Session.digest;
      }

let counter_value mx name =
  Observe.Metrics.counter_value (Observe.Metrics.counter mx name)

let run_validated (cfg : Config.t) =
  let vms = cfg.Config.vms and seed = cfg.Config.seed in
  let cache =
    if cfg.Config.share_symbols then
      Some (Vmsh.Symbol_analysis.Cache.create ())
    else None
  in
  let sched = Sched.create () in
  let schedule = Buffer.create (vms * 256) in
  let slice = ref 0 in
  Sched.set_tracer sched
    (Some
       (fun ~name ~now_ns ->
         Buffer.add_string schedule
           (Printf.sprintf "slice %d %s t=%.0f\n" !slice name now_ns);
         incr slice));
  let results = Array.make vms None in
  let hosts =
    List.init vms (fun i ->
        (* distinct, well-separated seed per session: each host draws an
           independent deterministic RNG stream *)
        let host = H.Host.create ~seed:((seed * 1009) + (i * 17)) () in
        Option.iter
          (Observe.set_log_level host.H.Host.observe)
          cfg.Config.log_level;
        let name = Printf.sprintf "vm%d" i in
        Sched.spawn sched ~name ~clock:host.H.Host.clock
          (session ~host ~name ~cfg ~index:i ~cache results);
        host)
  in
  let outcomes = Sched.run sched in
  List.iteri
    (fun i (name, outcome) ->
      match (outcome, results.(i)) with
      | Sched.Failed e, None ->
          (* the fiber died outside the session harness: file it failed
             so the report always has [vms] entries *)
          let host = List.nth hosts i in
          results.(i) <-
            Some
              {
                s_name = name;
                s_result = Error (Printexc.to_string e);
                s_attach_ns = Float.nan;
                s_fork_ns = Float.nan;
                s_total_ns = H.Clock.now_ns host.H.Host.clock;
                s_host = host;
                s_digest = Lazy.from_val "";
              }
      | _ -> ())
    outcomes;
  (* every failed session leaves a replayable artifact when
     VMSH_TRACE_DIR is set (CI uploads them) *)
  Array.iter
    (fun r ->
      match r with
      | Some s when Result.is_error s.s_result ->
          ignore
            (Trace.dump_on_failure s.s_host.H.Host.recorder
               ~name:(Printf.sprintf "fleet-s%d-%s" seed s.s_name)
               ~extra_meta:
                 [
                   ("scenario", "fleet");
                   ("fleet-seed", string_of_int seed);
                   ("vms", string_of_int vms);
                   ( "boot",
                     if Config.is_fork cfg then "fork" else "cold" );
                   ("error", Result.fold ~ok:(fun () -> "") ~error:Fun.id s.s_result);
                 ]
               ())
      | _ -> ())
    results;
  let hits, misses =
    List.fold_left
      (fun (h, m) host ->
        let mx = Observe.metrics host.H.Host.observe in
        ( h + counter_value mx "symcache.hits",
          m + counter_value mx "symcache.misses" ))
      (0, 0) hosts
  in
  {
    r_vms = vms;
    r_seed = seed;
    r_forked = Config.is_fork cfg;
    r_sessions = List.filter_map Fun.id (Array.to_list results);
    r_yields = Sched.yields sched;
    r_cache_hits = hits;
    r_cache_misses = misses;
    r_schedule = Buffer.contents schedule;
  }

let run cfg =
  match Config.validate cfg with
  | Error e -> Error e
  | Ok cfg -> Ok (run_validated cfg)

let successes r =
  List.filter_map
    (fun s -> if Result.is_ok s.s_result then Some s.s_attach_ns else None)
    r.r_sessions

let fork_latencies r =
  List.filter_map
    (fun s ->
      if Result.is_ok s.s_result && not (Float.is_nan s.s_fork_ns) then
        Some s.s_fork_ns
      else None)
    r.r_sessions

let record mx ~label r =
  let hist = Observe.Metrics.histogram mx ("fleet.attach_ns." ^ label) in
  List.iter (Observe.Metrics.observe hist) (successes r);
  (match fork_latencies r with
  | [] -> ()
  | forks ->
      let fh = Observe.Metrics.histogram mx ("fleet.fork_ns." ^ label) in
      List.iter (Observe.Metrics.observe fh) forks);
  let bump name by =
    Observe.Metrics.incr ~by (Observe.Metrics.counter mx name)
  in
  if r.r_cache_hits > 0 then bump "symcache.hits" r.r_cache_hits;
  if r.r_cache_misses > 0 then bump "symcache.misses" r.r_cache_misses;
  bump ("fleet.yields." ^ label) r.r_yields;
  let failures =
    List.length (List.filter (fun s -> Result.is_error s.s_result) r.r_sessions)
  in
  if failures > 0 then bump ("fleet.failures." ^ label) failures

let percentile_of xs p =
  match xs with
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let attach_p r p = percentile_of (successes r) p
let fork_p r p = percentile_of (fork_latencies r) p

(* One hex digest over every session's final guest-state digest, in
   session order — the fleet-wide half of the replay-diff oracle. *)
let digest r =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun s -> Lazy.force s.s_digest) r.r_sessions)))

(* The fleet's merged flight recording: each session's events in
   session order (each already tagged with its session id). Sessions
   are deterministic, so the concatenation is too. *)
let flight_events r =
  List.concat_map
    (fun s -> Trace.Recorder.events s.s_host.H.Host.recorder)
    r.r_sessions

(* One fleet-wide metrics document: per-session registries folded into
   a global registry (counters and histogram buckets add, so the fleet
   p50/p99 come from every session's samples), plus the per-session
   breakdown. *)
let metrics_json r =
  let mx = Observe.Metrics.create () in
  List.iter
    (fun s -> Observe.Metrics.merge_into ~into:mx
        (Observe.metrics s.s_host.H.Host.observe))
    r.r_sessions;
  (* the merge already folded each session's symcache, recovery, stage
     and overlay counters together; add only the fleet-level summary
     the sessions cannot know *)
  let hist = Observe.Metrics.histogram mx "fleet.attach_ns.fleet" in
  List.iter (Observe.Metrics.observe hist) (successes r);
  (match fork_latencies r with
  | [] -> ()
  | forks ->
      let fh = Observe.Metrics.histogram mx "fleet.fork_ns.fleet" in
      List.iter (Observe.Metrics.observe fh) forks);
  Observe.Metrics.set_counter
    (Observe.Metrics.counter mx "fleet.yields.fleet")
    r.r_yields;
  let failures =
    List.length (List.filter (fun s -> Result.is_error s.s_result) r.r_sessions)
  in
  if failures > 0 then
    Observe.Metrics.set_counter
      (Observe.Metrics.counter mx "fleet.failures.fleet")
      failures;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"fleet\": ";
  Buffer.add_string b (Observe.Export.metrics_json mx);
  Buffer.add_string b ", \"sessions\": {";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%S: " s.s_name);
      Buffer.add_string b
        (Observe.Export.metrics_json (Observe.metrics s.s_host.H.Host.observe)))
    r.r_sessions;
  Buffer.add_string b "}}";
  Buffer.contents b
