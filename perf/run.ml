(* One run of one workload: set up [Catalogue.setup_repeats] times
   (median = setup_s), then run units until at least [window] units are
   done and [seconds] have passed, then report. The modelled metrics
   cover exactly the first [window] units, so they repeat byte for byte
   for a seed; the host metrics cover every unit. *)

type unit_out = { ops : int; failed : int }

type workload = {
  name : string;
  window : int;  (** units the modelled (virtual-clock) metrics cover *)
  setup : unit -> unit;  (** fresh state, ending with one warm-up unit *)
  prepare : int -> unit;  (** untimed upkeep before unit [i] *)
  step : int -> unit_out;
  layers : unit -> (string * float) list;
      (** modelled per-layer values; called once, after unit [window - 1] *)
  finish : unit -> (string * float) list;
      (** end-of-run checks and host-side per-layer values *)
  notes : unit -> string list;  (** human-readable lines for the report *)
  observed : unit -> string option;
      (** program-side spans of one traced host, as
          [Observe.Export.chrome_trace] writes them *)
}

type ctx = {
  seed : int;
  quick : bool;
  probe : Probe.t;
  acc : Probe.Acc.t;
}

type options = {
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  trace_dir : string option;
}

(* A run that fails a check raises instead of reporting, so a report is
   always a correct one. *)
type report = {
  attempted : int;
  failed : int;
  metrics : (Catalogue.metric * float) list;
}

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun ((m : Catalogue.metric), v) ->
         ( m.Catalogue.name,
           Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Catalogue.unit_) ] ))
       metrics)

let report_json r =
  Json.Obj
    [
      ("correct", Json.Bool true);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json r.metrics);
    ]

let now = Unix.gettimeofday

let execute (opts : options) (make : ctx -> workload) =
  let digest = Catalogue.costs_digest () in
  if digest <> Catalogue.pinned_costs_digest then
    raise
      (Rig.Check_failed
         (Printf.sprintf
            "modelled cost table digest %s differs from the pinned %s: a \
             cost-constant edit is not a speedup (update the pin only for a \
             deliberate recalibration)"
            digest Catalogue.pinned_costs_digest));
  let probe = Probe.create () in
  let ctx = { seed = opts.seed; quick = opts.quick; probe; acc = Probe.Acc.create () } in
  let w = make ctx in
  let repeats = if opts.quick then 1 else Catalogue.setup_repeats in
  let setups =
    Array.init repeats (fun _ ->
        let t0 = now () in
        w.setup ();
        now () -. t0)
  in
  Probe.reset probe;
  Probe.Acc.reset ctx.acc;
  let alloc0 = Probe.allocated_bytes () in
  (* calibration samples spread through the run: about 2% of its time,
     at least one before every unit *)
  let cal = ref [] in
  let rec calibrate budget_ms =
    let ms = Probe.calibrate () in
    cal := ms :: !cal;
    if ms > 0. && ms < budget_ms then calibrate (budget_ms -. ms)
  in
  let walls = ref [] and traced = ref [] and untraced = ref [] in
  let attempted = ref 0 and failed = ref 0 and last_ms = ref 0. in
  let modelled = ref [] and peak_rss = ref 0. in
  let start = now () in
  let i = ref 0 in
  while !i < w.window || now () -. start < opts.seconds do
    probe.Probe.session <- !i;
    probe.Probe.tracing <- opts.trace && !i mod 2 = 0;
    w.prepare !i;
    calibrate (0.02 *. !last_ms);
    let t0 = now () in
    let out = w.step !i in
    let dt = now () -. t0 in
    last_ms := dt *. 1e3;
    walls := dt :: !walls;
    attempted := !attempted + out.ops;
    failed := !failed + out.failed;
    let per_op = dt *. 1e3 /. float_of_int (max 1 out.ops) in
    if probe.Probe.tracing then traced := per_op :: !traced
    else untraced := per_op :: !untraced;
    if !i = w.window - 1 then begin
      modelled := w.layers ();
      (* a fixed amount of work: sustained I/O grows the program's heap,
         so a peak read at the end would grow with the host's speed *)
      peak_rss := Probe.peak_rss_mib ()
    end;
    incr i
  done;
  probe.Probe.tracing <- false;
  let host = w.finish () in
  let alloc_mib = (Probe.allocated_bytes () -. alloc0) /. 1048576. in
  (* the lower quartile: a pass that meets a major collection of the
     previous unit's garbage can only read slower *)
  let cal_ms = Stats.percentile (Array.of_list !cal) 0.25 in
  let speed = Catalogue.nominal_calibration_ms /. cal_ms in
  let raw_ms_per_op =
    Stats.sum (Array.of_list !walls) *. 1e3 /. float_of_int (max 1 !attempted)
  in
  let e2e =
    [
      ("host_ms_per_op", raw_ms_per_op *. speed);
      ("peak_rss_mib", !peak_rss);
      ("setup_s", Stats.median setups *. speed);
    ]
  in
  let overhead =
    match (!traced, !untraced) with
    | _ :: _, _ :: _ ->
        [
          ( "trace.overhead_pct",
            (Stats.median (Array.of_list !traced)
             /. Stats.median (Array.of_list !untraced)
            -. 1.)
            *. 100. );
        ]
    | _ -> []
  in
  let measured =
    e2e @ !modelled @ host @ overhead
    @ [
        ("host.raw_wall_ms_per_op", raw_ms_per_op);
        ("host.calibration_ms", cal_ms);
        ("gc.alloc_mib_per_op", alloc_mib /. float_of_int (max 1 !attempted));
      ]
  in
  List.iter
    (fun (k, v) ->
      if Catalogue.find k = None then failwith ("metric missing from the catalogue: " ^ k);
      if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is %f" k v))
    measured;
  let value (m : Catalogue.metric) =
    (m, Option.value ~default:0. (List.assoc_opt m.Catalogue.name measured))
  in
  let all = List.map value (Catalogue.end_to_end @ Catalogue.per_layer) in
  (w, probe, !i, { attempted = !attempted; failed = !failed; metrics = all })

let only group metrics = List.filter (fun (m, _) -> List.memq m group) metrics

let print_metrics metrics =
  List.iter
    (fun ((m : Catalogue.metric), v) ->
        Printf.printf "  %-40s %16s %-6s %s\n" m.Catalogue.name (Json.num_to_string v)
          m.Catalogue.unit_
          (match m.Catalogue.clock with Catalogue.V -> "virtual" | Catalogue.W -> "host"))
    metrics

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_trace dir (w : workload) probe (r : report) ~seed =
  mkdir_p dir;
  let path suffix = Filename.concat dir (w.name ^ suffix) in
  Json.write_file (path ".trace.json") (Probe.chrome_trace probe ~host:(w.observed ()));
  Json.write_file (path ".layers.json")
    (Json.Obj
       [
         ("workload", Json.Str w.name);
         ("seed", Json.Num (float_of_int seed));
         ("metrics", metrics_json (only Catalogue.per_layer r.metrics));
         ("spans", Json.Obj (Probe.self_times probe));
       ])

(* The driver-facing entry: human-readable lines, then the result as the
   last line of stdout. A failed check raises [Rig.Check_failed]. *)
let main opts make =
  let w, probe, units, r = execute opts make in
  Printf.printf
    "workload %s seed %d: %d units (the first %d modelled), %d ops attempted, \
     %d failed\n"
    w.name opts.seed units w.window r.attempted r.failed;
  List.iter (fun l -> Printf.printf "  %s\n" l) (w.notes ());
  Printf.printf "end-to-end:\n";
  print_metrics (only Catalogue.end_to_end r.metrics);
  if opts.trace then begin
    Printf.printf "per-layer:\n";
    print_metrics (only Catalogue.per_layer r.metrics);
    Option.iter (fun dir -> write_trace dir w probe r ~seed:opts.seed) opts.trace_dir
  end;
  let shown = if opts.trace then Catalogue.per_layer else Catalogue.end_to_end in
  print_endline (Json.to_string (report_json { r with metrics = only shown r.metrics }))

(* Run [exe] with [args] in a child process; its stdout lines and
   whether it exited 0. *)
let child exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  (out, snd (Unix.waitpid [] pid) = Unix.WEXITED 0)
