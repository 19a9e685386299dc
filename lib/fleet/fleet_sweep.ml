(* Crash-point sweep: the robustness gate for transactional attach.

   For every fault class (plus a fault-free lane) the sweep first runs a
   probe attach with the crash point parked beyond reach to learn Y, the
   number of cooperative yield points the attach path crosses, then
   re-runs the attach Y more times with [abort-at-yield(k)] armed for
   every k in [0, Y). Each point boots a fresh simulated machine, so the
   points are independent and can be interleaved by the virtual-time
   scheduler (the fleet-shaped crash matrix).

   Each point is one {!Session} run and keeps its report; the gate
   reads the report's verdict. Every aborted point must satisfy its
   three post-conditions:
   - the attach fails with a typed {!Vmsh.Vmsh_error.t} (an escaped
     exception is reported as unclean);
   - the snapshot oracle finds guest memory and vCPU registers
     byte-identical to the pre-attach capture, modulo pages the guest
     itself dirtied;
   - the host-wide open-descriptor count returns to its pre-attach
     value (nothing leaked in the VMSH process or the hypervisor). *)

module H = Hostos

type point = {
  pt_class : string;  (** armed fault class, or ["fault-free"] *)
  pt_yield : int;  (** k of [abort-at-yield(k)]; the probe uses [-1] *)
  pt_report : Session.report;
      (** outcome, oracle discrepancies, fd delta, digest (already
          forced) and verdict *)
  pt_events : Trace.event list;  (** the point's flight recording *)
}

type report = {
  sw_points : point list;
  sw_classes : int;
  sw_oracle_pass : int;
  sw_oracle_fail : int;
  sw_leaked_fds : int;
  sw_unclean : int;
}

let fault_free = "fault-free"
let class_label = function Some c -> Faults.name c | None -> fault_free

(* A cell's recipe as trace metadata: [vmsh trace replay] re-runs the
   cell from the file alone. The "boot" and "hostile" keys are written
   only for forked and hostile cells, so plain-sweep recordings stay
   byte-identical to earlier versions. *)
let cell_meta ~seed ~cls ~k ~fork ~hostile =
  [
    ("scenario", "sweep-cell");
    ("sweep-seed", string_of_int seed);
    ("class", cls);
    ("k", string_of_int k);
  ]
  @ (if fork then [ ("boot", "fork") ] else [])
  @ if hostile = "" then [] else [ ("hostile", hostile) ]

(* One sweep point: a {!Session} on a fresh machine under the armed
   plan. [k = None] is the probe (crash point parked at max_int); its
   report's [yields] is the yield count the attach crossed. [?plan]
   lets the trace-mutation fuzzer run the same harness under its own
   scripted fault plan instead of the sweep's class arming.
   [?baseline] stands the point's machine up as a CoW fork of a
   baked image instead of a cold boot, so the crash matrix also covers
   forked sessions — the rollback oracle then proves restoration
   through the overlay. [?hostile] races the attach against a seeded
   adversarial guest stepping at every yield point. *)
let run_point ?log_level ?plan ?baseline ?hostile ~seed ~cls ~k () =
  let host = H.Host.create ~seed () in
  Option.iter (Observe.set_log_level host.H.Host.observe) log_level;
  List.iter
    (fun (key, v) -> Trace.Recorder.set_meta host.H.Host.recorder key v)
    (cell_meta ~seed ~cls:(class_label cls)
       ~k:(Option.value k ~default:(-1))
       ~fork:(baseline <> None)
       ~hostile:(match hostile with Some h -> Hostile.name h | None -> ""));
  let plan =
    match plan with
    | Some p -> p
    | None ->
        let p =
          Faults.create ~seed:((seed * 31) + Option.value k ~default:0)
            ~rate:0.0 ()
        in
        (match cls with
        | Some c -> Faults.set_class p c ~rate:1.0 ~cap:2
        | None -> ());
        p
  in
  Faults.set_abort_at_yield plan (Some (Option.value k ~default:max_int));
  let boot =
    match baseline with
    | None -> Session.cold "sweep-vm"
    | Some image -> Session.Fork { image; hostname = "sweep-vm" }
  in
  let r =
    Session.run ~host
      (Session.spec ~plan ?hostile:(Option.map (fun h -> (h, seed)) hostile)
         boot)
  in
  (* a point outlives its host: force the digest now so the point
     retains no guest memory *)
  ignore (Lazy.force r.Session.digest : string);
  let point =
    {
      pt_class =
        (match hostile with
        | Some h -> "hostile-" ^ Hostile.name h
        | None -> class_label cls);
      pt_yield = Option.value k ~default:(-1);
      pt_report = r;
      pt_events = Trace.Recorder.events host.H.Host.recorder;
    }
  in
  (* a bug verdict leaves a replayable artifact when
     VMSH_TRACE_DIR is set (CI uploads them) *)
  if Faults.Abort.is_bug r.Session.verdict then
    ignore
      (Trace.dump_on_failure host.H.Host.recorder
         ~name:(Printf.sprintf "sweep-%s-k%d" point.pt_class point.pt_yield)
         ());
  point

(* Run [points] thunks, [vms] at a time, on the virtual-time scheduler
   (vms = 1 degenerates to a plain sequential loop). Every point has
   its own host, so fibers only interleave at the attach path's yield
   points — the same seam the fleet engine exercises. *)
let run_batched ~vms thunks =
  if vms <= 1 then List.map (fun f -> f ()) thunks
  else begin
    let results = Array.make (List.length thunks) None in
    let rec batches i = function
      | [] -> ()
      | rest ->
          let batch = List.filteri (fun j _ -> j < vms) rest in
          let rest' = List.filteri (fun j _ -> j >= vms) rest in
          let sched = Sched.create () in
          List.iteri
            (fun j f ->
              let clock = H.Clock.create () in
              Sched.spawn sched ~name:(Printf.sprintf "pt%d" (i + j)) ~clock
                (fun () -> results.(i + j) <- Some (f ())))
            batch;
          ignore (Sched.run sched);
          batches (i + List.length batch) rest'
    in
    batches 0 thunks;
    List.filter_map Fun.id (Array.to_list results)
  end

(* A hang, an escaped exception or a broken session; oracle divergence
   and leaks have their own counters. *)
let unclean = function
  | Faults.Abort.Bug (Hang _ | Escaped _ | Broken _) -> true
  | _ -> false

(* The sweep's counts over its points. *)
let tally ~classes points =
  let count f = List.length (List.filter (fun p -> f p.pt_report) points) in
  {
    sw_points = points;
    sw_classes = classes;
    sw_oracle_pass = count (fun r -> r.Session.oracle = []);
    sw_oracle_fail = count (fun r -> r.Session.oracle <> []);
    sw_leaked_fds =
      List.fold_left
        (fun a p -> a + max 0 p.pt_report.Session.leaked_fds)
        0 points;
    sw_unclean = count (fun r -> unclean r.Session.verdict);
  }

(* The matrix: for every cell — a fault class, or a hostile class with
   no fault armed — a probe learns Y, then abort-at-yield(k) runs for
   every k below Y (capped at [max_yields]). *)
let matrix ?log_level ?baseline ~seed ~vms ~max_yields cells =
  let points =
    List.concat_map
      (fun (cls, hostile) ->
        let point k =
          run_point ?log_level ?baseline ?hostile ~seed ~cls ~k ()
        in
        let probe = point None in
        let yields = probe.pt_report.Session.yields in
        let ks = List.init (min yields max_yields) Fun.id in
        probe :: run_batched ~vms (List.map (fun k () -> point (Some k)) ks))
      cells
  in
  tally ~classes:(List.length cells) points

let run ?(seed = 5) ?classes ?(vms = 1) ?(max_yields = 256) ?log_level
    ?baseline () =
  let classes =
    match classes with
    | Some cs -> cs
    | None -> None :: List.map Option.some Faults.all
  in
  matrix ?log_level ?baseline ~seed ~vms ~max_yields
    (List.map (fun c -> (c, None)) classes)

(* The hostile-guest chaos matrix: hostile-class × crash-point cells.
   Each cell runs a seeded adversarial guest (see {!Hostile}) stepping
   at every yield point while the crash point is additionally
   enumerated — the attack races both the attach and its rollback.
   Post-conditions are identical to the fault matrix. *)
let run_hostile ?(seed = 11) ?classes ?(vms = 1) ?(max_yields = 256) ?log_level
    ?baseline () =
  let classes = Option.value classes ~default:Hostile.all in
  matrix ?log_level ?baseline ~seed ~vms ~max_yields
    (List.map (fun h -> (None, Some h)) classes)

let ok r =
  not
    (List.exists (fun p -> Faults.Abort.is_bug p.pt_report.Session.verdict)
       r.sw_points)

(* The point's outcome column: a crash-point abort told apart from any
   other typed attach failure; a broken session did complete. *)
let outcome p =
  match p.pt_report.Session.outcome with
  | Session.Completed | Session.Broken _ | Session.Detach_failed _ ->
      "completed"
  | Session.Aborted (Vmsh.Vmsh_error.Attach_aborted (Crash_point _)) ->
      "aborted"
  | Session.Aborted _ -> "clean-fail"
  | Session.Escaped _ -> "unclean"

let record mx r =
  let set name v =
    Observe.Metrics.set_counter (Observe.Metrics.counter mx name) v
  in
  set "sweep.points" (List.length r.sw_points);
  set "sweep.classes" r.sw_classes;
  set "sweep.oracle_pass" r.sw_oracle_pass;
  set "sweep.oracle_fail" r.sw_oracle_fail;
  set "sweep.leaked_fds" r.sw_leaked_fds;
  set "sweep.unclean" r.sw_unclean;
  let outcomes o =
    List.length (List.filter (fun p -> outcome p = o) r.sw_points)
  in
  set "sweep.aborted" (outcomes "aborted");
  set "sweep.completed" (outcomes "completed");
  (* per-cell-class coverage, so the CI gates can prove every class
     (fault or hostile) actually swept at least one cell *)
  List.iter
    (fun p ->
      Observe.Metrics.incr
        (Observe.Metrics.counter mx ("sweep.cells." ^ p.pt_class)))
    r.sw_points

let pp_point ppf p =
  let r = p.pt_report in
  Format.fprintf ppf "%-13s k=%-3s %-10s oracle=%-5s fds=%+d%s%s"
    p.pt_class
    (if p.pt_yield < 0 then "Y" else string_of_int p.pt_yield)
    (outcome p)
    (if r.Session.oracle = [] then "pass" else "FAIL")
    r.Session.leaked_fds
    (if unclean r.Session.verdict then
       " UNCLEAN: " ^ Faults.Abort.detail r.Session.verdict
     else "")
    (match r.Session.oracle with [] -> "" | d :: _ -> " (" ^ d ^ ")")
