(* Crash-point sweep: the robustness gate for transactional attach.

   For every fault class (plus a fault-free lane) the sweep first runs a
   probe attach with the crash point parked beyond reach to learn Y, the
   number of cooperative yield points the attach path crosses, then
   re-runs the attach Y more times with [abort-at-yield(k)] armed for
   every k in [0, Y). Each point boots a fresh simulated machine, so the
   points are independent and can be interleaved by the virtual-time
   scheduler (the fleet-shaped crash matrix).

   Each point is one {!Session} run, and every aborted point must
   satisfy its three post-conditions:
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
  pt_outcome : string;  (** ["completed"] / ["aborted"] / ["clean-fail"] *)
  pt_oracle : string list;  (** oracle discrepancies; [[]] = restored *)
  pt_leaked_fds : int;  (** host-wide open-fd delta after the point *)
  pt_unclean : string option;
      (** escaped exception, or how an attached session broke (dead
          console, failed detach), if any *)
  pt_digest : string;  (** {!Vmsh.Snapshot.digest} of the final guest state *)
  pt_events : Trace.event list;  (** the point's flight recording *)
  pt_virtual_ns : float;  (** the point's virtual clock at the end *)
  pt_verdict : Faults.Abort.verdict;  (** the session harness's verdict *)
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
   plan. [k = None] is the probe (crash point parked at max_int);
   returns the point and, for the probe, the yield count the attach
   crossed. [?plan] lets the trace-mutation fuzzer run the same harness
   under its own scripted fault plan instead of the sweep's class
   arming. [?baseline] stands the point's machine up as a CoW fork of a
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
  let point =
    {
      pt_class =
        (match hostile with
        | Some h -> "hostile-" ^ Hostile.name h
        | None -> class_label cls);
      pt_yield = Option.value k ~default:(-1);
      pt_outcome =
        (match r.Session.outcome with
        | Session.Completed | Session.Broken _ -> "completed"
        | Session.Aborted (Vmsh.Vmsh_error.Attach_aborted (Crash_point _)) ->
            "aborted"
        | Session.Aborted _ -> "clean-fail"
        | Session.Escaped _ -> "unclean");
      pt_oracle = r.Session.oracle;
      pt_leaked_fds = r.Session.leaked_fds;
      pt_unclean =
        (match r.Session.outcome with
        | Session.Broken m -> Some m
        | Session.Escaped e -> Some (Printexc.to_string e)
        | Session.Completed | Session.Aborted _ -> None);
      pt_digest = r.Session.digest;
      pt_events = Trace.Recorder.events host.H.Host.recorder;
      pt_virtual_ns = H.Clock.now_ns host.H.Host.clock;
      pt_verdict = r.Session.verdict;
    }
  in
  (* a bug verdict leaves a replayable artifact when
     VMSH_TRACE_DIR is set (CI uploads them) *)
  if Faults.Abort.is_bug point.pt_verdict then
    ignore
      (Trace.dump_on_failure host.H.Host.recorder
         ~name:(Printf.sprintf "sweep-%s-k%d" point.pt_class point.pt_yield)
         ());
  (point, r.Session.yields)

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
        let probe, yields = point None in
        let ks = List.init (min yields max_yields) Fun.id in
        probe
        :: run_batched ~vms (List.map (fun k () -> fst (point (Some k))) ks))
      cells
  in
  let count f = List.length (List.filter f points) in
  {
    sw_points = points;
    sw_classes = List.length cells;
    sw_oracle_pass = count (fun p -> p.pt_oracle = []);
    sw_oracle_fail = count (fun p -> p.pt_oracle <> []);
    sw_leaked_fds = List.fold_left (fun a p -> a + max 0 p.pt_leaked_fds) 0 points;
    sw_unclean = count (fun p -> p.pt_unclean <> None);
  }

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

let ok r = r.sw_oracle_fail = 0 && r.sw_leaked_fds = 0 && r.sw_unclean = 0

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
  set "sweep.aborted"
    (List.length (List.filter (fun p -> p.pt_outcome = "aborted") r.sw_points));
  set "sweep.completed"
    (List.length (List.filter (fun p -> p.pt_outcome = "completed") r.sw_points));
  (* per-cell-class coverage, so the CI gates can prove every class
     (fault or hostile) actually swept at least one cell *)
  List.iter
    (fun p ->
      Observe.Metrics.incr
        (Observe.Metrics.counter mx ("sweep.cells." ^ p.pt_class)))
    r.sw_points

let pp_point ppf p =
  Format.fprintf ppf "%-13s k=%-3s %-10s oracle=%-5s fds=%+d%s%s"
    p.pt_class
    (if p.pt_yield < 0 then "Y" else string_of_int p.pt_yield)
    p.pt_outcome
    (if p.pt_oracle = [] then "pass" else "FAIL")
    p.pt_leaked_fds
    (match p.pt_unclean with Some m -> " UNCLEAN: " ^ m | None -> "")
    (match p.pt_oracle with [] -> "" | d :: _ -> " (" ^ d ^ ")")
