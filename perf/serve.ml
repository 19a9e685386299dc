(* serve: open loop. Each unit is one [Service.Dispatch.run]: Poisson
   arrivals from the default four tenants into a small worker pool,
   every job a full session on its own machine. Arrivals are virtual,
   so the generator cannot run late; a job's latency runs from its
   arrival at the frontend to its completion. The seed picks every
   unit's service seed, which drives the arrival stream, the tenants
   and the job seeds. *)

open Rig
module SD = Service.Dispatch
module Job = Service.Job

(* Half the paper harness's 8 workers keeps resident memory small. The
   rate is 75% of this configuration's knee, 500/s: the highest rate at
   which 150 jobs' backlog drained with the arrivals (the last completion
   within 5% of the last arrival) for each of three seeds, where 550/s
   saturated one. A job executes in 7.95 ms, so 4 workers serve about
   500/s. perf/README.md has the sweep. *)
let workers = 4
let rate = 375.

(* Every job attaches, detaches and runs the rollback oracle: the
   default mix's seeded share of oracle-free and fault-injection kinds
   changed a run's host cost per job by 10% from seed to seed. *)
let mix = [ (SD.M_attach_detach, 1) ]

let make (ctx : Run.ctx) =
  let jobs = if ctx.Run.quick then 10 else 40 in
  let probe = ctx.Run.probe and acc = ctx.Run.acc in
  let merged = ref (Observe.Metrics.create ()) in
  let step i =
    let seed = (ctx.Run.seed * 7_919) + i in
    let cfg =
      { SD.default_config with SD.jobs; workers; rate; seed; ram_mb = 16; mix }
    in
    let r = Probe.call probe "serve-run" (fun () -> SD.run cfg) in
    let mx = registry r.SD.rp_host in
    let submitted = counter mx "service.submitted" in
    let answered = counter mx "service.client.accepted" + counter mx "service.client.rejected" in
    check (submitted = jobs && answered = submitted)
      "unit %d: %d jobs sent, %d submitted, %d accepted+rejected" i jobs submitted answered;
    check (r.SD.rp_leaked_workers = 0) "unit %d: %d workers leaked" i r.SD.rp_leaked_workers;
    check (counter mx "service.lost_jobs" = 0) "unit %d: jobs lost" i;
    let first = ref Float.infinity in
    Array.iter
      (fun jr ->
        first := Float.min !first jr.SD.jr_submit_ns;
        if jr.SD.jr_status = Job.Completed then begin
          Acc.add acc "e2e_ns" (jr.SD.jr_end_ns -. jr.SD.jr_submit_ns);
          Acc.add acc "wait_ns" (jr.SD.jr_start_ns -. jr.SD.jr_submit_ns);
          Acc.add acc "exec_ns" (jr.SD.jr_end_ns -. jr.SD.jr_start_ns)
        end)
      r.SD.rp_records;
    Acc.add acc "completed" (float_of_int (SD.completed r));
    Acc.add acc "span_ns" (r.SD.rp_makespan_ns -. !first);
    Acc.add acc "shed" (float_of_int (counter mx "service.shed"));
    Acc.add acc "submitted" (float_of_int submitted);
    Acc.add acc "depth_max"
      (match histogram mx "service.queue.depth" with
      | Some hs -> Observe.Metrics.max_value hs
      | None -> 0.);
    Observe.Metrics.merge_into ~into:!merged mx;
    let failed = SD.failed r in
    if failed > 0 then Printf.eprintf "serve: unit %d: %d jobs failed\n%!" i failed;
    { Run.ops = jobs; failed }
  in
  let layers () =
    let mx = !merged in
    let e2e = Acc.get acc "e2e_ns" and wait = Acc.get acc "wait_ns" in
    let exec = Acc.get acc "exec_ns" in
    let ms xs p = Stats.percentile xs p /. 1e6 in
    (* job sessions run inside the service, so attach is read from the
       stage.attach.* histograms every session folded into the service
       registry; their exact sums bound every attach's unphased time *)
    let attach_n =
      match histogram mx "stage.attach.total_ns" with
      | Some hs -> Observe.Metrics.count hs
      | None -> 0
    in
    let phase_sum =
      List.fold_left
        (fun a p ->
          a +. match histogram mx (stage_name p) with
               | Some hs -> Observe.Metrics.mean hs *. float_of_int (Observe.Metrics.count hs)
               | None -> 0.)
        0. Catalogue.attach_phases
    in
    let total_sum =
      match histogram mx "stage.attach.total_ns" with
      | Some hs -> Observe.Metrics.mean hs *. float_of_int attach_n
      | None -> 0.
    in
    check
      (Float.abs (total_sum -. phase_sum) <= float_of_int attach_n)
      "service attaches: phases sum to %.0f ns of %.0f ns" phase_sum total_sum;
    let hits = counter mx "symcache.hits" and misses = counter mx "symcache.misses" in
    [
      ("service.e2e_ms.p50", ms e2e 0.5);
      ("service.e2e_ms.p90", ms e2e 0.9);
      ("service.goodput_jobs_s", Acc.total acc "completed" /. (Acc.total acc "span_ns" /. 1e9));
      ("service.wait_ms.p50", ms wait 0.5);
      ("service.wait_ms.p90", ms wait 0.9);
      ("service.exec_ms.p50", ms exec 0.5);
      ("service.exec_ms.p90", ms exec 0.9);
      ("service.queue_depth.max", Stats.max_of (Acc.get acc "depth_max"));
      ("service.shed_ratio", Acc.total acc "shed" /. Acc.total acc "submitted");
      ("vmsh.attach_ms.p50", hist_p mx "stage.attach.total_ns" 50. /. 1e6);
      ("vmsh.attach_ms.p90", hist_p mx "stage.attach.total_ns" 90. /. 1e6);
      ("vmsh.attach.unphased_ns.max", Float.abs (total_sum -. phase_sum));
      ("vmsh.symcache.hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)));
    ]
    @ List.map
        (fun p -> (Catalogue.phase_metric p, hist_p mx (stage_name p) 50. /. 1e3))
        Catalogue.attach_phases
    @ console_layers mx
  in
  {
    Run.name = "serve";
    (* how many jobs overlap depends on the seeded arrival stream: peak
       RSS after two units differed by 10% from seed to seed, after four
       by 3% *)
    window = (if ctx.Run.quick then 1 else 4);
    setup =
      (fun () ->
        ignore (step 0);
        merged := Observe.Metrics.create ());
    prepare = ignore;
    step;
    layers;
    finish = (fun () -> []);
    notes =
      (fun () ->
        [
          Printf.sprintf "%d jobs per unit at %.0f/s into %d workers" jobs rate workers;
        ]);
    observed = (fun () -> None);
  }
