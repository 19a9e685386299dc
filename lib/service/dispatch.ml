(* The vmsh job service: a deterministic dispatcher multiplexing a
   bounded worker pool over the virtual-time scheduler.

   Shape of a run:

   - A frontend host owns the service clock, the admission state, the
     service-wide metrics registry, and the flight recorder for
     admission events (service.enqueue / admit / shed).
   - A driver fiber replays a seeded open-loop arrival process: for
     each job it advances the clock by a profile-drawn inter-arrival
     gap, serializes the job onto a lib/net link (the same HTTP-ish
     workload protocol the traffic generators speak), and pumps the
     fabric. The frontend's link handler parses the request, runs
     admission, and answers 202/429 on the wire.
   - There are no persistent worker fibers. A "worker" is a slot in a
     bookkeeping array (busy flag + free-at time); dispatching a job
     spawns a fresh fiber whose private host clock is pre-advanced to
     the dispatch instant, so every timestamp the session ever records
     sits on the one coherent service timeline and the scheduler's
     min-clock pick interleaves job sessions exactly as N real
     processes would. Dispatch is attempted when a job arrives and when
     a job completes — the only instants at which a worker can free up.
   - Every job is one {!Fleet.Session} run on its own host / VMM /
     guest, with the fault plan (and adversary) its kind arms; the
     session's attach journal, rollback oracle and fd-leak check are
     the same ones the fleet and the sweep run, and [status_of_verdict]
     maps the session's verdict to the job's status. Each job's
     flight recording carries its own recipe (scenario=serve-job), so
     any job replays alone; failing jobs dump it as a .vmshtrace
     artifact.

   Everything downstream of (config, seed) is deterministic: the
   admission decisions, the dispatch order, every per-job latency, the
   metrics export, and the results file are byte-identical across
   runs. *)

module H = Hostos
module Packet = Linux_guest.Netstack.Packet
module Frame = Net.Frame
module E = Vmsh.Vmsh_error

type arrivals = Poisson | Bursty | Ramp

let arrivals_to_string = function
  | Poisson -> "poisson"
  | Bursty -> "bursty"
  | Ramp -> "ramp"

let arrivals_of_string = function
  | "poisson" -> Some Poisson
  | "bursty" -> Some Bursty
  | "ramp" -> Some Ramp
  | _ -> None

(* Job-kind mix, drawn per arrival from the driver RNG. *)
type mix_kind = M_attach | M_attach_detach | M_sweep | M_fuzz

type config = {
  workers : int;
  jobs : int;
  seed : int;
  rate : float;  (** mean arrivals per virtual second *)
  arrivals : arrivals;
  tenants : Admission.tenant_cfg list;
  mix : (mix_kind * int) list;  (** kind, weight *)
  hostile_tenant : (string * string) option;
      (** [(tenant, cls)]: every arrival drawn for [tenant] becomes a
          {!Job.Hostile_attach} of that adversarial class — one
          misbehaving tenant inside an otherwise clean stream *)
  deadline_ns : float;  (** per-job relative deadline; [0.] = none *)
  ram_mb : int;
  log_level : Observe.level option;
}

(* Four tenants; t0 is the hot one — over half the arrival share but a
   tight token bucket, so under load it sheds while t1..t3 ride
   unthrottled. The shape the fairness gate asserts. *)
let default_tenants =
  [
    {
      (Admission.default_tenant "t0") with
      Admission.tc_share = 5;
      tc_rate = 120.;
      tc_burst = 20.;
      tc_queue = 64;
      tc_weight = 1;
    };
    { (Admission.default_tenant "t1") with Admission.tc_share = 2; tc_weight = 2 };
    { (Admission.default_tenant "t2") with Admission.tc_share = 2; tc_weight = 2 };
    { (Admission.default_tenant "t3") with Admission.tc_share = 1; tc_weight = 1 };
  ]

let default_mix =
  [ (M_attach, 60); (M_attach_detach, 25); (M_sweep, 10); (M_fuzz, 5) ]

let default_config =
  {
    workers = 8;
    jobs = 1000;
    seed = 17;
    rate = 600.;
    arrivals = Poisson;
    tenants = default_tenants;
    mix = default_mix;
    hostile_tenant = None;
    deadline_ns = 0.;
    (* 32 MiB guests (64 elsewhere): enough to boot and attach, and it
       bounds the real memory of [workers] concurrent sessions times
       the churn of a thousand-job stream *)
    ram_mb = 32;
    log_level = None;
  }

type job_record = {
  jr_job : Job.t;
  jr_status : Job.status;
  jr_submit_ns : float;
  jr_start_ns : float;  (** [nan] when the job never reached a worker *)
  jr_end_ns : float;
  jr_worker : int;  (** [-1] when the job never reached a worker *)
}

type report = {
  rp_config : config;
  rp_records : job_record array;  (** indexed by job id *)
  rp_host : H.Host.t;
      (** the frontend host: service-wide metrics registry (with every
          session's registry merged in) and the admission flight
          recording *)
  rp_stats : (string * Admission.tenant_stats) list;
  rp_yields : int;
  rp_makespan_ns : float;  (** last completion instant *)
  rp_leaked_workers : int;  (** workers still marked busy at the end *)
}

(* --- per-job sessions ------------------------------------------------- *)

(* A serve job's recipe as trace metadata, tagged on its machine's
   flight recorder and written by [vmsh trace record]. [start-ns] is
   printed exactly, so a replay lands every timestamp where the live
   job's did. The "symcache" key is added once the session knows
   whether its analysis hit the shared cache. *)
let job_meta ~(job : Job.t) ~start_ns ~ram_mb ~worker =
  [
    ("scenario", "serve-job");
    ("job", string_of_int job.Job.id);
    ("tenant", job.Job.tenant);
    ("kind", Job.kind_to_string job.Job.kind);
    ("job-seed", string_of_int job.Job.seed);
    ("start-ns", Printf.sprintf "%.17g" start_ns);
    ("ram-mb", string_of_int ram_mb);
    ("worker", string_of_int worker);
  ]

(* Build the simulated machine a job will run on. Its clock is
   pre-advanced to the dispatch instant, so every timestamp the session
   records — and the scheduler's min-clock pick — sits on the service
   timeline. *)
let prepare_host ~(job : Job.t) ~start_ns ~ram_mb ?log_level ~worker () =
  let host = H.Host.create ~seed:job.Job.seed () in
  Option.iter (Observe.set_log_level host.H.Host.observe) log_level;
  H.Clock.advance host.H.Host.clock start_ns;
  Trace.Recorder.set_session host.H.Host.recorder job.Job.id;
  List.iter
    (fun (k, v) -> Trace.Recorder.set_meta host.H.Host.recorder k v)
    (job_meta ~job ~start_ns ~ram_mb ~worker);
  Trace.Recorder.record host.H.Host.recorder ~kind:"service.start"
    ~args:[ ("job", Trace.I job.Job.id); ("worker", Trace.I worker) ]
    ();
  host

(* The fault plan and adversary a job kind arms on its session. *)
let job_arming (job : Job.t) =
  match job.Job.kind with
  | Job.Attach | Job.Attach_detach -> (None, None)
  | Job.Fuzz_seed { boost } ->
      (* cap 4 injections per class — fewer consecutive faults than the
         6-attempt retry bound, so transient schedules are always
         survivable and a fuzz job failure means a real bug (the same
         calibration the bench's recovery scenario documents) *)
      let plan =
        Faults.create ~seed:((job.Job.seed * 31) + 7) ~rate:0.25 ~cap:4 ()
      in
      (match Faults.of_name boost with
      | Some c -> Faults.set_class plan c ~rate:1.0 ~cap:2
      | None -> ());
      (Some plan, None)
  | Job.Sweep_cell { cls; k } ->
      let plan = Faults.create ~seed:((job.Job.seed * 31) + k) ~rate:0.0 () in
      (match Faults.of_name cls with
      | Some c -> Faults.set_class plan c ~rate:1.0 ~cap:2
      | None -> ());
      Faults.set_abort_at_yield plan (Some k);
      (Some plan, None)
  | Job.Hostile_attach { cls } -> (
      (* a rate-0 plan injects no faults; it only carries the yield hook
         the in-guest adversary steps from, exactly as the chaos matrix
         arms it *)
      match Hostile.of_name cls with
      | None -> (None, None)
      | Some c ->
          ( Some (Faults.create ~seed:((job.Job.seed * 31) + 13) ~rate:0.0 ()),
            Some (c, job.Job.seed) ))

(* The verdict table: the plain attach kinds must complete; the
   survival kinds (fuzz, sweep cell, hostile) also count a clean abort
   that rolled the guest back and leaked nothing as a success. A bug
   verdict (escaped exception, oracle divergence, leak, hang, dead
   console) fails every kind. *)
let status_of_verdict kind (v : Faults.Abort.verdict) =
  match (v, kind) with
  | Survived, _ -> Job.Completed
  | Clean_abort m, (Job.Attach | Job.Attach_detach) -> Job.Failed m
  | Clean_abort _, (Job.Fuzz_seed _ | Job.Sweep_cell _ | Job.Hostile_attach _)
    ->
      Job.Completed
  | Bug m, _ -> Job.Failed m

let symcache_hits host =
  match
    List.find_opt
      (fun c -> Observe.Metrics.counter_name c = "symcache.hits")
      (Observe.Metrics.counters (Observe.metrics host.H.Host.observe))
  with
  | Some c -> Observe.Metrics.counter_value c
  | None -> 0

(* Execute one job's session on [host] and map its verdict to the
   job's terminal status. Never raises. Also the replay path for
   serve-job .vmshtrace artifacts. *)
let execute_on ~host ~(job : Job.t) ~ram_mb ~cache () =
  let plan, hostile = job_arming job in
  let r =
    Fleet.Session.run ~host
      (Fleet.Session.spec ?plan ?hostile ~cache
         (Fleet.Session.cold ~ram_mb (Printf.sprintf "job%d" job.Job.id)))
  in
  Trace.Recorder.set_meta host.H.Host.recorder "symcache"
    (if symcache_hits host > 0 then "warm" else "cold");
  Trace.Recorder.record host.H.Host.recorder ~kind:"service.complete"
    ~args:[ ("job", Trace.I job.Job.id) ]
    ();
  status_of_verdict job.Job.kind r.Fleet.Session.verdict

(* A symbol cache in the state a live job finds once the service has
   analysed the kernel, for replaying a job that hit it. (A job that
   missed replays against an empty cache: a miss with a cache armed
   costs what it cost live.) *)
let warm_cache ~ram_mb =
  let cache = Vmsh.Symbol_analysis.Cache.create () in
  ignore
    (Fleet.Session.run ~host:(H.Host.create ~seed:0 ())
       (Fleet.Session.spec ~cache (Fleet.Session.cold ~ram_mb "warm-up")));
  cache

(* --- arrival processes --------------------------------------------- *)

(* Inter-arrival gap in virtual ns for arrival [i] of [jobs]. Open
   loop: the gaps are drawn up front from a dedicated RNG stream, so
   the offered load never adapts to service backlog. *)
let inter_arrival_ns rng ~cfg ~i =
  let exp_gap rate =
    (* inverse-CDF exponential on the deterministic stream *)
    let u = H.Rng.float rng 1.0 in
    -.log (1. -. u) /. rate *. 1e9
  in
  match cfg.arrivals with
  | Poisson -> exp_gap cfg.rate
  | Bursty ->
      (* bursts of 8 back-to-back arrivals (1us apart), burst starts
         Poisson at rate/8 — same mean load, much spikier *)
      if i mod 8 <> 0 then 1_000. else exp_gap (cfg.rate /. 8.)
  | Ramp ->
      (* instantaneous rate climbs linearly 0.25x -> 1.75x across the
         run: the knee shows up inside a single stream *)
      let frac = float_of_int i /. float_of_int (max 1 cfg.jobs) in
      exp_gap (cfg.rate *. (0.25 +. (1.5 *. frac)))

let draw_weighted rng pairs ~weight =
  let total = List.fold_left (fun a x -> a + weight x) 0 pairs in
  let d = H.Rng.int rng (max 1 total) in
  let rec pick acc = function
    | [] -> List.hd pairs
    | x :: rest -> if d < acc + weight x then x else pick (acc + weight x) rest
  in
  pick 0 pairs

let draw_kind rng cfg =
  match fst (draw_weighted rng cfg.mix ~weight:snd) with
  | M_attach -> Job.Attach
  | M_attach_detach -> Job.Attach_detach
  | M_sweep ->
      let cls =
        Faults.name (List.nth Faults.all (H.Rng.int rng (List.length Faults.all)))
      in
      Job.Sweep_cell { cls; k = H.Rng.int rng 24 }
  | M_fuzz ->
      let boost =
        Faults.name (List.nth Faults.all (H.Rng.int rng (List.length Faults.all)))
      in
      Job.Fuzz_seed { boost }

(* --- the service run ----------------------------------------------- *)

let frontend_ip = Packet.make_ip 10 0 0 1
let client_ip = Packet.make_ip 10 0 0 2
let frontend_mac = Frame.make_mac ~vendor:0x0566 ~serial:0x5e7e
let client_mac = Frame.make_mac ~vendor:0x0566 ~serial:0xc11e
let jobs_port = 8080

(* One UDP datagram as an Ethernet frame on the ingress link; [src] and
   [dst] are (mac, ip, port) endpoints. *)
let udp_frame ~src:(src_mac, src_ip, src_port) ~dst:(dst_mac, dst_ip, dst_port)
    data =
  Frame.encode
    {
      Frame.src = src_mac;
      dst = dst_mac;
      ethertype = Frame.eth_ipv4;
      payload =
        Packet.encode
          {
            Packet.src_ip;
            dst_ip;
            proto = Packet.proto_udp;
            src_port;
            dst_port;
            seq = 0;
            flag = Packet.flag_data;
            data = Bytes.of_string data;
          };
    }

let run ?(on_finish = fun _ _ -> ()) (cfg : config) : report =
  if cfg.workers <= 0 then invalid_arg "Dispatch.run: workers must be positive";
  if cfg.jobs < 0 then invalid_arg "Dispatch.run: jobs must be >= 0";
  let front = H.Host.create ~seed:((cfg.seed * 7919) + 1) () in
  Option.iter (Observe.set_log_level front.H.Host.observe) cfg.log_level;
  let obs = front.H.Host.observe in
  let mx = Observe.metrics obs in
  let recorder = front.H.Host.recorder in
  List.iter
    (fun (k, v) -> Trace.Recorder.set_meta recorder k v)
    [
      ("scenario", "serve");
      ("serve-seed", string_of_int cfg.seed);
      ("workers", string_of_int cfg.workers);
      ("jobs", string_of_int cfg.jobs);
      ("rate", Printf.sprintf "%.0f" cfg.rate);
      ("arrivals", arrivals_to_string cfg.arrivals);
    ];
  let adm = Admission.create cfg.tenants in
  let cache = Vmsh.Symbol_analysis.Cache.create () in
  let sched = Sched.create () in
  let records = Array.make (max 1 cfg.jobs) None in
  (* worker pool bookkeeping: a slot, not a fiber *)
  let busy = Array.make cfg.workers false in
  let free_at = Array.make cfg.workers 0. in
  let busy_count = ref 0 in
  let driver_done = ref false in
  let svc_now = ref 0. in
  (* metrics *)
  let counter name = Observe.Metrics.counter mx name in
  let bump ?by name = Observe.Metrics.incr ?by (counter name) in
  let hist name = Observe.Metrics.histogram mx name in
  let h_e2e = hist "service.e2e_ns" in
  let h_wait = hist "service.wait_ns" in
  let h_exec = hist "service.exec_ns" in
  let h_depth = hist "service.queue.depth" in
  let g_depth = Observe.Metrics.gauge mx "service.queue.depth.now" in
  let record_event kind args =
    Trace.Recorder.record recorder ~kind
      ~args:(List.map (fun (k, v) -> (k, Trace.I v)) args)
      ()
  in
  let sample_depth () =
    let d = Admission.queued adm in
    Observe.Metrics.set_gauge g_depth (float_of_int d);
    Observe.Metrics.observe h_depth (float_of_int d)
  in
  let file_terminal (job : Job.t) ~status ~submit ~start ~end_ ~worker =
    records.(job.Job.id) <-
      Some
        {
          jr_job = job;
          jr_status = status;
          jr_submit_ns = submit;
          jr_start_ns = start;
          jr_end_ns = end_;
          jr_worker = worker;
        }
  in
  let shed (job : Job.t) ~now ~reason =
    bump "service.shed";
    bump (Printf.sprintf "service.shed.%s.%s" reason job.Job.tenant);
    record_event "service.shed" [ ("job", job.Job.id) ];
    Observe.log obs Observe.Info "serve: job %d (%s) shed: %s" job.Job.id
      job.Job.tenant reason;
    file_terminal job ~status:(Job.Shed reason) ~submit:now ~start:Float.nan
      ~end_:now ~worker:(-1)
  in
  (* Dispatch every runnable queued job. Called at the two instants a
     worker can become available or work can appear: a frame delivery
     (submission) and a job completion. When the driver has finished
     and every worker is idle but deferred work remains, virtual time
     jumps to the earliest eligibility instant — the drain phase. *)
  let rec maybe_dispatch ~now () =
    svc_now := Float.max !svc_now now;
    if !busy_count < cfg.workers then
      match Admission.dequeue adm ~now:!svc_now with
      | Some entry ->
          let job = entry.Admission.e_job in
          let submit = entry.Admission.e_submit_ns in
          (* worker slot: the idle one that freed up earliest *)
          let w = ref (-1) in
          for i = cfg.workers - 1 downto 0 do
            if not busy.(i) && (!w < 0 || free_at.(i) <= free_at.(!w)) then
              w := i
          done;
          let w = !w in
          (* start when worker and job were both ready, which can
             predate this dispatch instant (the decision naturally
             batches at arrival/completion events) *)
          let start =
            Float.max entry.Admission.e_eligible_ns
              (Float.max free_at.(w) entry.Admission.e_submit_ns)
          in
          if
            job.Job.deadline_ns > 0.
            && start > submit +. job.Job.deadline_ns
          then begin
            let late = int_of_float (start -. submit -. job.Job.deadline_ns) in
            bump "service.expired";
            bump ("service.expired." ^ job.Job.tenant);
            record_event "service.expired"
              [ ("job", job.Job.id); ("late", late) ];
            Observe.log obs Observe.Info "serve: job %d expired %dns late"
              job.Job.id late;
            file_terminal job ~status:(Job.Expired late) ~submit
              ~start:Float.nan ~end_:start ~worker:(-1);
            maybe_dispatch ~now ()
          end
          else begin
            busy.(w) <- true;
            incr busy_count;
            bump "service.dispatched";
            bump ("service.dispatched." ^ job.Job.tenant);
            let host_done host status =
              let end_ns = H.Clock.now_ns host.H.Host.clock in
              file_terminal job ~status ~submit ~start ~end_:end_ns ~worker:w;
              Observe.Metrics.observe h_e2e (end_ns -. submit);
              Observe.Metrics.observe h_wait (start -. submit);
              Observe.Metrics.observe h_exec (end_ns -. start);
              (match status with
              | Job.Completed ->
                  bump "service.completed";
                  bump ("service.completed." ^ job.Job.tenant)
              | Job.Failed err ->
                  bump "service.failed";
                  bump ("service.failed." ^ job.Job.tenant);
                  Observe.log obs Observe.Info "serve: job %d failed: %s"
                    job.Job.id err;
                  ignore
                    (Trace.dump_on_failure host.H.Host.recorder
                       ~name:
                         (Printf.sprintf "serve-s%d-job%d" cfg.seed job.Job.id)
                       ~extra_meta:[ ("error", err) ]
                       ())
              | Job.Shed _ | Job.Expired _ -> ());
              on_finish job host;
              (* fold the session's registry into the service-wide one:
                 the merged export carries stage.attach/exit/pump
                 aggregates over every job the service ever ran *)
              Observe.Metrics.merge_into ~into:mx
                (Observe.metrics host.H.Host.observe);
              busy.(w) <- false;
              free_at.(w) <- end_ns;
              decr busy_count;
              maybe_dispatch ~now:end_ns ()
            in
            (* the job session runs as a fresh fiber pinned to the
               session host's pre-advanced clock; spawning mid-run puts
               it straight into the scheduler's pick set at [start] *)
            let host =
              prepare_host ~job ~start_ns:start ~ram_mb:cfg.ram_mb
                ?log_level:cfg.log_level ~worker:w ()
            in
            Observe.log obs Observe.Info
              "serve: job %d (%s, %s) -> worker %d" job.Job.id job.Job.tenant
              (Job.kind_to_string job.Job.kind)
              w;
            Sched.spawn sched
              ~name:(Printf.sprintf "job%d" job.Job.id)
              ~clock:host.H.Host.clock
              (fun () ->
                host_done host
                  (execute_on ~host ~job ~ram_mb:cfg.ram_mb ~cache ()));
            maybe_dispatch ~now:!svc_now ()
          end
      | None ->
          if !driver_done && !busy_count = 0 && Admission.queued adm > 0 then
            match Admission.next_eligible adm with
            | Some t_el when t_el > !svc_now -> maybe_dispatch ~now:t_el ()
            | _ -> ()
  in
  (* --- the wire frontend --- *)
  let fabric = Net.Fabric.of_host front in
  let link = Net.Link.create fabric ~name:"ingress" () in
  let client = Net.Link.a link and server = Net.Link.b link in
  let reply_to (req : Packet.t) data =
    Net.Link.send server
      (udp_frame
         ~src:(frontend_mac, frontend_ip, jobs_port)
         ~dst:(client_mac, req.Packet.src_ip, req.Packet.src_port)
         data)
  in
  Net.Link.set_handler server (fun raw ->
      match Frame.decode raw with
      | None -> ()
      | Some f -> (
          match Packet.decode f.Frame.payload with
          | None -> ()
          | Some p when p.Packet.dst_port <> jobs_port -> ()
          | Some p -> (
              let now = H.Clock.now_ns front.H.Host.clock in
              match Job.of_wire (Bytes.to_string p.Packet.data) with
              | Error reason ->
                  bump "service.bad_request";
                  reply_to p (Job.rejected_wire reason)
              | Ok job -> (
                  bump "service.submitted";
                  bump ("service.submitted." ^ job.Job.tenant);
                  record_event "service.enqueue" [ ("job", job.Job.id) ];
                  match Admission.submit adm ~now job with
                  | Admission.Rejected reason ->
                      shed job ~now ~reason;
                      sample_depth ();
                      reply_to p (Job.rejected_wire reason)
                  | Admission.Admitted { evicted } ->
                      bump "service.admitted";
                      bump ("service.admitted." ^ job.Job.tenant);
                      record_event "service.admit" [ ("job", job.Job.id) ];
                      (match evicted with
                      | Some ev ->
                          let ej = ev.Admission.e_job in
                          bump "service.shed";
                          bump
                            (Printf.sprintf "service.shed.evicted.%s"
                               ej.Job.tenant);
                          record_event "service.shed" [ ("job", ej.Job.id) ];
                          file_terminal ej ~status:(Job.Shed "evicted")
                            ~submit:ev.Admission.e_submit_ns ~start:Float.nan
                            ~end_:now ~worker:(-1)
                      | None -> ());
                      sample_depth ();
                      reply_to p Job.accepted_wire;
                      maybe_dispatch ~now ()))));
  (* the client side of the wire protocol: count the frontend's
     202/429 answers so the round trip is observable end to end *)
  Net.Link.set_handler client (fun raw ->
      match Frame.decode raw with
      | None -> ()
      | Some f -> (
          match Packet.decode f.Frame.payload with
          | None -> ()
          | Some p ->
              let body = Bytes.to_string p.Packet.data in
              if String.length body >= 12 then
                match String.sub body 9 3 with
                | "202" -> bump "service.client.accepted"
                | "429" -> bump "service.client.rejected"
                | _ -> ()));
  (* --- the arrival driver --- *)
  let arrival_rng = H.Rng.create ~seed:((cfg.seed * 1009) + 5) in
  let driver () =
    for i = 0 to cfg.jobs - 1 do
      H.Clock.advance front.H.Host.clock
        (inter_arrival_ns arrival_rng ~cfg ~i);
      let tenant =
        (draw_weighted arrival_rng
           (Admission.tenants adm)
           ~weight:(fun tc -> tc.Admission.tc_share))
          .Admission.tc_name
      in
      (* the mix draw always runs, so flipping one tenant hostile
         leaves every other tenant's job stream untouched *)
      let kind = draw_kind arrival_rng cfg in
      let kind =
        match cfg.hostile_tenant with
        | Some (t, cls) when t = tenant -> Job.Hostile_attach { cls }
        | _ -> kind
      in
      let job =
        {
          Job.id = i;
          tenant;
          kind;
          seed = (cfg.seed * 1_000_003) + (i * 7919);
          priority = H.Rng.int arrival_rng 3;
          deadline_ns = cfg.deadline_ns;
        }
      in
      Net.Link.send client
        (udp_frame
           ~src:(client_mac, client_ip, 40000)
           ~dst:(frontend_mac, frontend_ip, jobs_port)
           (Job.to_wire job));
      (* deliver the request (and the 202/429 reply): admission and
         dispatch run at the frame's delivery instant *)
      Net.Fabric.pump fabric;
      Sched.yield ()
    done;
    driver_done := true;
    maybe_dispatch ~now:(H.Clock.now_ns front.H.Host.clock) ()
  in
  Sched.spawn sched ~name:"driver" ~clock:front.H.Host.clock driver;
  let outcomes = Sched.run sched in
  (* a fiber that died without filing a record is a service bug — make
     it visible rather than losing the job *)
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Sched.Done -> ()
      | Sched.Failed e ->
          Observe.log obs Observe.Info "serve: fiber %s died: %s" name
            (Printexc.to_string e))
    outcomes;
  let makespan =
    Array.fold_left
      (fun acc r ->
        match r with
        | Some r when Float.is_finite r.jr_end_ns -> Float.max acc r.jr_end_ns
        | _ -> acc)
      0. records
  in
  let leaked = !busy_count in
  Observe.Metrics.set_counter (counter "service.workers.leaked") leaked;
  Observe.Metrics.set_counter (counter "service.jobs") cfg.jobs;
  Observe.Metrics.set_gauge (Observe.Metrics.gauge mx "service.makespan_ns") makespan;
  let no_record =
    Array.to_list records
    |> List.mapi (fun i r -> (i, r))
    |> List.filter_map (fun (i, r) ->
           if r = None && i < cfg.jobs then Some i else None)
  in
  List.iter
    (fun i ->
      records.(i) <-
        Some
          {
            jr_job =
              {
                Job.id = i;
                tenant = "?";
                kind = Job.Attach;
                seed = 0;
                priority = 0;
                deadline_ns = 0.;
              };
            jr_status = Job.Failed "job produced no result";
            jr_submit_ns = Float.nan;
            jr_start_ns = Float.nan;
            jr_end_ns = Float.nan;
            jr_worker = -1;
          })
    no_record;
  if no_record <> [] then
    Observe.Metrics.set_counter
      (counter "service.lost_jobs")
      (List.length no_record);
  {
    rp_config = cfg;
    rp_records =
      Array.map Option.get (Array.sub records 0 cfg.jobs);
    rp_host = front;
    rp_stats = Admission.stats adm;
    rp_yields = Sched.yields sched;
    rp_makespan_ns = makespan;
    rp_leaked_workers = leaked;
  }

(* --- durable results ------------------------------------------------ *)

let num = Observe.Export.num

let status_fields = function
  | Job.Completed -> ("completed", None)
  | Job.Failed e -> ("failed", Some e)
  | Job.Shed r -> ("shed", Some r)
  | Job.Expired late ->
      ( "expired",
        Some
          (E.to_string (E.Context ("job deadline", E.Deadline_exceeded late)))
      )

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One JSON object per job, in id order — the service's durable result
   log (ktest-style: the job, its terminal status, and its timeline). *)
let results_jsonl (r : report) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun jr ->
      let j = jr.jr_job in
      let status, detail = status_fields jr.jr_status in
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\": %d, \"tenant\": \"%s\", \"kind\": \"%s\", \"seed\": %d, \
            \"priority\": %d, \"status\": \"%s\", \"detail\": %s, \
            \"submit_ns\": %s, \"start_ns\": %s, \"end_ns\": %s, \"e2e_ns\": \
            %s, \"worker\": %d}\n"
           j.Job.id j.Job.tenant
           (Job.kind_to_string j.Job.kind)
           j.Job.seed j.Job.priority status
           (match detail with
           | None -> "null"
           | Some d -> "\"" ^ json_escape d ^ "\"")
           (num jr.jr_submit_ns) (num jr.jr_start_ns) (num jr.jr_end_ns)
           (num (jr.jr_end_ns -. jr.jr_submit_ns))
           jr.jr_worker))
    r.rp_records;
  Buffer.contents b

let metrics_json (r : report) =
  Observe.Export.metrics_json r.rp_host.H.Host.observe

(* One digest over everything observable: the double-run determinism
   witness. *)
let digest (r : report) =
  Digest.to_hex (Digest.string (results_jsonl r ^ metrics_json r))

let completed (r : report) =
  Array.fold_left
    (fun acc jr -> if jr.jr_status = Job.Completed then acc + 1 else acc)
    0 r.rp_records

let failed (r : report) =
  Array.fold_left
    (fun acc jr ->
      match jr.jr_status with Job.Failed _ -> acc + 1 | _ -> acc)
    0 r.rp_records
