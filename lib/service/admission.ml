(* Per-tenant admission control and backpressure.

   Each tenant owns a token bucket (rate limiting), a bounded priority
   queue, and a weighted-fair service account. All decisions are pure
   functions of (virtual time, configuration, arrival order) — the
   module never reads a clock or an RNG itself, the caller passes
   [~now] — so the same arrival stream always produces the same
   admissions, sheds, and dequeue order.

   The defer policy shapes instead of dropping: a job that arrives
   without a token borrows against future refill (the bucket goes
   negative) and carries an [eligible_ns] timestamp before which the
   dequeue refuses to release it — the classic virtual-scheduling-time
   shaper, with no re-evaluation loops to order nondeterministically. *)

type policy =
  | Reject  (** no token or no queue room: drop the new job *)
  | Shed_oldest
      (** no queue room: evict the oldest queued job to admit the new
          one (no token: still a reject — eviction mints no tokens) *)
  | Defer
      (** no token: admit with a future eligibility time; a full queue
          still rejects *)

type tenant_cfg = {
  tc_name : string;
  tc_share : int;
      (** arrival-mix weight used by the driver (not by admission) *)
  tc_weight : int;  (** weighted-fair service weight, >= 1 *)
  tc_rate : float;
      (** admission tokens per virtual second; [infinity] = unlimited *)
  tc_burst : float;  (** bucket capacity, >= 1 *)
  tc_queue : int;  (** queue bound, >= 1 *)
  tc_policy : policy;
}

let default_tenant name =
  {
    tc_name = name;
    tc_share = 1;
    tc_weight = 1;
    tc_rate = infinity;
    tc_burst = 1.;
    tc_queue = 128;
    tc_policy = Reject;
  }

type entry = {
  e_job : Job.t;
  e_submit_ns : float;
  e_seq : int;  (** global arrival sequence — the FIFO tie-break *)
  e_eligible_ns : float;  (** defer shaping; [e_submit_ns] when untouched *)
}

type tenant_stats = {
  ts_submitted : int;
  ts_admitted : int;
  ts_shed_rate : int;
  ts_shed_queue : int;
  ts_shed_evicted : int;
  ts_dispatched : int;
}

type tenant = {
  cfg : tenant_cfg;
  mutable tokens : float;
  mutable refill_ns : float;
  mutable queue : entry list;  (** sorted: priority desc, then seq asc *)
  mutable served : float;  (** weighted-fair virtual service received *)
  mutable submitted : int;
  mutable admitted : int;
  mutable shed_rate : int;
  mutable shed_queue : int;
  mutable shed_evicted : int;
  mutable dispatched : int;
}

(* Tenants live in a list in configuration order — never a hash table —
   so every fold below iterates identically on every run. *)
type t = { tenants : tenant list; mutable next_seq : int }

let create cfgs =
  if cfgs = [] then invalid_arg "Admission.create: no tenants";
  let tenant cfg =
    if cfg.tc_weight < 1 then invalid_arg "Admission.create: weight < 1";
    if cfg.tc_queue < 1 then invalid_arg "Admission.create: queue < 1";
    {
      cfg;
      tokens = cfg.tc_burst;
      refill_ns = 0.;
      queue = [];
      served = 0.;
      submitted = 0;
      admitted = 0;
      shed_rate = 0;
      shed_queue = 0;
      shed_evicted = 0;
      dispatched = 0;
    }
  in
  { tenants = List.map tenant cfgs; next_seq = 0 }

let tenant_exn t name =
  match List.find_opt (fun tn -> tn.cfg.tc_name = name) t.tenants with
  | Some tn -> tn
  | None -> invalid_arg ("Admission: unknown tenant " ^ name)

let refill tn ~now =
  if tn.cfg.tc_rate = infinity then tn.tokens <- tn.cfg.tc_burst
  else begin
    let dt = Float.max 0. (now -. tn.refill_ns) in
    tn.tokens <-
      Float.min tn.cfg.tc_burst (tn.tokens +. (dt /. 1e9 *. tn.cfg.tc_rate));
    tn.refill_ns <- now
  end

let insert_by_priority entry queue =
  let rec go = function
    | [] -> [ entry ]
    | e :: rest
      when e.e_job.Job.priority > entry.e_job.Job.priority
           || (e.e_job.Job.priority = entry.e_job.Job.priority
              && e.e_seq < entry.e_seq) ->
        e :: go rest
    | rest -> entry :: rest
  in
  go queue

type decision =
  | Admitted of { evicted : entry option }
  | Rejected of string  (** reason: ["rate"] or ["queue-full"] *)

let submit t ~now (job : Job.t) =
  let tn = tenant_exn t job.Job.tenant in
  tn.submitted <- tn.submitted + 1;
  refill tn ~now;
  let with_token k =
    if tn.tokens >= 1. then begin
      tn.tokens <- tn.tokens -. 1.;
      k now
    end
    else
      match tn.cfg.tc_policy with
      | Defer ->
          (* borrow against future refill: eligible when the bucket
             would have reached one token *)
          let deficit = 1. -. tn.tokens in
          tn.tokens <- tn.tokens -. 1.;
          k (now +. (deficit /. tn.cfg.tc_rate *. 1e9))
      | Reject | Shed_oldest ->
          tn.shed_rate <- tn.shed_rate + 1;
          Rejected "rate"
  in
  with_token (fun eligible_ns ->
      let enqueue evicted =
        let entry =
          { e_job = job; e_submit_ns = now; e_seq = t.next_seq; e_eligible_ns = eligible_ns }
        in
        t.next_seq <- t.next_seq + 1;
        tn.queue <- insert_by_priority entry tn.queue;
        tn.admitted <- tn.admitted + 1;
        Admitted { evicted }
      in
      if List.length tn.queue < tn.cfg.tc_queue then enqueue None
      else
        match tn.cfg.tc_policy with
        | Shed_oldest ->
            (* evict the true oldest (min seq), regardless of priority *)
            let oldest =
              List.fold_left
                (fun best e ->
                  match best with
                  | Some b when b.e_seq <= e.e_seq -> best
                  | _ -> Some e)
                None tn.queue
            in
            let oldest = Option.get oldest in
            tn.queue <- List.filter (fun e -> e.e_seq <> oldest.e_seq) tn.queue;
            tn.shed_evicted <- tn.shed_evicted + 1;
            enqueue (Some oldest)
        | Reject | Defer ->
            (* refund the token the doomed job took *)
            tn.tokens <- tn.tokens +. 1.;
            tn.shed_queue <- tn.shed_queue + 1;
            Rejected "queue-full")

(* Weighted-fair dequeue: among tenants whose head-of-line entry is
   eligible at [now], release from the one with the least weighted
   service so far; ties break in configuration order. A hot tenant's
   backlog therefore cannot starve a light tenant — each dispatched job
   charges 1/weight to its tenant's account. *)
let dequeue t ~now =
  let candidate =
    List.fold_left
      (fun best tn ->
        match tn.queue with
        | head :: _ when head.e_eligible_ns <= now -> (
            match best with
            | Some (btn, _) when btn.served <= tn.served -> best
            | _ -> Some (tn, head))
        | _ -> best)
      None t.tenants
  in
  match candidate with
  | None -> None
  | Some (tn, head) ->
      tn.queue <- List.tl tn.queue;
      tn.served <- tn.served +. (1. /. float_of_int tn.cfg.tc_weight);
      tn.dispatched <- tn.dispatched + 1;
      Some head

(* Earliest instant at which any queued entry becomes eligible — the
   drain phase advances virtual time here when every worker is idle and
   only deferred work remains. *)
let next_eligible t =
  List.fold_left
    (fun best tn ->
      match tn.queue with
      | head :: _ -> (
          match best with
          | Some b when b <= head.e_eligible_ns -> best
          | _ -> Some head.e_eligible_ns)
      | [] -> best)
    None t.tenants

let queued t =
  List.fold_left (fun acc tn -> acc + List.length tn.queue) 0 t.tenants

let queue_depth t name = List.length (tenant_exn t name).queue
let tenants t = List.map (fun tn -> tn.cfg) t.tenants

let stats t =
  List.map
    (fun tn ->
      ( tn.cfg.tc_name,
        {
          ts_submitted = tn.submitted;
          ts_admitted = tn.admitted;
          ts_shed_rate = tn.shed_rate;
          ts_shed_queue = tn.shed_queue;
          ts_shed_evicted = tn.shed_evicted;
          ts_dispatched = tn.dispatched;
        } ))
    t.tenants
