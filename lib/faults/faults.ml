type cls =
  | Inject_eintr
  | Inject_eagain
  | Vm_rw_efault
  | Attach_race
  | Notify_drop
  | Desc_torn
  | Link_burst

let all =
  [
    Inject_eintr;
    Inject_eagain;
    Vm_rw_efault;
    Attach_race;
    Notify_drop;
    Desc_torn;
    Link_burst;
  ]

let name = function
  | Inject_eintr -> "inject-eintr"
  | Inject_eagain -> "inject-eagain"
  | Vm_rw_efault -> "vm-rw-efault"
  | Attach_race -> "attach-race"
  | Notify_drop -> "notify-drop"
  | Desc_torn -> "desc-torn"
  | Link_burst -> "link-burst"

let of_name s = List.find_opt (fun c -> name c = s) all

let idx = function
  | Inject_eintr -> 0
  | Inject_eagain -> 1
  | Vm_rw_efault -> 2
  | Attach_race -> 3
  | Notify_drop -> 4
  | Desc_torn -> 5
  | Link_burst -> 6

let n_cls = 7

type t = {
  armed : bool;
  seed : int;
  burst : int;
  rates : float array;
  caps : int array;
  counts : int array;
  decisions : int array;
  mutable script : (cls * int) list;
  rng : Splitmix.t;
  mutable metrics : Observe.Metrics.t option;
  mutable abort_at_yield : int option;
  mutable yield_seen : int;
  mutable on_yield : (int -> unit) option;
  mutable skew_script : (int * int) list;
  mutable on_skew : (int -> unit) option;
}

let disabled =
  {
    armed = false;
    seed = 0;
    burst = 0;
    rates = [||];
    caps = [||];
    counts = [||];
    decisions = [||];
    script = [];
    rng = Splitmix.create ~seed:0;
    metrics = None;
    abort_at_yield = None;
    yield_seen = 0;
    on_yield = None;
    skew_script = [];
    on_skew = None;
  }

(* Private splitmix64 stream: the plan must not perturb the host's RNG,
   or arming faults would shift every downstream draw and break the
   no-faults neutrality invariant. *)
let draw_unit t = Splitmix.float t.rng 1.0

let create ~seed ?(rate = 0.15) ?(cap = max_int) ?(classes = all) ?(burst = 3) () =
  let rates = Array.make n_cls 0.0 in
  let caps = Array.make n_cls 0 in
  List.iter
    (fun c ->
      rates.(idx c) <- rate;
      caps.(idx c) <- cap)
    classes;
  {
    armed = true;
    seed;
    burst;
    rates;
    caps;
    counts = Array.make n_cls 0;
    decisions = Array.make n_cls 0;
    script = [];
    rng = Splitmix.create ~seed;
    metrics = None;
    abort_at_yield = None;
    yield_seen = 0;
    on_yield = None;
    skew_script = [];
    on_skew = None;
  }

let set_class t c ~rate ~cap =
  if t.armed then begin
    t.rates.(idx c) <- rate;
    t.caps.(idx c) <- cap
  end

let armed t = t.armed
let seed t = t.seed
let burst t = t.burst
let set_metrics t m = if t.armed then t.metrics <- m

(* --- scripted injections ---

   The trace-mutation fuzzer needs *exact* perturbations — "drop the
   4th doorbell", "tear the 2nd descriptor read" — derived from a
   mutated flight recording, not sampled from a rate. A script is a
   list of [(class, decision-index)] pairs; every armed {!fire} query
   counts as one decision for its class, and a scripted decision fires
   deterministically without touching the RNG stream (so a scripted
   plan with zero rates draws no randomness at all, and mixing a
   script into a rate-driven plan never shifts the probabilistic
   replay). *)

let set_script t s = if t.armed then t.script <- s
let script t = if t.armed then t.script else []
let decisions t c = if t.armed then t.decisions.(idx c) else 0

let count_injection t c i =
  t.counts.(i) <- t.counts.(i) + 1;
  match t.metrics with
  | Some m ->
      Observe.Metrics.incr
        (Observe.Metrics.counter m ("faults.injected." ^ name c))
  | None -> ()

let rec scripted c d = function
  | [] -> false
  | (c', n) :: rest -> (c' = c && n = d) || scripted c d rest

let fire t c =
  if not t.armed then false
  else begin
    let i = idx c in
    let d = t.decisions.(i) in
    t.decisions.(i) <- d + 1;
    if scripted c d t.script then begin
      count_injection t c i;
      true
    end
    else if t.rates.(i) <= 0.0 || t.counts.(i) >= t.caps.(i) then false
    else if draw_unit t < t.rates.(i) then begin
      count_injection t c i;
      true
    end
    else false
  end

let injected t c = if t.armed then t.counts.(idx c) else 0
let total_injected t = if t.armed then Array.fold_left ( + ) 0 t.counts else 0

(* --- crash points ---

   [abort-at-yield(k)] is deterministic by construction, not a
   probabilistic class: the sweep harness needs to kill an attach at
   *every* k-th yield point exactly once, so the decision is an index
   comparison rather than an RNG draw (which also keeps the splitmix64
   stream — and therefore every probabilistic class's replay —
   untouched by arming it). *)

exception Crash_point of int

let set_abort_at_yield t k =
  if t.armed then begin
    t.abort_at_yield <- k;
    t.yield_seen <- 0
  end

let yield_ticks t = t.yield_seen

(* --- yield hooks ---

   Two deterministic observers ride the same yield-point stream the
   crash-point sweep enumerates. [on_yield] is how an adversarial-guest
   engine interleaves with the attach — it runs guest-side steps at
   exactly the seams where a real guest would race a real attach.
   [skew_script] is the timewarp lowering: at the scripted yield index,
   [on_skew factor_permille] fires (the harness advances the virtual
   clock), turning a mutated recording's timing perturbation into a
   real scheduling decision. Neither draws from the RNG stream, and
   neither perturbs the yield count the sweep measures. *)

let set_on_yield t f = if t.armed then t.on_yield <- f
let set_skew_script t s = if t.armed then t.skew_script <- s
let skew_script t = if t.armed then t.skew_script else []
let set_on_skew t f = if t.armed then t.on_skew <- f

let yield_tick t =
  if t.armed then begin
    let n = t.yield_seen in
    t.yield_seen <- n + 1;
    (match t.on_yield with Some f -> f n | None -> ());
    (match (t.on_skew, List.assoc_opt n t.skew_script) with
    | Some f, Some permille -> f permille
    | _ -> ());
    match t.abort_at_yield with
    | Some k when n = k -> raise (Crash_point k)
    | _ -> ()
  end

(* --- shared abort taxonomy ---

   Every harness that perturbs the pipeline (the fault matrix, the
   crash-point sweep, the trace-mutation fuzzer) classifies a run the
   same three ways, so verdicts render and round-trip through one
   vocabulary. *)

module Abort = struct
  type bug =
    | Hang of float
    | Escaped of string
    | Broken of string
    | Oracle of string
    | Leaked_fds of int

  type verdict = Survived | Clean_abort of string | Bug of bug

  let label = function
    | Survived -> "survived"
    | Clean_abort _ -> "clean-abort"
    | Bug _ -> "BUG"

  let bug_text = function
    | Hang ns ->
        Printf.sprintf "hang: %.0f ms of virtual time exceeds the budget"
          (ns /. 1e6)
    | Escaped e -> "escaped exception: " ^ e
    | Broken m -> m
    | Oracle d -> "oracle: " ^ d
    | Leaked_fds n -> Printf.sprintf "leaked %d descriptors" n

  let detail = function
    | Survived -> ""
    | Clean_abort m -> m
    | Bug b -> bug_text b

  let is_bug = function Bug _ -> true | _ -> false

  let to_string = function
    | Survived -> "survived"
    | Clean_abort m -> "clean-abort: " ^ m
    | Bug b -> "BUG: " ^ bug_text b
end
