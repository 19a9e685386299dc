(* The deterministic delivery engine shared by every link of a network.

   Frames in flight are events with a virtual deliver-at timestamp.
   [pump] plays them in (deliver_at, sequence) order, advancing the
   virtual clock to each delivery instant — the same event-driven
   discipline as the rest of the simulation, so two runs with the same
   RNG seed replay byte-identically (the IRIS property).
   All randomness (loss draws) comes from one seeded [Hostos.Rng], split
   off at the first draw: making a network draws nothing from the host. *)

module Clock = Hostos.Clock
module Rng = Hostos.Rng

type event = { deliver_at : float; seq : int; deliver : unit -> unit }

type t = {
  clock : Clock.t;
  rng : Rng.t Lazy.t;
  obs : Observe.t;
  mutable pending : event list;  (** sorted by (deliver_at, seq) *)
  mutable next_seq : int;
  mutable pumping : bool;
  mutable plan : Faults.t;
  mutable burst_left : int;  (** frames still to drop in the current burst *)
}

let create ~clock ~rng ~observe () =
  {
    clock;
    rng = lazy (Rng.split rng);
    obs = observe;
    pending = [];
    next_seq = 0;
    pumping = false;
    plan = Faults.disabled;
    burst_left = 0;
  }

let of_host (h : Hostos.Host.t) =
  let t =
    create ~clock:h.Hostos.Host.clock ~rng:h.Hostos.Host.rng
      ~observe:h.Hostos.Host.observe ()
  in
  t.plan <- h.Hostos.Host.faults;
  t

let set_fault_plan t plan = t.plan <- plan

(* Bursty loss: one [Link_burst] firing condemns the next [burst] frames
   on any link of this fabric, modelling a congested or flapping wire
   rather than independent per-frame loss. *)
let burst_drop t =
  if t.burst_left > 0 then begin
    t.burst_left <- t.burst_left - 1;
    true
  end
  else if Faults.fire t.plan Faults.Link_burst then begin
    t.burst_left <- Faults.burst t.plan - 1;
    true
  end
  else false

let clock t = t.clock
let rng t = Lazy.force t.rng
let observe t = t.obs
let idle t = t.pending = []
let in_flight t = List.length t.pending

let counter t name =
  Observe.Metrics.counter (Observe.metrics t.obs) name

let histogram t name =
  Observe.Metrics.histogram (Observe.metrics t.obs) name

let schedule t ~at deliver =
  let ev = { deliver_at = at; seq = t.next_seq; deliver } in
  t.next_seq <- t.next_seq + 1;
  let rec insert = function
    | [] -> [ ev ]
    | e :: rest when
        e.deliver_at < ev.deliver_at
        || (e.deliver_at = ev.deliver_at && e.seq < ev.seq) ->
        e :: insert rest
    | rest -> ev :: rest
  in
  t.pending <- insert t.pending

(* Deliver everything in flight, advancing virtual time to each event.
   Deliveries may schedule further events (a switch forwarding, a server
   responding); the loop runs until the network is quiet. Re-entrant
   calls (a delivery that transitively pumps again) are no-ops so a
   device handler can call [pump] unconditionally. *)
let pump t =
  if not t.pumping then begin
    t.pumping <- true;
    let rec drain () =
      match t.pending with
      | [] -> ()
      | ev :: rest ->
          t.pending <- rest;
          let now = Clock.now_ns t.clock in
          if ev.deliver_at > now then
            Clock.advance t.clock (ev.deliver_at -. now);
          ev.deliver ();
          drain ()
    in
    Fun.protect ~finally:(fun () -> t.pumping <- false) drain
  end
