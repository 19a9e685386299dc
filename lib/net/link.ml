(* A duplex point-to-point wire between two ports.

   Each direction models serialization (bandwidth), propagation
   (latency) and random loss: a frame occupies the wire for
   wire_size / bandwidth starting at max(now, busy_until) and arrives
   one latency later. Loss is drawn from the fabric's seeded RNG, so a
   lossy run replays identically under the same seed. *)

module Clock = Hostos.Clock
module Rng = Hostos.Rng

type port = {
  link : link;
  ix : int; (* 0 or 1; the peer is [1 - ix] *)
  mutable handler : (bytes -> unit) option;
  mutable busy_until : float; (* egress serialization horizon, virtual ns *)
}

and link = {
  fabric : Fabric.t;
  name : string;
  latency_ns : float;
  ns_per_byte : float;
  loss : float;
  mutable ports : port array;
}

type t = link

let default_latency_ns = 50_000. (* 50us — a switched LAN hop *)
let default_bandwidth_mbps = 10_000. (* 10 Gbit/s *)

let create fabric ~name ?(latency_ns = default_latency_ns)
    ?(bandwidth_mbps = default_bandwidth_mbps) ?(loss = 0.0) () =
  let ns_per_byte = 8_000. /. bandwidth_mbps in
  let link = { fabric; name; latency_ns; ns_per_byte; loss; ports = [||] } in
  link.ports <-
    [|
      { link; ix = 0; handler = None; busy_until = 0. };
      { link; ix = 1; handler = None; busy_until = 0. };
    |];
  link

let port t i = t.ports.(i)
let a t = t.ports.(0)
let b t = t.ports.(1)
let name t = t.name
let set_handler p f = p.handler <- Some f
let clear_handler p = p.handler <- None
let fabric_of_port p = p.link.fabric

(* Send raw frame bytes out of [p]; they arrive at the peer port's
   handler after serialization + propagation, unless lost. *)
let send p frame =
  let link = p.link in
  let fab = link.fabric in
  let clock = Fabric.clock fab in
  let size = Bytes.length frame in
  Observe.Metrics.incr (Fabric.counter fab "net.frames_tx");
  Observe.Metrics.incr ~by:size (Fabric.counter fab "net.bytes_tx");
  if
    Fabric.burst_drop fab
    || (link.loss > 0. && Rng.float (Fabric.rng fab) 1.0 < link.loss)
  then begin
    Observe.Metrics.incr (Fabric.counter fab "net.frames_dropped");
    Trace.Recorder.record
      (Observe.recorder (Fabric.observe fab))
      ~phase:Trace.Instant ~kind:"net.drop"
      ~args:[ ("link", Trace.S link.name); ("bytes", Trace.I size) ]
      ()
  end
  else begin
    let now = Clock.now_ns clock in
    let start = Float.max now p.busy_until in
    let tx_done = start +. (float_of_int size *. link.ns_per_byte) in
    p.busy_until <- tx_done;
    let deliver_at = tx_done +. link.latency_ns in
    let peer = link.ports.(1 - p.ix) in
    Fabric.schedule fab ~at:deliver_at (fun () ->
        Observe.Metrics.incr (Fabric.counter fab "net.frames_rx");
        Observe.Metrics.incr ~by:size (Fabric.counter fab "net.bytes_rx");
        Observe.Metrics.observe
          (Fabric.histogram fab "net.frame_latency_ns")
          (deliver_at -. now);
        match peer.handler with
        | Some f -> f frame
        | None ->
            Observe.Metrics.incr
              (Fabric.counter fab "net.frames_unhandled"))
  end
