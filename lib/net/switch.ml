(* A learning Ethernet switch. Each plugged link port becomes a switch
   port; the switch learns source MACs as frames arrive and forwards
   unicast to the learned port, flooding broadcasts and unknown
   destinations to every other port. *)

type t = {
  fabric : Fabric.t;
  name : string;
  mutable ports : Link.port list; (* in plug order *)
  table : (Frame.mac, Link.port) Hashtbl.t;
}

let create fabric ~name = { fabric; name; ports = []; table = Hashtbl.create 16 }

let counter t suffix = Fabric.counter t.fabric (t.name ^ "." ^ suffix)

let forward t ~ingress raw =
  match Frame.decode raw with
  | None -> Observe.Metrics.incr (counter t "malformed")
  | Some f ->
      Hashtbl.replace t.table f.Frame.src ingress;
      let flood () =
        Observe.Metrics.incr (counter t "flooded");
        List.iter
          (fun p -> if p != ingress then Link.send p raw)
          (List.rev t.ports)
      in
      if f.Frame.dst = Frame.broadcast then flood ()
      else
        match Hashtbl.find_opt t.table f.Frame.dst with
        | Some out when out != ingress ->
            Observe.Metrics.incr (counter t "forwarded");
            Link.send out raw
        | Some _ ->
            (* destination lives on the ingress segment; nothing to do *)
            Observe.Metrics.incr (counter t "filtered")
        | None -> flood ()

(* Attach one end of a link to the switch; frames arriving on that port
   are bridged to the other ports. *)
let plug t (p : Link.port) =
  t.ports <- p :: t.ports;
  Link.set_handler p (fun raw -> forward t ~ingress:p raw)

let known_macs t = Hashtbl.fold (fun m _ acc -> m :: acc) t.table []
