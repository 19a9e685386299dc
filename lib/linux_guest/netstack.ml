(* A minimal guest network stack over the side-loaded virtio-net NIC.

   One simplified transport header serves both protocols (a UDP-style
   datagram and a stop-and-wait TCP-lite), carried in an Ethernet frame
   with the IPv4 ethertype. Address resolution is learned, ARP-free:
   the first packet to an unknown IP goes out as broadcast, and every
   received packet teaches us the sender's MAC — which also teaches the
   switch on the path our own port. The [Packet] codec is pure so the
   host-side traffic servers (lib/workloads) speak the same wire
   format without a driver. *)

module Frame = Net.Frame

module Packet = struct
  let proto_udp = 17
  let proto_tcp = 6

  (* data = payload; ACK and data packets share the layout, [flag]
     distinguishes them for TCP-lite. *)
  type t = {
    src_ip : int;
    dst_ip : int;
    proto : int;
    src_port : int;
    dst_port : int;
    seq : int;  (** TCP-lite sequence number; 0 for UDP *)
    flag : int;  (** 0 = data, 1 = ack; 0 for UDP *)
    data : bytes;
  }

  let flag_data = 0
  let flag_ack = 1
  let header_size = 18

  let udp ~src_ip ~dst_ip ~src_port ~dst_port data =
    { src_ip; dst_ip; proto = proto_udp; src_port; dst_port; seq = 0;
      flag = flag_data; data }

  let make_ip a b c d =
    ((a land 0xff) lsl 24) lor ((b land 0xff) lsl 16)
    lor ((c land 0xff) lsl 8) lor (d land 0xff)

  let encode p =
    let n = Bytes.length p.data in
    let b = Bytes.create (header_size + n) in
    Bytes.set_int32_be b 0 (Int32.of_int p.src_ip);
    Bytes.set_int32_be b 4 (Int32.of_int p.dst_ip);
    Bytes.set_uint8 b 8 p.proto;
    Bytes.set_uint16_be b 9 p.src_port;
    Bytes.set_uint16_be b 11 p.dst_port;
    Bytes.set_int32_be b 13 (Int32.of_int p.seq);
    Bytes.set_uint8 b 17 p.flag;
    Bytes.blit p.data 0 b header_size n;
    b

  let decode b =
    if Bytes.length b < header_size then None
    else
      Some
        {
          src_ip = Int32.to_int (Bytes.get_int32_be b 0) land 0xffffffff;
          dst_ip = Int32.to_int (Bytes.get_int32_be b 4) land 0xffffffff;
          proto = Bytes.get_uint8 b 8;
          src_port = Bytes.get_uint16_be b 9;
          dst_port = Bytes.get_uint16_be b 11;
          seq = Int32.to_int (Bytes.get_int32_be b 13) land 0xffffffff;
          flag = Bytes.get_uint8 b 17;
          data = Bytes.sub b header_size (Bytes.length b - header_size);
        }

  let max_data = Frame.max_payload - header_size
end

type datagram = { from_ip : int; from_port : int; payload : bytes }

type t = {
  nic : Virtio.Net.Driver.t;
  ip : int;
  mac : int;
  neighbours : (int, int) Hashtbl.t;  (** learned ip -> mac *)
  socks : (int, datagram Stdlib.Queue.t) Hashtbl.t;  (** by local port *)
  obs : Observe.t option;
}

let create ?observe nic ~ip =
  {
    nic;
    ip;
    mac = Virtio.Net.Driver.mac nic;
    neighbours = Hashtbl.create 16;
    socks = Hashtbl.create 16;
    obs = observe;
  }

let ip t = t.ip
let mac t = t.mac

let count t name =
  match t.obs with
  | None -> ()
  | Some obs ->
      Observe.Metrics.incr
        (Observe.Metrics.counter (Observe.metrics obs) name)

let deliver t (frame : Frame.t) =
  match Packet.decode frame.Frame.payload with
  | None -> count t "netstack.malformed"
  | Some p -> (
      Hashtbl.replace t.neighbours p.Packet.src_ip frame.Frame.src;
      if p.Packet.dst_ip <> t.ip && frame.Frame.dst <> Frame.broadcast then
        count t "netstack.not_ours"
      else
        match Hashtbl.find_opt t.socks p.Packet.dst_port with
        | None -> count t "netstack.port_unreachable"
        | Some q ->
            Stdlib.Queue.add
              {
                from_ip = p.Packet.src_ip;
                from_port = p.Packet.src_port;
                payload = frame.Frame.payload;
              }
              q)

(* Drain the NIC into the per-port queues. Guest context only. *)
let poll t =
  let rec go () =
    match Virtio.Net.Driver.try_recv t.nic with
    | None -> ()
    | Some raw ->
        (match Frame.decode raw with
        | None -> count t "netstack.runt"
        | Some f -> deliver t f);
        go ()
  in
  go ()

let bind t ~port =
  if Hashtbl.mem t.socks port then Error Hostos.Errno.EBUSY
  else begin
    Hashtbl.replace t.socks port (Stdlib.Queue.create ());
    Ok ()
  end

let close t ~port = Hashtbl.remove t.socks port

let send_packet t p =
  let dst_mac =
    match Hashtbl.find_opt t.neighbours p.Packet.dst_ip with
    | Some m -> m
    | None -> Frame.broadcast (* resolution by flooding; replies teach us *)
  in
  Virtio.Net.Driver.send t.nic
    (Frame.encode
       {
         Frame.src = t.mac;
         dst = dst_mac;
         ethertype = Frame.eth_ipv4;
         payload = Packet.encode p;
       });
  (* the fabric ran inside the kick: pull in whatever came back *)
  poll t

let udp_send t ~src_port ~dst_ip ~dst_port data =
  send_packet t
    (Packet.udp ~src_ip:t.ip ~dst_ip ~src_port ~dst_port data)

let sock_exn t port =
  match Hashtbl.find_opt t.socks port with
  | Some q -> q
  | None -> invalid_arg "Netstack: port not bound"

let udp_try_recv t ~port =
  poll t;
  match Stdlib.Queue.take_opt (sock_exn t port) with
  | None -> None
  | Some d -> (
      match Packet.decode d.payload with
      | Some p -> Some (d.from_ip, d.from_port, p.Packet.data)
      | None -> None)

(* --- TCP-lite: stop-and-wait reliability over the same packets ---

   One outstanding segment; the peer acks each sequence number. Because
   the fabric is synchronous (delivery happens inside the transmit
   kick), a missing ack after [send_packet] returns deterministically
   means a loss on the path — so retransmission needs no timers, just a
   bounded retry loop. *)

type stream = {
  st : t;
  peer_ip : int;
  peer_port : int;
  local_port : int;
  mutable tx_seq : int;
}

let max_retries = 32

let tcp_connect t ~local_port ~peer_ip ~peer_port =
  match bind t ~port:local_port with
  | Error e -> Error e
  | Ok () ->
      Ok { st = t; peer_ip; peer_port; local_port; tx_seq = 1 }

let stream_packet s ~seq ~flag data =
  {
    Packet.src_ip = s.st.ip;
    dst_ip = s.peer_ip;
    proto = Packet.proto_tcp;
    src_port = s.local_port;
    dst_port = s.peer_port;
    seq;
    flag;
    data;
  }

(* One request/response exchange: send a segment, await the peer's
   data reply with the same sequence number. A reply-capable peer
   re-echoes on duplicate requests, so a lost reply (or lost request)
   is recovered by retransmitting the request — the response doubles as
   the ack. *)
let tcp_request s data =
  let seq = s.tx_seq in
  let q = sock_exn s.st s.local_port in
  (* scan the queue for the peer's data segment for [seq]; drop acks of
     [seq] and stale duplicates along the way *)
  let take_response () =
    let n = Stdlib.Queue.length q in
    let found = ref None in
    for _ = 1 to n do
      let d = Stdlib.Queue.pop q in
      match Packet.decode d.payload with
      | Some p when p.Packet.flag = Packet.flag_ack -> ()
      | Some p when p.Packet.flag = Packet.flag_data && p.Packet.seq = seq ->
          found := Some p.Packet.data
      | Some p when p.Packet.flag = Packet.flag_data && p.Packet.seq < seq ->
          () (* stale duplicate of an answered request *)
      | _ -> Stdlib.Queue.add d q
    done;
    !found
  in
  let rec attempt n =
    if n > max_retries then Error Hostos.Errno.EIO
    else begin
      if n > 1 then count s.st "netstack.retransmits";
      send_packet s.st (stream_packet s ~seq ~flag:Packet.flag_data data);
      match take_response () with
      | Some reply ->
          s.tx_seq <- seq + 1;
          Ok reply
      | None -> attempt (n + 1)
    end
  in
  attempt 1
