(* virtio-net: a NIC as a split-virtqueue MMIO device.

   Queue 0 is receive, queue 1 is transmit (the virtio order). Every
   descriptor chain carries exactly one Ethernet frame preceded by a
   virtio-net header, which we keep as [hdr_size] zero bytes — we
   negotiate no offloads, and a zeroed header is what Linux sends in
   that case too. The device half bridges chains to a [Net] fabric
   port; the driver half keeps a pool of pre-posted receive buffers
   like the console driver, but frame-granular: one buffer, one frame. *)

let device_id = 1
let hdr_size = 12

(* Device config space: the station MAC, stored as a little-endian u64
   whose low 48 bits are the address (so the driver recovers it with a
   single [read_config_u64]). *)
let config ~mac =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (mac land 0xffff_ffff_ffff));
  b

module Device = struct
  (* Deliver one frame into the next free receive chain. Returns false
     when the guest has no buffer posted (the frame is dropped, exactly
     like a real NIC with an empty ring). *)
  let feed_rx q g frame =
    let data = Bytes.cat (Bytes.make hdr_size '\000') frame in
    match
      Plumbing.Device.serve_one q (fun buffers ->
          Plumbing.Device.scatter g buffers data ~len:(Bytes.length data))
    with
    | None -> false
    | Some delivered -> delivered = Bytes.length data

  (* Pop every pending transmit chain, strip the virtio-net header and
     hand the frame to [sink] once the chain is used. Returns the number
     of frames sent. *)
  let process_tx q g ~sink =
    let rec loop sent =
      let raw = ref Bytes.empty in
      match
        Plumbing.Device.serve_one q (fun buffers ->
            raw := Plumbing.Device.gather g buffers;
            0)
      with
      | None -> sent
      | Some _ ->
          let len = Bytes.length !raw in
          if len > hdr_size then begin
            sink (Bytes.sub !raw hdr_size (len - hdr_size));
            loop (sent + 1)
          end
          else loop sent
    in
    loop 0
end

module Driver = struct
  module P = Plumbing.Driver

  type t = {
    g : Gmem.t;
    access : Mmio.access;
    rx : P.rx_pool;
    txq : Queue.Driver.t;
    tx_buf : int;
    pending : bytes Stdlib.Queue.t;  (** whole received frames, FIFO *)
    mac : int;  (** 48-bit station address from config space *)
    meter : P.meter;
  }

  let rx_count = 16
  let buf_size = 2048

  let mac t = t.mac

  let init ~obs ~name ~gmem ~access ~alloc =
    match Mmio.probe access ~gmem ~expect_device:device_id ~alloc ~queues:2 with
    | Error e -> Error e
    | Ok queues ->
        let region = alloc ~size:((rx_count + 1) * buf_size) in
        let bufs = Array.init rx_count (fun i -> region + (i * buf_size)) in
        (* the MAC is read before the receive buffers are posted *)
        let mac = Mmio.read_config_u64 access 0 land 0xffff_ffff_ffff in
        Ok
          {
            g = gmem;
            access;
            rx = P.rx_pool access queues.(0) ~bufs ~buf_size;
            txq = queues.(1);
            tx_buf = region + (rx_count * buf_size);
            pending = Stdlib.Queue.create ();
            mac;
            meter = P.meter obs ~name;
          }

  (* Drain completed rx chains into [pending] (one frame each, header
     stripped) and repost their buffers. *)
  let drain_rx t =
    P.drain_rx t.rx (fun addr written ->
        if written > hdr_size then begin
          let raw = Gmem.read t.g ~addr ~len:written in
          Stdlib.Queue.add (Bytes.sub raw hdr_size (written - hdr_size)) t.pending
        end)

  (* Transmit one frame, blocking until the device consumed the chain.
     Because device processing (and any synchronous peer response) runs
     inside the kick, a request/response exchange is complete — reply
     already sitting in the rx ring — when this returns. *)
  let send t raw =
    let len = Bytes.length raw + hdr_size in
    if len > buf_size then failwith "virtio-net: frame too large";
    P.measure t.meter "tx" ~bytes:(Some (Bytes.length raw)) (fun () ->
        Gmem.write t.g ~addr:t.tx_buf (Bytes.make hdr_size '\000');
        Gmem.write t.g ~addr:(t.tx_buf + hdr_size) raw;
        P.submit t.access t.txq ~queue:1 ~out:[ (t.tx_buf, len) ] ~in_:[])

  (* Effect-free: safe to call from a scheduler wake-up predicate. *)
  let rx_ready t =
    (not (Stdlib.Queue.is_empty t.pending)) || P.rx_pending t.rx

  let try_recv t =
    drain_rx t;
    Stdlib.Queue.take_opt t.pending

  (* Blocking receive; parks the vCPU until a frame arrives. Returns
     the raw frame bytes — the guest network stack owns the codec. *)
  let recv t =
    let rec await () =
      match try_recv t with
      | Some raw -> raw
      | None ->
          Effect.perform (Kvm.Vm.Yield_until (fun () -> rx_ready t));
          await ()
    in
    await ()
end
