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
    match Queue.Device.pop q with
    | None -> false
    | Some (head, buffers) ->
        let data = Bytes.cat (Bytes.make hdr_size '\000') frame in
        let total = Bytes.length data in
        let delivered = ref 0 in
        List.iter
          (fun (b : Queue.Device.buffer) ->
            if b.writable && !delivered < total then begin
              let chunk = min b.len (total - !delivered) in
              g.Gmem.write ~addr:b.addr (Bytes.sub data !delivered chunk);
              delivered := !delivered + chunk
            end)
          buffers;
        Queue.Device.push_used q ~head ~written:!delivered;
        !delivered = total

  (* Pop every pending transmit chain, strip the virtio-net header and
     hand the frame to [sink]. Returns the number of frames sent. *)
  let process_tx q g ~sink =
    let n = ref 0 in
    let rec loop () =
      match Queue.Device.pop q with
      | None -> ()
      | Some (head, buffers) ->
          let buf = Buffer.create 256 in
          List.iter
            (fun (b : Queue.Device.buffer) ->
              if not b.writable then
                Buffer.add_bytes buf (g.Gmem.read ~addr:b.addr ~len:b.len))
            buffers;
          Queue.Device.push_used q ~head ~written:0;
          let raw = Buffer.to_bytes buf in
          if Bytes.length raw > hdr_size then begin
            sink (Bytes.sub raw hdr_size (Bytes.length raw - hdr_size));
            incr n
          end;
          loop ()
    in
    loop ();
    !n
end

module Driver = struct
  type t = {
    g : Gmem.t;
    access : Mmio.access;
    rxq : Queue.Driver.t;
    txq : Queue.Driver.t;
    rx_bufs : int array;
    rx_buf_size : int;
    tx_buf : int;
    tx_buf_size : int;
    rx_heads : (int, int) Hashtbl.t;  (** posted chain head -> buffer addr *)
    pending : bytes Stdlib.Queue.t;  (** whole received frames, FIFO *)
    mac : int;  (** 48-bit station address from config space *)
    mutable obs : (Observe.t * string) option;
  }

  let rx_count = 16
  let buf_size = 2048

  let mac t = t.mac

  let kick t ~queue =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int queue);
    t.access.Mmio.mwrite ~off:Mmio.reg_queue_notify b

  let post_rx t addr =
    match Queue.Driver.add t.rxq ~out:[] ~in_:[ (addr, t.rx_buf_size) ] with
    | Some head ->
        Hashtbl.replace t.rx_heads head addr;
        kick t ~queue:0
    | None -> ()

  let init ~gmem ~access ~alloc =
    match Mmio.probe access ~gmem ~expect_device:device_id ~alloc ~queues:2 with
    | Error e -> Error e
    | Ok queues ->
        let region = alloc ~size:((rx_count + 1) * buf_size) in
        let rx_bufs = Array.init rx_count (fun i -> region + (i * buf_size)) in
        let t =
          {
            g = gmem;
            access;
            rxq = queues.(0);
            txq = queues.(1);
            rx_bufs;
            rx_buf_size = buf_size;
            tx_buf = region + (rx_count * buf_size);
            tx_buf_size = buf_size;
            rx_heads = Hashtbl.create 32;
            pending = Stdlib.Queue.create ();
            mac = Mmio.read_config_u64 access 0 land 0xffff_ffff_ffff;
            obs = None;
          }
        in
        Array.iter (fun addr -> post_rx t addr) t.rx_bufs;
        Ok t

  let set_observe t obs ~name = t.obs <- Some (obs, name)

  let measure t op ~bytes f =
    match t.obs with
    | None -> f ()
    | Some (obs, name) ->
        let t0 = Observe.now obs in
        let r = f () in
        let dt = Observe.now obs -. t0 in
        Observe.Metrics.observe
          (Observe.Metrics.histogram (Observe.metrics obs)
             (Printf.sprintf "%s.%s_ns" name op))
          dt;
        if Observe.enabled obs then
          Trace.Recorder.record (Observe.recorder obs) ~phase:Trace.Instant
            ~kind:(Printf.sprintf "%s.%s" name op)
            ~args:[ ("ns", Trace.I (int_of_float dt)); ("bytes", Trace.I bytes) ]
            ();
        r

  (* Drain completed rx chains into [pending] (one frame each, header
     stripped) and repost their buffers. *)
  let drain_rx t =
    let rec go () =
      match Queue.Driver.poll_used t.rxq with
      | None -> ()
      | Some (head, written) ->
          (match Hashtbl.find_opt t.rx_heads head with
          | Some addr ->
              Hashtbl.remove t.rx_heads head;
              let written = min written t.rx_buf_size in
              if written > hdr_size then begin
                let raw = t.g.Gmem.read ~addr ~len:written in
                Stdlib.Queue.add
                  (Bytes.sub raw hdr_size (written - hdr_size))
                  t.pending
              end;
              post_rx t addr
          | None -> ());
          go ()
    in
    go ()

  (* Transmit one frame, blocking until the device consumed the chain.
     Because device processing (and any synchronous peer response) runs
     inside the kick, a request/response exchange is complete — reply
     already sitting in the rx ring — when this returns. *)
  let send t raw =
    let len = Bytes.length raw + hdr_size in
    if len > t.tx_buf_size then failwith "virtio-net: frame too large";
    measure t "tx" ~bytes:(Bytes.length raw) (fun () ->
        t.g.Gmem.write ~addr:t.tx_buf (Bytes.make hdr_size '\000');
        t.g.Gmem.write ~addr:(t.tx_buf + hdr_size) raw;
        let rec submit () =
          match Queue.Driver.add t.txq ~out:[ (t.tx_buf, len) ] ~in_:[] with
          | Some head ->
              kick t ~queue:1;
              Effect.perform
                (Kvm.Vm.Yield_until
                   (fun () -> Queue.Driver.completed t.txq ~head))
          | None ->
              Effect.perform
                (Kvm.Vm.Yield_until
                   (fun () ->
                     Queue.Driver.in_flight t.txq < Queue.Driver.qsz t.txq));
              submit ()
        in
        submit ())

  (* Effect-free: safe to call from a scheduler wake-up predicate. *)
  let rx_ready t =
    (not (Stdlib.Queue.is_empty t.pending)) || Queue.Driver.used_pending t.rxq

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
