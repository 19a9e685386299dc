let device_id = 3

module Device = struct
  let process_tx q g ~sink =
    Plumbing.Device.serve q (fun buffers ->
        sink (Plumbing.Device.gather g buffers);
        0)

  let feed_rx q g data =
    let total = Bytes.length data in
    let rec loop delivered =
      if delivered >= total then delivered
      else
        let rest = Bytes.sub data delivered (total - delivered) in
        match
          Plumbing.Device.serve_one q (fun buffers ->
              Plumbing.Device.scatter g buffers rest ~len:(Bytes.length rest))
        with
        | None -> delivered
        | Some n -> loop (delivered + n)
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
    pending : Buffer.t;  (** received bytes not yet consumed by a reader *)
    meter : P.meter;
  }

  let rx_count = 8
  let buf_size = 1024

  let init ~obs ~name ~gmem ~access ~alloc =
    match Mmio.probe access ~gmem ~expect_device:device_id ~alloc ~queues:2 with
    | Error e -> Error e
    | Ok queues ->
        let region = alloc ~size:((rx_count + 1) * buf_size) in
        let bufs = Array.init rx_count (fun i -> region + (i * buf_size)) in
        Ok
          {
            g = gmem;
            access;
            rx = P.rx_pool access queues.(0) ~bufs ~buf_size;
            txq = queues.(1);
            tx_buf = region + (rx_count * buf_size);
            pending = Buffer.create 64;
            meter = P.meter obs ~name;
          }

  (* Drain completed rx chains into [pending] and repost their buffers. *)
  let drain_rx t =
    P.drain_rx t.rx (fun addr written ->
        if written > 0 then
          Buffer.add_bytes t.pending (Gmem.read t.g ~addr ~len:written))

  let write t data =
    let len = min (Bytes.length data) buf_size in
    P.measure t.meter "tx" ~bytes:(Some len) (fun () ->
        t.g.Gmem.write_from ~addr:t.tx_buf data ~off:0 ~len;
        P.submit t.access t.txq ~queue:1 ~out:[ (t.tx_buf, len) ] ~in_:[])

  let read_line t =
    (* The wake-up predicate must be effect-free (it runs in scheduler
       context), so it only peeks; the actual drain — which reposts
       buffers with an MMIO kick — happens back in guest context. *)
    let maybe_ready () =
      String.index_opt (Buffer.contents t.pending) '\n' <> None
      || P.rx_pending t.rx
    in
    let rec await () =
      drain_rx t;
      if String.index_opt (Buffer.contents t.pending) '\n' = None then begin
        Effect.perform (Kvm.Vm.Yield_until maybe_ready);
        await ()
      end
    in
    await ();
    let s = Buffer.contents t.pending in
    match String.index_opt s '\n' with
    | None -> failwith "virtio-console: no line after wakeup"
    | Some i ->
        Buffer.clear t.pending;
        Buffer.add_string t.pending (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
end
