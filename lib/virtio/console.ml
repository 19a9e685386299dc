let device_id = 3

module Device = struct
  let process_tx q g ~sink =
    let n = ref 0 in
    let rec loop () =
      match Queue.Device.pop q with
      | None -> ()
      | Some (head, buffers) ->
          List.iter
            (fun (b : Queue.Device.buffer) ->
              if not b.writable then
                sink (g.Gmem.read ~addr:b.addr ~len:b.len))
            buffers;
          Queue.Device.push_used q ~head ~written:0;
          incr n;
          loop ()
    in
    loop ();
    !n

  let feed_rx q g data =
    let total = Bytes.length data in
    let delivered = ref 0 in
    let rec loop () =
      if !delivered < total then
        match Queue.Device.pop q with
        | None -> ()
        | Some (head, buffers) ->
            let written = ref 0 in
            List.iter
              (fun (b : Queue.Device.buffer) ->
                if b.writable && !delivered < total then begin
                  let chunk = min b.len (total - !delivered) in
                  g.Gmem.write ~addr:b.addr (Bytes.sub data !delivered chunk);
                  delivered := !delivered + chunk;
                  written := !written + chunk
                end)
              buffers;
            Queue.Device.push_used q ~head ~written:!written;
            loop ()
    in
    loop ();
    !delivered
end

module Driver = struct
  type t = {
    g : Gmem.t;
    access : Mmio.access;
    rxq : Queue.Driver.t;
    txq : Queue.Driver.t;
    rx_bufs : int array;  (** guest-physical addresses of receive buffers *)
    rx_buf_size : int;
    tx_buf : int;
    tx_buf_size : int;
    rx_heads : (int, int) Hashtbl.t;  (** posted chain head -> buffer addr *)
    pending : Buffer.t;  (** received bytes not yet consumed by a reader *)
    mutable obs : (Observe.t * string) option;
  }

  let rx_count = 8
  let buf_size = 1024

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
            rx_heads = Hashtbl.create 16;
            pending = Buffer.create 64;
            obs = None;
          }
        in
        Array.iter (fun addr -> post_rx t addr) t.rx_bufs;
        Ok t

  (* Drain completed rx chains into [pending] and repost their buffers. *)
  let drain_rx t =
    let rec go () =
      match Queue.Driver.poll_used t.rxq with
      | None -> ()
      | Some (head, written) ->
          (match Hashtbl.find_opt t.rx_heads head with
          | Some addr ->
              Hashtbl.remove t.rx_heads head;
              if written > 0 then
                Buffer.add_bytes t.pending
                  (t.g.Gmem.read ~addr ~len:(min written t.rx_buf_size));
              post_rx t addr
          | None -> ());
          go ()
    in
    go ()

  let set_observe t obs ~name = t.obs <- Some (obs, name)

  let measure t ~bytes f =
    match t.obs with
    | None -> f ()
    | Some (obs, name) ->
        let t0 = Observe.now obs in
        let r = f () in
        let dt = Observe.now obs -. t0 in
        Observe.Metrics.observe
          (Observe.Metrics.histogram (Observe.metrics obs) (name ^ ".tx_ns"))
          dt;
        if Observe.enabled obs then
          Trace.Recorder.record (Observe.recorder obs) ~phase:Trace.Instant
            ~kind:(name ^ ".tx")
            ~args:[ ("ns", Trace.I (int_of_float dt)); ("bytes", Trace.I bytes) ]
            ();
        r

  let write t data =
    let len = min (Bytes.length data) t.tx_buf_size in
    measure t ~bytes:len (fun () ->
        t.g.Gmem.write ~addr:t.tx_buf (Bytes.sub data 0 len);
        let head =
          match Queue.Driver.add t.txq ~out:[ (t.tx_buf, len) ] ~in_:[] with
          | Some h -> h
          | None -> failwith "virtio-console: tx ring full"
        in
        kick t ~queue:1;
        Effect.perform
          (Kvm.Vm.Yield_until (fun () -> Queue.Driver.completed t.txq ~head)))

  let read_line t =
    (* The wake-up predicate must be effect-free (it runs in scheduler
       context), so it only peeks; the actual drain — which reposts
       buffers with an MMIO kick — happens back in guest context. *)
    let maybe_ready () =
      String.index_opt (Buffer.contents t.pending) '\n' <> None
      || Queue.Driver.used_pending t.rxq
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
