module Driver = struct
  let kick (access : Mmio.access) ~queue =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int queue);
    access.Mmio.mwrite ~off:Mmio.reg_queue_notify b

  (* A full ring parks the caller until the device frees a chain. Only
     blk (8 slots of at most 3 descriptors) and net can have more than
     one chain in flight on a queue; console and 9p wait for each chain
     before posting the next, so they never see a full ring. *)
  let submit access q ~queue ~out ~in_ =
    let rec add () =
      match Queue.Driver.add q ~out ~in_ with
      | Some head -> head
      | None ->
          Effect.perform
            (Kvm.Vm.Yield_until
               (fun () -> Queue.Driver.in_flight q < Queue.Driver.qsz q));
          add ()
    in
    let head = add () in
    kick access ~queue;
    Effect.perform
      (Kvm.Vm.Yield_until (fun () -> Queue.Driver.completed q ~head))

  type meter = {
    obs : Observe.t;
    name : string;
    mutable ops : (string * (Observe.Metrics.histogram * string)) list;
        (** each op's histogram and trace kind, resolved at its first use *)
  }

  let meter obs ~name = { obs; name; ops = [] }

  let op_handles m op =
    match List.assoc_opt op m.ops with
    | Some h -> h
    | None ->
        let kind = m.name ^ "." ^ op in
        let h =
          (Observe.Metrics.histogram (Observe.metrics m.obs) (kind ^ "_ns"), kind)
        in
        m.ops <- (op, h) :: m.ops;
        h

  let measure m op ~bytes f =
    let t0 = Observe.now m.obs in
    let r = f () in
    let dt = Observe.now m.obs -. t0 in
    let hist, kind = op_handles m op in
    Observe.Metrics.observe hist dt;
    if Observe.enabled m.obs then
      Trace.Recorder.record (Observe.recorder m.obs) ~phase:Trace.Instant
        ~kind
        ~args:
          (("ns", Trace.I (int_of_float dt))
          :: (match bytes with Some n -> [ ("bytes", Trace.I n) ] | None -> []))
        ();
    r

  type rx_pool = {
    access : Mmio.access;
    rxq : Queue.Driver.t;
    buf_size : int;
    heads : (int, int) Hashtbl.t;  (** posted chain head -> buffer addr *)
  }

  (* The receive queue is queue 0 in the virtio order. *)
  let post_rx p addr =
    match Queue.Driver.add p.rxq ~out:[] ~in_:[ (addr, p.buf_size) ] with
    | Some head ->
        Hashtbl.replace p.heads head addr;
        kick p.access ~queue:0
    | None -> ()

  let rx_pool access rxq ~bufs ~buf_size =
    let p =
      {
        access;
        rxq;
        buf_size;
        heads = Hashtbl.create (2 * Array.length bufs);
      }
    in
    Array.iter (post_rx p) bufs;
    p

  let drain_rx p f =
    let rec go () =
      match Queue.Driver.poll_used p.rxq with
      | None -> ()
      | Some (head, written) ->
          (match Hashtbl.find_opt p.heads head with
          | Some addr ->
              Hashtbl.remove p.heads head;
              f addr (min written p.buf_size);
              post_rx p addr
          | None -> ());
          go ()
    in
    go ()

  let rx_pending p = Queue.Driver.used_pending p.rxq
end

module Device = struct
  let serve_one q f =
    match Queue.Device.pop q with
    | None -> None
    | Some (head, buffers) ->
        let written = f buffers in
        Queue.Device.push_used q ~head ~written;
        Some written

  let serve q f =
    let rec loop n =
      match serve_one q f with None -> n | Some _ -> loop (n + 1)
    in
    loop 0

  let readable_len buffers =
    List.fold_left
      (fun n (b : Queue.Device.buffer) -> if b.writable then n else n + b.len)
      0 buffers

  let gather_into (g : Gmem.t) buffers dst =
    List.fold_left
      (fun off (b : Queue.Device.buffer) ->
        if b.writable then off
        else begin
          g.read_into ~addr:b.addr dst ~off ~len:b.len;
          off + b.len
        end)
      0 buffers

  let gather g buffers =
    let dst = Bytes.create (readable_len buffers) in
    ignore (gather_into g buffers dst);
    dst

  let scatter (g : Gmem.t) buffers src ~len =
    List.fold_left
      (fun off (b : Queue.Device.buffer) ->
        if (not b.writable) || off >= len then off
        else begin
          let n = min b.len (len - off) in
          g.write_from ~addr:b.addr src ~off ~len:n;
          off + n
        end)
      0 buffers
end
