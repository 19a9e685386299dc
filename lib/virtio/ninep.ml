let device_id = 9
let max_msg = 256 * 1024

(* 9p negotiates an msize that bounds every message: larger transfers
   become multiple round trips — a large part of why qemu-9p cannot
   stream (paper §6.3C). *)
let msize = 8 * 1024

type request =
  | Read of { path : string; off : int; len : int }
  | Write of { path : string; off : int; data : bytes }
  | Create of string
  | Stat of string

type response = { status : int; payload : bytes }

let encode_request r =
  let buf = Buffer.create 64 in
  let add_path p =
    Buffer.add_uint16_le buf (String.length p);
    Buffer.add_string buf p
  in
  (match r with
  | Read { path; off; len } ->
      Buffer.add_uint8 buf 1;
      add_path path;
      Buffer.add_int64_le buf (Int64.of_int off);
      Buffer.add_int32_le buf (Int32.of_int len)
  | Write { path; off; data } ->
      Buffer.add_uint8 buf 2;
      add_path path;
      Buffer.add_int64_le buf (Int64.of_int off);
      Buffer.add_int32_le buf (Int32.of_int (Bytes.length data));
      Buffer.add_bytes buf data
  | Create path ->
      Buffer.add_uint8 buf 3;
      add_path path
  | Stat path ->
      Buffer.add_uint8 buf 4;
      add_path path);
  Buffer.to_bytes buf

let decode_request b =
  try
    let op = Bytes.get_uint8 b 0 in
    let plen = Bytes.get_uint16_le b 1 in
    let path = Bytes.sub_string b 3 plen in
    let base = 3 + plen in
    match op with
    | 1 ->
        Some
          (Read
             {
               path;
               off = Int64.to_int (Bytes.get_int64_le b base);
               len = Int32.to_int (Bytes.get_int32_le b (base + 8));
             })
    | 2 ->
        let len = Int32.to_int (Bytes.get_int32_le b (base + 8)) in
        Some
          (Write
             {
               path;
               off = Int64.to_int (Bytes.get_int64_le b base);
               data = Bytes.sub b (base + 12) len;
             })
    | 3 -> Some (Create path)
    | 4 -> Some (Stat path)
    | _ -> None
  with Invalid_argument _ -> None

let encode_response r =
  let buf = Buffer.create 32 in
  Buffer.add_int32_le buf (Int32.of_int r.status);
  Buffer.add_int32_le buf (Int32.of_int (Bytes.length r.payload));
  Buffer.add_bytes buf r.payload;
  Buffer.to_bytes buf

let decode_response b =
  try
    let status = Int32.to_int (Bytes.get_int32_le b 0) in
    let len = Int32.to_int (Bytes.get_int32_le b 4) in
    Some { status; payload = Bytes.sub b 8 len }
  with Invalid_argument _ -> None

module Device = struct
  type backend = { handle : request -> response }

  let process q g backend =
    let n = ref 0 in
    let rec loop () =
      match Queue.Device.pop q with
      | None -> ()
      | Some (head, buffers) ->
          let out_bufs =
            List.filter (fun b -> not b.Queue.Device.writable) buffers
          in
          let in_bufs = List.filter (fun b -> b.Queue.Device.writable) buffers in
          let reqb =
            List.map
              (fun (b : Queue.Device.buffer) -> g.Gmem.read ~addr:b.addr ~len:b.len)
              out_bufs
            |> Bytes.concat Bytes.empty
          in
          let resp =
            match decode_request reqb with
            | Some req -> backend.handle req
            | None -> { status = Hostos.Errno.to_code Hostos.Errno.EINVAL; payload = Bytes.empty }
          in
          let respb = encode_response resp in
          let written = ref 0 in
          List.iter
            (fun (b : Queue.Device.buffer) ->
              if !written < Bytes.length respb then begin
                let chunk = min b.len (Bytes.length respb - !written) in
                g.Gmem.write ~addr:b.addr (Bytes.sub respb !written chunk);
                written := !written + chunk
              end)
            in_bufs;
          Queue.Device.push_used q ~head ~written:!written;
          incr n;
          loop ()
    in
    loop ();
    !n
end

module Driver = struct
  type t = {
    g : Gmem.t;
    access : Mmio.access;
    queue : Queue.Driver.t;
    req_addr : int;
    resp_addr : int;
    mutable obs : (Observe.t * string) option;
  }

  let init ~gmem ~access ~alloc =
    match Mmio.probe access ~gmem ~expect_device:device_id ~alloc ~queues:1 with
    | Error e -> Error e
    | Ok queues ->
        let req_addr = alloc ~size:(max_msg + 64) in
        let resp_addr = alloc ~size:(max_msg + 64) in
        Ok
          {
            g = gmem;
            access;
            queue = queues.(0);
            req_addr;
            resp_addr;
            obs = None;
          }

  let set_observe t obs ~name = t.obs <- Some (obs, name)

  let op_name = function
    | Read _ -> "read"
    | Write _ -> "write"
    | Create _ -> "create"
    | Stat _ -> "stat"

  (* Per-request latency, one histogram per 9p message type. *)
  let measure t req f =
    match t.obs with
    | None -> f ()
    | Some (obs, name) ->
        let op = op_name req in
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
            ~args:[ ("ns", Trace.I (int_of_float dt)) ]
            ();
        r

  let kick t =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 0l;
    t.access.Mmio.mwrite ~off:Mmio.reg_queue_notify b

  let roundtrip t req ~resp_len =
    measure t req (fun () ->
        let reqb = encode_request req in
        t.g.Gmem.write ~addr:t.req_addr reqb;
        let head =
          match
            Queue.Driver.add t.queue
              ~out:[ (t.req_addr, Bytes.length reqb) ]
              ~in_:[ (t.resp_addr, resp_len + 8) ]
          with
          | Some h -> h
          | None -> failwith "9p driver: ring full"
        in
        kick t;
        Effect.perform
          (Kvm.Vm.Yield_until (fun () -> Queue.Driver.completed t.queue ~head));
        match
          decode_response (t.g.Gmem.read ~addr:t.resp_addr ~len:(resp_len + 8))
        with
        | Some r -> r
        | None -> failwith "9p driver: bad response")

  let to_result r =
    if r.status = 0 then Ok r.payload
    else
      Error
        (Option.value
           (Hostos.Errno.of_code r.status)
           ~default:Hostos.Errno.EIO)

  let read t ~path ~off ~len =
    (* attribute revalidation (Tgetattr) precedes the data messages *)
    ignore (roundtrip t (Stat path) ~resp_len:16);
    (* msize-bounded: one round trip per chunk *)
    let rec go off remaining acc =
      if remaining = 0 then Ok (Bytes.concat Bytes.empty (List.rev acc))
      else
        let chunk = min msize remaining in
        match
          to_result (roundtrip t (Read { path; off; len = chunk }) ~resp_len:chunk)
        with
        | Error e -> Error e
        | Ok data ->
            if Bytes.length data < chunk then
              Ok (Bytes.concat Bytes.empty (List.rev (data :: acc)))
            else go (off + chunk) (remaining - chunk) (data :: acc)
    in
    go off len []

  let write t ~path ~off data =
    ignore (roundtrip t (Stat path) ~resp_len:16);
    let total = Bytes.length data in
    let rec go pos =
      if pos >= total then Ok total
      else
        let chunk = min msize (total - pos) in
        match
          to_result
            (roundtrip t
               (Write { path; off = off + pos; data = Bytes.sub data pos chunk })
               ~resp_len:8)
        with
        | Error e -> Error e
        | Ok _ -> go (pos + chunk)
    in
    go 0

  let create t ~path =
    Result.map ignore (to_result (roundtrip t (Create path) ~resp_len:8))

  let stat_size t ~path =
    Result.map
      (fun payload -> Int64.to_int (Bytes.get_int64_le payload 0))
      (to_result (roundtrip t (Stat path) ~resp_len:16))
end
