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

  let err e = { status = Hostos.Errno.to_code e; payload = Bytes.empty }

  let backend_of_simplefs ~clock fs =
    let module Sfs = Blockdev.Simplefs in
    let module Clock = Hostos.Clock in
    let charge_pages len =
      for _ = 1 to max 1 ((len + 4095) / 4096) do
        Clock.page_cache_hit clock
      done
    in
    let ok payload = { status = 0; payload } in
    let u64_payload ~size n =
      let b = Bytes.make size '\000' in
      Bytes.set_int64_le b 0 (Int64.of_int n);
      ok b
    in
    {
      handle =
        (fun req ->
          (* the 9p server re-resolves the path (walk), opens and
             touches the host file system and its page cache on every
             message — the double stack the paper blames for qemu-9p's
             IOPS *)
          Clock.context_switch clock;
          for _ = 1 to 4 do
            Clock.syscall clock;
            Clock.fs_op clock
          done;
          Clock.context_switch clock;
          match req with
          | Read { path; off; len } -> (
              charge_pages len;
              match Result.bind (Sfs.lookup fs path) (Sfs.read fs ~off ~len) with
              | Ok data -> ok data
              | Error e -> err e)
          | Write { path; off; data } -> (
              charge_pages (Bytes.length data);
              let ino =
                match Sfs.lookup fs path with
                | Error Hostos.Errno.ENOENT -> Sfs.create fs path
                | r -> r
              in
              match Result.bind ino (fun ino -> Sfs.write fs ino ~off data) with
              | Ok n -> u64_payload ~size:8 n
              | Error e -> err e)
          | Create path -> (
              match Sfs.create fs path with
              | Ok _ | Error Hostos.Errno.EEXIST -> ok Bytes.empty
              | Error e -> err e)
          | Stat path -> (
              match Sfs.stat fs path with
              | Ok st -> u64_payload ~size:16 st.Sfs.st_size
              | Error e -> err e));
    }

  let process q g backend =
    Plumbing.Device.serve q (fun buffers ->
        let resp =
          match decode_request (Plumbing.Device.gather g buffers) with
          | Some req -> backend.handle req
          | None -> err Hostos.Errno.EINVAL
        in
        let out = encode_response resp in
        Plumbing.Device.scatter g buffers out ~len:(Bytes.length out))
end

module Driver = struct
  module P = Plumbing.Driver

  type t = {
    g : Gmem.t;
    access : Mmio.access;
    queue : Queue.Driver.t;
    req_addr : int;
    resp_addr : int;
    meter : P.meter;
  }

  let init ~obs ~name ~gmem ~access ~alloc =
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
            meter = P.meter obs ~name;
          }

  let op_name = function
    | Read _ -> "read"
    | Write _ -> "write"
    | Create _ -> "create"
    | Stat _ -> "stat"

  (* Per-request latency, one histogram per 9p message type. *)
  let roundtrip t req ~resp_len =
    P.measure t.meter (op_name req) ~bytes:None (fun () ->
        let reqb = encode_request req in
        Gmem.write t.g ~addr:t.req_addr reqb;
        P.submit t.access t.queue ~queue:0
          ~out:[ (t.req_addr, Bytes.length reqb) ]
          ~in_:[ (t.resp_addr, resp_len + 8) ];
        match
          decode_response (Gmem.read t.g ~addr:t.resp_addr ~len:(resp_len + 8))
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
