let reg_magic = 0x00
let reg_version = 0x04
let reg_device_id = 0x08
let reg_queue_sel = 0x30
let reg_queue_num_max = 0x34
let reg_queue_num = 0x38
let reg_queue_ready = 0x44
let reg_queue_notify = 0x50
let reg_int_status = 0x60
let reg_int_ack = 0x64
let reg_status = 0x70
let reg_queue_desc_lo = 0x80
let reg_queue_desc_hi = 0x84
let reg_queue_avail_lo = 0x90
let reg_queue_avail_hi = 0x94
let reg_queue_used_lo = 0xa0
let reg_queue_used_hi = 0xa4
let reg_config = 0x100
let magic_value = 0x74726976
let status_acknowledge = 1
let status_driver = 2
let status_driver_ok = 4

let u32_bytes v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  b

let bytes_u32 b = Int32.to_int (Bytes.get_int32_le b 0) land 0xffffffff

module Device = struct
  type queue_state = {
    mutable num : int;
    mutable ready : bool;
    mutable desc : int;
    mutable avail : int;
    mutable used : int;
  }

  type t = {
    device_id : int;
    qmax : int;
    queues : queue_state array;
    config : bytes;
    mutable status : int;
    mutable int_status : int;
    mutable qsel : int;
    mutable notify : (queue:int -> unit) option;
  }

  let create ~device_id ~num_queues ?(qmax = 128) ~config () =
    {
      device_id;
      qmax;
      queues =
        Array.init num_queues (fun _ ->
            { num = 0; ready = false; desc = 0; avail = 0; used = 0 });
      config;
      status = 0;
      int_status = 0;
      qsel = 0;
      notify = None;
    }

  let set_notify t f = t.notify <- Some f
  let queue t i = t.queues.(i)
  let assert_irq t = t.int_status <- t.int_status lor 1
  let irq_pending t = t.int_status land 1 <> 0

  let selq t =
    if t.qsel < Array.length t.queues then Some t.queues.(t.qsel) else None

  let read t ~off ~len =
    let v =
      if off = reg_magic then magic_value
      else if off = reg_version then 2
      else if off = reg_device_id then t.device_id
      else if off = reg_queue_num_max then t.qmax
      else if off = reg_queue_ready then
        (match selq t with Some q when q.ready -> 1 | _ -> 0)
      else if off = reg_int_status then t.int_status
      else if off = reg_status then t.status
      else if off >= reg_config && off + len <= reg_config + Bytes.length t.config
      then begin
        (* byte-granular config window *)
        let b = Bytes.sub t.config (off - reg_config) len in
        let out = Bytes.make (max len 4) '\000' in
        Bytes.blit b 0 out 0 len;
        bytes_u32 out
      end
      else 0
    in
    let b = Bytes.make (max len 4) '\000' in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Bytes.sub b 0 len

  let with_selq t f = match selq t with Some q -> f q | None -> ()

  let set_lo cur v = cur land lnot 0xffffffff lor v
  let set_hi cur v = cur land 0xffffffff lor (v lsl 32)

  let write t ~off b =
    let v = if Bytes.length b >= 4 then bytes_u32 b else Bytes.get_uint8 b 0 in
    if off = reg_queue_sel then t.qsel <- v
    else if off = reg_queue_num then with_selq t (fun q -> q.num <- min v t.qmax)
    else if off = reg_queue_desc_lo then
      with_selq t (fun q -> q.desc <- set_lo q.desc v)
    else if off = reg_queue_desc_hi then
      with_selq t (fun q -> q.desc <- set_hi q.desc v)
    else if off = reg_queue_avail_lo then
      with_selq t (fun q -> q.avail <- set_lo q.avail v)
    else if off = reg_queue_avail_hi then
      with_selq t (fun q -> q.avail <- set_hi q.avail v)
    else if off = reg_queue_used_lo then
      with_selq t (fun q -> q.used <- set_lo q.used v)
    else if off = reg_queue_used_hi then
      with_selq t (fun q -> q.used <- set_hi q.used v)
    else if off = reg_queue_ready then with_selq t (fun q -> q.ready <- v = 1)
    else if off = reg_queue_notify then (
      match t.notify with Some f -> f ~queue:v | None -> ())
    else if off = reg_int_ack then t.int_status <- t.int_status land lnot v
    else if off = reg_status then t.status <- v
    else ()
end

type access = {
  mread : off:int -> len:int -> bytes;
  mwrite : off:int -> bytes -> unit;
}

let aread32 a off = bytes_u32 (a.mread ~off ~len:4)
let awrite32 a off v = a.mwrite ~off (u32_bytes v)

let probe a ~gmem ~expect_device ~alloc ~queues =
  if aread32 a reg_magic <> magic_value then Error "bad virtio magic"
  else if aread32 a reg_version <> 2 then Error "unsupported virtio version"
  else if aread32 a reg_device_id <> expect_device then
    Error
      (Printf.sprintf "expected device id %d, found %d" expect_device
         (aread32 a reg_device_id))
  else begin
    awrite32 a reg_status status_acknowledge;
    awrite32 a reg_status (status_acknowledge lor status_driver);
    let drivers =
      Array.init queues (fun qi ->
          awrite32 a reg_queue_sel qi;
          let qmax = aread32 a reg_queue_num_max in
          let qsz = min 128 qmax in
          awrite32 a reg_queue_num qsz;
          let desc_off, avail_off, used_off, total = Queue.bytes_needed ~qsz in
          let base = alloc ~size:total in
          awrite32 a reg_queue_desc_lo ((base + desc_off) land 0xffffffff);
          awrite32 a reg_queue_desc_hi ((base + desc_off) lsr 32);
          awrite32 a reg_queue_avail_lo ((base + avail_off) land 0xffffffff);
          awrite32 a reg_queue_avail_hi ((base + avail_off) lsr 32);
          awrite32 a reg_queue_used_lo ((base + used_off) land 0xffffffff);
          awrite32 a reg_queue_used_hi ((base + used_off) lsr 32);
          awrite32 a reg_queue_ready 1;
          Queue.Driver.create gmem ~qsz ~desc:(base + desc_off)
            ~avail:(base + avail_off) ~used:(base + used_off))
    in
    awrite32 a reg_status (status_acknowledge lor status_driver lor status_driver_ok);
    Ok drivers
  end

let read_config_u64 a off =
  let lo = aread32 a (reg_config + off) in
  let hi = aread32 a (reg_config + off + 4) in
  lo lor (hi lsl 32)
