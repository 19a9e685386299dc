let device_id = 2
let sector_size = 512
let sectors_per_block = Blockdev.Dev.block_size / sector_size
let t_in = 0
let t_out = 1
let t_flush = 4
let t_discard = 11
let status_ok = 0
let status_ioerr = 1
let status_unsupp = 2
let header_size = 16
let max_data = 256 * 1024

module Device = struct
  type backend = {
    capacity_sectors : int;
    read_into : sector:int -> bytes -> len:int -> unit;
    write_from : sector:int -> bytes -> len:int -> unit;
    flush : unit -> unit;
    discard : sector:int -> len:int -> unit;
  }

  let backend_of_blockdev dev =
    let open Blockdev in
    {
      capacity_sectors = Dev.size_bytes dev / sector_size;
      read_into =
        (fun ~sector buf ~len ->
          Dev.read_range_into dev ~off:(sector * sector_size) buf ~len);
      write_from =
        (fun ~sector buf ~len ->
          Dev.write_range dev ~off:(sector * sector_size) buf ~len);
      flush = (fun () -> dev.Dev.flush ());
      discard =
        (fun ~sector ~len ->
          let first = sector * sector_size / Dev.block_size in
          let count = len / Dev.block_size in
          dev.Dev.trim first count);
    }

  type t = { backend : backend; mutable payload : bytes }

  let create backend = { backend; payload = Bytes.empty }

  (* The buffer a request's data moves through: the device's own,
     allocated at the first request and doubled from 4 KiB, up to
     [max_data], whenever a request needs more, so a device that only
     ever serves small requests keeps a small buffer. Only a hostile
     driver posts a chain longer than [max_data]; it gets a transient
     buffer of its own size. *)
  let payload t len =
    if len > max_data then Bytes.create len
    else begin
      if Bytes.length t.payload < len then begin
        let rec fit n = if n >= len then n else fit (2 * n) in
        t.payload <- Bytes.create (fit 4096)
      end;
      t.payload
    end

  let config ~capacity_sectors =
    let b = Bytes.make 8 '\000' in
    Bytes.set_int64_le b 0 (Int64.of_int capacity_sectors);
    b

  let parse_header g (buf : Queue.Device.buffer) =
    let hdr = Gmem.read g ~addr:buf.Queue.Device.addr ~len:header_size in
    let typ = Int32.to_int (Bytes.get_int32_le hdr 0) land 0xffffffff in
    let sector = Int64.to_int (Bytes.get_int64_le hdr 8) in
    (typ, sector)

  (* A header or discard segment is read only when its descriptor holds
     all 16 bytes of it: validation checked the descriptor's own bytes,
     not what lies past them. *)
  let process q g t =
    let backend = t.backend in
    Plumbing.Device.serve q (fun buffers ->
        match buffers with
        | hdr_buf :: rest
          when (not hdr_buf.Queue.Device.writable)
               && hdr_buf.Queue.Device.len >= header_size ->
            let typ, sector = parse_header g hdr_buf in
            (* last writable buffer is the status byte *)
            let rec split_status acc = function
              | [] -> (List.rev acc, None)
              | [ last ] when last.Queue.Device.writable -> (List.rev acc, Some last)
              | b :: more -> split_status (b :: acc) more
            in
            let data_bufs, status_buf = split_status [] rest in
            let put_status code =
              match status_buf with
              | Some sb ->
                  Gmem.write g ~addr:sb.Queue.Device.addr
                    (Bytes.make 1 (Char.chr code))
              | None -> ()
            in
            let in_range len =
              sector >= 0
              && sector + ((len + sector_size - 1) / sector_size)
                 <= backend.capacity_sectors
            in
            if typ = t_in then begin
              let data_len =
                List.fold_left (fun a b -> a + b.Queue.Device.len) 0 data_bufs
              in
              if not (in_range data_len) then begin
                put_status status_ioerr;
                1
              end
              else begin
                let buf = payload t data_len in
                backend.read_into ~sector buf ~len:data_len;
                ignore (Plumbing.Device.scatter g data_bufs buf ~len:data_len);
                put_status status_ok;
                data_len + 1
              end
            end
            else begin
              if typ = t_out then begin
                let buf = payload t (Plumbing.Device.readable_len data_bufs) in
                let len = Plumbing.Device.gather_into g data_bufs buf in
                if in_range len then begin
                  backend.write_from ~sector buf ~len;
                  put_status status_ok
                end
                else put_status status_ioerr
              end
              else if typ = t_flush then begin
                backend.flush ();
                put_status status_ok
              end
              else if typ = t_discard then begin
                match data_bufs with
                | seg :: _ when seg.Queue.Device.len < 16 ->
                    put_status status_ioerr
                | seg :: _ ->
                    let sb = Gmem.read g ~addr:seg.Queue.Device.addr ~len:16 in
                    let dsec = Int64.to_int (Bytes.get_int64_le sb 0) in
                    let dcount =
                      Int32.to_int (Bytes.get_int32_le sb 8) land 0xffffffff
                    in
                    backend.discard ~sector:dsec ~len:(dcount * sector_size);
                    put_status status_ok
                | [] -> put_status status_ok
              end
              else put_status status_unsupp;
              1
            end
        | _ ->
            (* malformed request (no readable header, or one shorter
               than [header_size]): complete it with no status *)
            0)
end

module Driver = struct
  module P = Plumbing.Driver

  type slot = {
    hdr_addr : int;
    data_addr : int;
    status_addr : int;
    mutable busy : bool;
  }

  type t = {
    g : Gmem.t;
    access : Mmio.access;
    queue : Queue.Driver.t;
    slots : slot array;
    capacity : int;
    meter : P.meter;
  }

  let num_slots = 8

  let init ~obs ~name ~gmem ~access ~alloc =
    match Mmio.probe access ~gmem ~expect_device:device_id ~alloc ~queues:1 with
    | Error e -> Error e
    | Ok queues ->
        let slot_bytes = header_size + max_data + 16 in
        let region = alloc ~size:(num_slots * slot_bytes) in
        let slots =
          Array.init num_slots (fun i ->
              let base = region + (i * slot_bytes) in
              {
                hdr_addr = base;
                data_addr = base + header_size;
                status_addr = base + header_size + max_data;
                busy = false;
              })
        in
        Ok
          {
            g = gmem;
            access;
            queue = queues.(0);
            slots;
            capacity = Mmio.read_config_u64 access 0;
            meter = P.meter obs ~name;
          }

  let capacity_sectors t = t.capacity
  let queue t = t.queue

  let take_slot t =
    let find () = Array.find_opt (fun s -> not s.busy) t.slots in
    (match find () with
    | Some _ -> ()
    | None -> Effect.perform (Kvm.Vm.Yield_until (fun () -> find () <> None)));
    match find () with
    | Some s ->
        s.busy <- true;
        s
    | None -> failwith "virtio-blk driver: no free slot after wakeup"

  let write_header t slot ~typ ~sector =
    let hdr = Bytes.make header_size '\000' in
    Bytes.set_int32_le hdr 0 (Int32.of_int typ);
    Bytes.set_int64_le hdr 8 (Int64.of_int sector);
    Gmem.write t.g ~addr:slot.hdr_addr hdr

  let status_of t slot =
    Char.code (Bytes.get (Gmem.read t.g ~addr:slot.status_addr ~len:1) 0)

  (* One request through a free slot: the header, then [data] (if any)
     copied into the slot, then a chain of the header, that data, a
     [read_len]-byte answer (if any) and the status byte. Returns the
     answer read back out of the slot. *)
  let request t op ~typ ~sector ~bytes ~data ~read_len =
    P.measure t.meter op ~bytes:(Some bytes) (fun () ->
        let slot = take_slot t in
        write_header t slot ~typ ~sector;
        let out =
          match data with
          | None -> []
          | Some d ->
              Gmem.write t.g ~addr:slot.data_addr d;
              [ (slot.data_addr, Bytes.length d) ]
        in
        let answer = Option.map (fun len -> (slot.data_addr, len)) read_len in
        P.submit t.access t.queue ~queue:0
          ~out:((slot.hdr_addr, header_size) :: out)
          ~in_:(Option.to_list answer @ [ (slot.status_addr, 1) ]);
        let r =
          Option.map (fun (addr, len) -> Gmem.read t.g ~addr ~len) answer
        in
        let st = status_of t slot in
        slot.busy <- false;
        if st <> status_ok then
          failwith (Printf.sprintf "virtio-blk %s failed with status %d" op st);
        r)

  let read t ~sector ~len =
    if len > max_data then invalid_arg "virtio-blk read: request too large";
    Option.get
      (request t "read" ~typ:t_in ~sector ~bytes:len ~data:None
         ~read_len:(Some len))

  let write t ~sector data =
    let len = Bytes.length data in
    if len > max_data then invalid_arg "virtio-blk write: request too large";
    ignore
      (request t "write" ~typ:t_out ~sector ~bytes:len ~data:(Some data)
         ~read_len:None)

  let flush t =
    ignore
      (request t "flush" ~typ:t_flush ~sector:0 ~bytes:0 ~data:None
         ~read_len:None)

  let discard t ~sector ~count =
    let seg = Bytes.make 16 '\000' in
    Bytes.set_int64_le seg 0 (Int64.of_int sector);
    Bytes.set_int32_le seg 8 (Int32.of_int count);
    ignore
      (request t "discard" ~typ:t_discard ~sector:0
         ~bytes:(count * sector_size) ~data:(Some seg) ~read_len:None)

  let to_blockdev t =
    let bs = Blockdev.Dev.block_size in
    Blockdev.Dev.make ~block_size:bs ~blocks:(t.capacity / sectors_per_block)
      ~read_block:(fun i -> read t ~sector:(i * sectors_per_block) ~len:bs)
      ~write_block:(fun i b -> write t ~sector:(i * sectors_per_block) b)
      ~flush:(fun () -> flush t)
      ~trim:(fun first count ->
        discard t ~sector:(first * sectors_per_block)
          ~count:(count * sectors_per_block * sector_size / sector_size))
end
