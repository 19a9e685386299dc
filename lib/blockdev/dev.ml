type t = {
  block_size : int;
  blocks : int;
  read_block : int -> bytes;
  write_block : int -> bytes -> unit;
  read_into : int -> bytes -> int -> unit;
  write_from : int -> bytes -> int -> unit;
  flush : unit -> unit;
  trim : int -> int -> unit;
}

let block_size = 4096
let size_bytes t = t.block_size * t.blocks

let make ~block_size ~blocks ~read_block ~write_block ~flush ~trim =
  {
    block_size;
    blocks;
    read_block;
    write_block;
    read_into =
      (fun i dst off -> Bytes.blit (read_block i) 0 dst off block_size);
    write_from =
      (fun i src off -> write_block i (Bytes.sub src off block_size));
    flush;
    trim;
  }

let read_range t ~off ~len =
  let bs = t.block_size in
  let out = Bytes.create len in
  let rec go off dst remaining =
    if remaining > 0 then begin
      let blk = off / bs and boff = off mod bs in
      let chunk = min remaining (bs - boff) in
      if chunk = bs then t.read_into blk out dst
      else Bytes.blit (t.read_block blk) boff out dst chunk;
      go (off + chunk) (dst + chunk) (remaining - chunk)
    end
  in
  go off 0 len;
  out

let write_range t ~off b =
  let bs = t.block_size in
  let rec go off src remaining =
    if remaining > 0 then begin
      let blk = off / bs and boff = off mod bs in
      let chunk = min remaining (bs - boff) in
      if chunk = bs then t.write_from blk b src
      else begin
        let data = t.read_block blk in
        Bytes.blit b src data boff chunk;
        t.write_block blk data
      end;
      go (off + chunk) (src + chunk) (remaining - chunk)
    end
  in
  go off 0 (Bytes.length b)

let observe obs ~name t =
  let mx = Observe.metrics obs in
  let timed op f =
    let t0 = Observe.now obs in
    let r = f () in
    Observe.Metrics.observe
      (Observe.Metrics.histogram mx (name ^ "." ^ op ^ "_ns"))
      (Observe.now obs -. t0);
    r
  in
  {
    t with
    read_block = (fun i -> timed "read" (fun () -> t.read_block i));
    write_block = (fun i b -> timed "write" (fun () -> t.write_block i b));
    read_into =
      (fun i dst off -> timed "read" (fun () -> t.read_into i dst off));
    write_from =
      (fun i src off -> timed "write" (fun () -> t.write_from i src off));
    flush = (fun () -> timed "flush" (fun () -> t.flush ()));
  }

let sub t ~first_block ~blocks =
  if first_block + blocks > t.blocks then invalid_arg "Dev.sub: out of range";
  {
    block_size = t.block_size;
    blocks;
    read_block = (fun i -> t.read_block (first_block + i));
    write_block = (fun i b -> t.write_block (first_block + i) b);
    read_into = (fun i dst off -> t.read_into (first_block + i) dst off);
    write_from = (fun i src off -> t.write_from (first_block + i) src off);
    flush = t.flush;
    trim = (fun first count -> t.trim (first_block + first) count);
  }
