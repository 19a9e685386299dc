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

let read_range_into t ~off dst ~len =
  let bs = t.block_size in
  let rec go off pos remaining =
    if remaining > 0 then begin
      let blk = off / bs and boff = off mod bs in
      let chunk = min remaining (bs - boff) in
      if chunk = bs then t.read_into blk dst pos
      else Bytes.blit (t.read_block blk) boff dst pos chunk;
      go (off + chunk) (pos + chunk) (remaining - chunk)
    end
  in
  go off 0 len

let read_range t ~off ~len =
  let out = Bytes.create len in
  read_range_into t ~off out ~len;
  out

let write_range t ~off src ~len =
  let bs = t.block_size in
  let rec go off pos remaining =
    if remaining > 0 then begin
      let blk = off / bs and boff = off mod bs in
      let chunk = min remaining (bs - boff) in
      if chunk = bs then t.write_from blk src pos
      else begin
        let data = t.read_block blk in
        Bytes.blit src pos data boff chunk;
        t.write_block blk data
      end;
      go (off + chunk) (pos + chunk) (remaining - chunk)
    end
  in
  go off 0 len

let observe obs ~name t =
  let mx = Observe.metrics obs in
  (* each op's histogram is looked up by name once, at the op's first
     timing, so the registry still meets the names in the same order *)
  let hist op = lazy (Observe.Metrics.histogram mx (name ^ "." ^ op ^ "_ns")) in
  let read = hist "read" and write = hist "write" and flush = hist "flush" in
  let timed h f =
    let t0 = Observe.now obs in
    let r = f () in
    Observe.Metrics.observe (Lazy.force h) (Observe.now obs -. t0);
    r
  in
  {
    t with
    read_block = (fun i -> timed read (fun () -> t.read_block i));
    write_block = (fun i b -> timed write (fun () -> t.write_block i b));
    read_into =
      (fun i dst off -> timed read (fun () -> t.read_into i dst off));
    write_from =
      (fun i src off -> timed write (fun () -> t.write_from i src off));
    flush = (fun () -> timed flush (fun () -> t.flush ()));
  }

let sub t ~first_block ~blocks =
  if first_block + blocks > t.blocks then invalid_arg "Dev.sub: out of range";
  (* the window's own bounds: an index past it must not reach the
     parent's next block *)
  let at what i =
    if i < 0 || i >= blocks then
      invalid_arg (Printf.sprintf "Dev.sub.%s %d out of %d" what i blocks);
    first_block + i
  in
  {
    block_size = t.block_size;
    blocks;
    read_block = (fun i -> t.read_block (at "read_block" i));
    write_block = (fun i b -> t.write_block (at "write_block" i) b);
    read_into = (fun i dst off -> t.read_into (at "read_block" i) dst off);
    write_from = (fun i src off -> t.write_from (at "write_block" i) src off);
    flush = t.flush;
    trim =
      (fun first count ->
        let lo = max 0 first and hi = min blocks (first + count) in
        t.trim (first_block + lo) (max 0 (hi - lo)));
  }
