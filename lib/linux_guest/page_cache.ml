module Clock = Hostos.Clock

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

type entry = { mutable data : bytes; mutable dirty : bool; dev : Blockdev.Dev.t }

type t = {
  clock : Clock.t;
  capacity : int;
  table : (int * int, entry) Hashtbl.t;
  order : (int * int) Queue.t;  (** FIFO eviction order (approx. LRU) *)
  stats : stats;
  mutable bypassing : bool;
}

let create ~clock ~capacity_blocks =
  {
    clock;
    capacity = capacity_blocks;
    table = Hashtbl.create 1024;
    order = Queue.create ();
    stats = { hits = 0; misses = 0; writebacks = 0 };
    bypassing = false;
  }

let stats t = t.stats

(* The entry does not remember its own block number; key it explicitly. *)
let writeback_key t key e =
  if e.dirty then begin
    t.stats.writebacks <- t.stats.writebacks + 1;
    e.dev.Blockdev.Dev.write_block (snd key) e.data;
    e.dirty <- false
  end

let evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some key -> (
      match Hashtbl.find_opt t.table key with
      | None -> ()
      | Some e ->
          writeback_key t key e;
          Hashtbl.remove t.table key)

let insert t key entry =
  while Hashtbl.length t.table >= t.capacity do
    evict_one t
  done;
  Hashtbl.replace t.table key entry;
  Queue.push key t.order

let readahead_blocks = 32

let wrap ?bulk_read t ~dev_id dev =
  let key i = (dev_id, i) in
  let bs = dev.Blockdev.Dev.block_size in
  let fetch_miss i =
    match bulk_read with
    | None ->
        let data = dev.Blockdev.Dev.read_block i in
        insert t (key i) { data = Bytes.copy data; dirty = false; dev };
        data
    | Some bulk ->
        (* readahead: one device request for the whole window. Blocks
           cached at *fetch time* must never be replaced by the window's
           bytes: the bulk read predates any writeback that an eviction
           during this very loop might trigger, so its data for those
           blocks is stale. Snapshot the skip set first. *)
        let count = min readahead_blocks (dev.Blockdev.Dev.blocks - i) in
        let data = bulk ~first:i ~count in
        let skip = Array.init count (fun k -> Hashtbl.mem t.table (key (i + k))) in
        for k = 0 to count - 1 do
          if not skip.(k) then
            insert t
              (key (i + k))
              { data = Bytes.sub data (k * bs) bs; dirty = false; dev }
        done;
        Bytes.sub data 0 bs
  in
  let read_block i =
    if t.bypassing then begin
      (* O_DIRECT read: coherent with dirty cached data *)
      match Hashtbl.find_opt t.table (key i) with
      | Some e when e.dirty -> Bytes.copy e.data
      | _ -> dev.Blockdev.Dev.read_block i
    end
    else
      match Hashtbl.find_opt t.table (key i) with
      | Some e ->
          t.stats.hits <- t.stats.hits + 1;
          Clock.page_cache_hit t.clock;
          Bytes.copy e.data
      | None ->
          t.stats.misses <- t.stats.misses + 1;
          Clock.page_cache_miss t.clock;
          fetch_miss i
  in
  let write_block i b =
    if t.bypassing then begin
      Hashtbl.remove t.table (key i);
      dev.Blockdev.Dev.write_block i b
    end
    else begin
      (match Hashtbl.find_opt t.table (key i) with
      | Some e ->
          t.stats.hits <- t.stats.hits + 1;
          Clock.page_cache_hit t.clock;
          e.data <- Bytes.copy b;
          e.dirty <- true
      | None ->
          t.stats.misses <- t.stats.misses + 1;
          Clock.page_cache_hit t.clock;
          insert t (key i) { data = Bytes.copy b; dirty = true; dev })
    end
  in
  Blockdev.Dev.make ~block_size:dev.Blockdev.Dev.block_size
    ~blocks:dev.Blockdev.Dev.blocks ~read_block ~write_block
    ~flush:(fun () ->
      Hashtbl.iter (fun k e -> writeback_key t k e) t.table;
      dev.Blockdev.Dev.flush ())
    ~trim:(fun first count ->
      for i = first to first + count - 1 do
        Hashtbl.remove t.table (key i)
      done;
      dev.Blockdev.Dev.trim first count)

let flush t = Hashtbl.iter (fun k e -> writeback_key t k e) t.table

let drop t =
  flush t;
  Hashtbl.reset t.table;
  Queue.clear t.order

let bypass t f =
  let prev = t.bypassing in
  t.bypassing <- true;
  Fun.protect ~finally:(fun () -> t.bypassing <- prev) f
