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

(* The cached view moves whole blocks between the caller's buffer and
   the entries: a hit is one blit, into the caller's buffer or into the
   entry's own. An entry's bytes are never aliased — [read_block] hands
   out copies and every insertion stores a fresh buffer — so a write
   hit may overwrite them in place. *)
let wrap ?bulk_read t ~dev_id dev =
  let key i = (dev_id, i) in
  let bs = dev.Blockdev.Dev.block_size in
  let fetch_miss i dst off =
    match bulk_read with
    | None ->
        dev.Blockdev.Dev.read_into i dst off;
        insert t (key i) { data = Bytes.sub dst off bs; dirty = false; dev }
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
        Bytes.blit data 0 dst off bs
  in
  let read_into i dst off =
    if t.bypassing then begin
      (* O_DIRECT read: coherent with dirty cached data *)
      match Hashtbl.find_opt t.table (key i) with
      | Some e when e.dirty -> Bytes.blit e.data 0 dst off bs
      | _ -> dev.Blockdev.Dev.read_into i dst off
    end
    else
      match Hashtbl.find_opt t.table (key i) with
      | Some e ->
          t.stats.hits <- t.stats.hits + 1;
          Clock.page_cache_hit t.clock;
          Bytes.blit e.data 0 dst off bs
      | None ->
          t.stats.misses <- t.stats.misses + 1;
          Clock.page_cache_miss t.clock;
          fetch_miss i dst off
  in
  let write_from i src off =
    if t.bypassing then begin
      Hashtbl.remove t.table (key i);
      dev.Blockdev.Dev.write_from i src off
    end
    else begin
      (match Hashtbl.find_opt t.table (key i) with
      | Some e ->
          t.stats.hits <- t.stats.hits + 1;
          Clock.page_cache_hit t.clock;
          Bytes.blit src off e.data 0 bs;
          e.dirty <- true
      | None ->
          t.stats.misses <- t.stats.misses + 1;
          Clock.page_cache_hit t.clock;
          insert t (key i) { data = Bytes.sub src off bs; dirty = true; dev })
    end
  in
  {
    Blockdev.Dev.block_size = bs;
    blocks = dev.Blockdev.Dev.blocks;
    read_block =
      (fun i ->
        let b = Bytes.create bs in
        read_into i b 0;
        b);
    write_block = (fun i b -> write_from i b 0);
    read_into;
    write_from;
    flush =
      (fun () ->
        Hashtbl.iter (fun k e -> writeback_key t k e) t.table;
        dev.Blockdev.Dev.flush ());
    trim =
      (fun first count ->
        for i = first to first + count - 1 do
          Hashtbl.remove t.table (key i)
        done;
        dev.Blockdev.Dev.trim first count);
  }

let flush t = Hashtbl.iter (fun k e -> writeback_key t k e) t.table

let drop t =
  flush t;
  Hashtbl.reset t.table;
  Queue.clear t.order

let bypass t f =
  let prev = t.bypassing in
  t.bypassing <- true;
  Fun.protect ~finally:(fun () -> t.bypassing <- prev) f
