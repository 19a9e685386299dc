let desc_f_next = 0x1
let desc_f_write = 0x2

let desc_entry = 16
let used_entry = 8

let bytes_needed ~qsz =
  let desc_off = 0 in
  let avail_off = qsz * desc_entry in
  let used_off = avail_off + 4 + (2 * qsz) in
  (* align used ring to 4 *)
  let used_off = (used_off + 3) land lnot 3 in
  let total = used_off + 4 + (used_entry * qsz) in
  (desc_off, avail_off, used_off, total)

(* Field accessors shared by both halves. *)

let desc_addr g ~desc i = Gmem.read_u64 g (desc + (i * desc_entry))
let desc_len g ~desc i = Gmem.read_u32 g (desc + (i * desc_entry) + 8)
let desc_flags g ~desc i = Gmem.read_u16 g (desc + (i * desc_entry) + 12)
let desc_next g ~desc i = Gmem.read_u16 g (desc + (i * desc_entry) + 14)

let write_desc g ~desc i ~addr ~len ~flags ~next =
  Gmem.write_u64 g (desc + (i * desc_entry)) addr;
  Gmem.write_u32 g (desc + (i * desc_entry) + 8) len;
  Gmem.write_u16 g (desc + (i * desc_entry) + 12) flags;
  Gmem.write_u16 g (desc + (i * desc_entry) + 14) next

let avail_idx g ~avail = Gmem.read_u16 g (avail + 2)
let set_avail_idx g ~avail v = Gmem.write_u16 g (avail + 2) (v land 0xffff)
let avail_ring g ~avail ~qsz slot = Gmem.read_u16 g (avail + 4 + (2 * (slot mod qsz)))
let set_avail_ring g ~avail ~qsz slot v =
  Gmem.write_u16 g (avail + 4 + (2 * (slot mod qsz))) v

let used_idx g ~used = Gmem.read_u16 g (used + 2)
let set_used_idx g ~used v = Gmem.write_u16 g (used + 2) (v land 0xffff)

let used_elem g ~used ~qsz slot =
  let base = used + 4 + (used_entry * (slot mod qsz)) in
  (Gmem.read_u32 g base, Gmem.read_u32 g (base + 4))

let set_used_elem g ~used ~qsz slot ~id ~len =
  let base = used + 4 + (used_entry * (slot mod qsz)) in
  Gmem.write_u32 g base id;
  Gmem.write_u32 g (base + 4) len

module Driver = struct
  type t = {
    g : Gmem.t;
    qsz : int;
    desc : int;
    avail : int;
    used : int;
    mutable free : int list;  (** free descriptor indices *)
    is_free : bool array;  (** membership of [free], by index *)
    mutable next_avail : int;  (** shadow of avail idx *)
    mutable last_used : int;  (** last seen used idx *)
    mutable live : int;
    completed_heads : bool array;
    outstanding : bool array;
        (** heads posted and not yet completed; used-ring entries for
            any other id are forged and dropped *)
  }

  let create g ~qsz ~desc ~avail ~used =
    set_avail_idx g ~avail 0;
    set_used_idx g ~used 0;
    {
      g;
      qsz;
      desc;
      avail;
      used;
      free = List.init qsz Fun.id;
      is_free = Array.make qsz true;
      next_avail = 0;
      last_used = 0;
      live = 0;
      completed_heads = Array.make qsz false;
      outstanding = Array.make qsz false;
    }

  let qsz t = t.qsz
  let rings t = (t.desc, t.avail, t.used)
  let free_list t = t.free

  let add t ~out ~in_ =
    let bufs =
      List.map (fun (a, l) -> (a, l, 0)) out
      @ List.map (fun (a, l) -> (a, l, desc_f_write)) in_
    in
    let n = List.length bufs in
    if n = 0 || List.length t.free < n then None
    else begin
      let rec take k acc free =
        if k = 0 then (List.rev acc, free)
        else
          match free with
          | [] -> assert false
          | d :: rest ->
              t.is_free.(d) <- false;
              take (k - 1) (d :: acc) rest
      in
      let descs, free = take n [] t.free in
      t.free <- free;
      let rec link = function
        | [] -> ()
        | [ (d, (addr, len, wflags)) ] ->
            write_desc t.g ~desc:t.desc d ~addr ~len ~flags:wflags ~next:0
        | (d, (addr, len, wflags)) :: ((d', _) :: _ as rest) ->
            write_desc t.g ~desc:t.desc d ~addr ~len
              ~flags:(wflags lor desc_f_next) ~next:d';
            link rest
      in
      link (List.combine descs bufs);
      let head = List.hd descs in
      t.outstanding.(head) <- true;
      set_avail_ring t.g ~avail:t.avail ~qsz:t.qsz t.next_avail head;
      t.next_avail <- t.next_avail + 1;
      set_avail_idx t.g ~avail:t.avail t.next_avail;
      t.live <- t.live + 1;
      Some head
    end

  (* Walk the chain from guest memory to return its descriptors to the
     free list. The chain lives in shared memory a hostile guest can
     rewrite, so the walk stops at an index out of range or already
     free (including one this walk freed): it never frees an index
     twice, so a corrupted [next] cannot poison the free list, and it
     takes at most [qsz] hops. *)
  let free_chain t head =
    let rec go d acc =
      if d < 0 || d >= t.qsz || t.is_free.(d) then acc
      else begin
        t.is_free.(d) <- true;
        let flags = desc_flags t.g ~desc:t.desc d in
        let acc = d :: acc in
        if flags land desc_f_next <> 0 then go (desc_next t.g ~desc:t.desc d) acc
        else acc
      end
    in
    t.free <- go head [] @ t.free

  let used_pending t = used_idx t.g ~used:t.used <> t.last_used land 0xffff

  let rec poll_used t =
    let cur = used_idx t.g ~used:t.used in
    if t.last_used land 0xffff = cur then None
    else begin
      let id, len = used_elem t.g ~used:t.used ~qsz:t.qsz t.last_used in
      t.last_used <- (t.last_used + 1) land 0xffff;
      if id >= t.qsz || not t.outstanding.(id) then
        (* completion for a head we never posted (a forged used element):
           freeing it would corrupt the free list, so drop it *)
        poll_used t
      else begin
        t.outstanding.(id) <- false;
        free_chain t id;
        t.live <- t.live - 1;
        t.completed_heads.(id) <- true;
        Some (id, len)
      end
    end

  let completed t ~head =
    let rec drain () = match poll_used t with Some _ -> drain () | None -> () in
    drain ();
    if head >= 0 && head < t.qsz && t.completed_heads.(head) then begin
      t.completed_heads.(head) <- false;
      true
    end
    else false

  let in_flight t = t.live
end

module Device = struct
  type buffer = { addr : int; len : int; writable : bool }

  type t = {
    g : Gmem.t;
    qsz : int;
    desc : int;
    avail : int;
    used : int;
    mutable last_avail : int;
    mutable used_count : int;
    torn : (unit -> bool) option;
    on_requeue : (unit -> unit) option;
    validate : (buffer -> bool) option;
    on_quarantine : (int -> unit) option;
    on_ring_reset : (unit -> unit) option;
    quarantine_limit : int;
    mutable quarantined_since_reset : int;
    mutable quarantined_total : int;
    mutable ring_resets : int;
    visited : int array;
        (** [visited.(d) = walk] iff descriptor [d] was reached by the
            chain walk numbered [walk] *)
    mutable walk : int;
  }

  let create ?torn ?on_requeue ?validate ?on_quarantine ?on_ring_reset
      ?(quarantine_limit = 8) g ~qsz ~desc ~avail ~used =
    { g; qsz; desc; avail; used; last_avail = 0; used_count = 0; torn;
      on_requeue; validate; on_quarantine; on_ring_reset; quarantine_limit;
      quarantined_since_reset = 0; quarantined_total = 0; ring_resets = 0;
      visited = Array.make qsz 0; walk = 0 }

  (* The chain from [head], flagged malformed when its [next] links
     loop, revisit a descriptor or leave the table — the self-modifying
     descriptor attacks a guest can mount between our validation and
     our use of the chain. A walk visits each index at most once, so it
     takes at most [qsz] hops. *)
  let read_chain_checked t head =
    t.walk <- t.walk + 1;
    let rec go d acc =
      if d < 0 || d >= t.qsz || t.visited.(d) = t.walk then (List.rev acc, true)
      else begin
        t.visited.(d) <- t.walk;
        let flags = desc_flags t.g ~desc:t.desc d in
        let buf =
          {
            addr = desc_addr t.g ~desc:t.desc d;
            len = desc_len t.g ~desc:t.desc d;
            writable = flags land desc_f_write <> 0;
          }
        in
        if flags land desc_f_next <> 0 then
          go (desc_next t.g ~desc:t.desc d) (buf :: acc)
        else (List.rev (buf :: acc), false)
      end
    in
    go head []

  let push_used t ~head ~written =
    set_used_elem t.g ~used:t.used ~qsz:t.qsz t.used_count ~id:head ~len:written;
    t.used_count <- (t.used_count + 1) land 0xffff;
    set_used_idx t.g ~used:t.used t.used_count

  (* Graceful ring reset after too many quarantined chains: drain every
     pending available entry, completing the plausible heads with
     [written = 0] so no real request hangs, and start over with a
     clean quarantine budget. The device stays up — a hostile driver
     gets its ring wiped, not the host crashed. *)
  let ring_reset t =
    let cur = avail_idx t.g ~avail:t.avail in
    while t.last_avail land 0xffff <> cur do
      let head = avail_ring t.g ~avail:t.avail ~qsz:t.qsz t.last_avail in
      t.last_avail <- (t.last_avail + 1) land 0xffff;
      if head < t.qsz then push_used t ~head ~written:0
    done;
    t.quarantined_since_reset <- 0;
    t.ring_resets <- t.ring_resets + 1;
    match t.on_ring_reset with Some f -> f () | None -> ()

  let quarantine t head =
    t.quarantined_since_reset <- t.quarantined_since_reset + 1;
    t.quarantined_total <- t.quarantined_total + 1;
    (match t.on_quarantine with Some f -> f head | None -> ());
    (* complete the rejected chain with nothing written: if it was a
       real request the guest mutated, the driver still gets it back
       (marked failed) instead of hanging on a descriptor we ate *)
    push_used t ~head ~written:0;
    if t.quarantined_since_reset >= t.quarantine_limit then ring_reset t

  let rec pop t =
    let cur = avail_idx t.g ~avail:t.avail in
    if t.last_avail land 0xffff = cur then None
    else begin
      let real = avail_ring t.g ~avail:t.avail ~qsz:t.qsz t.last_avail in
      let head =
        match t.torn with
        | Some fire when fire () ->
            (* Torn read of the ring slot: we raced the driver's publish
               and saw garbage. 0xdead is always out of range for our
               queue sizes, so validation below catches it. *)
            0xdead
        | _ -> real
      in
      let head =
        if head < t.qsz then head
        else begin
          (* Invalid head: re-read the slot — by now the driver's store
             has settled — and fall back to skipping the entry if the
             ring itself is corrupt. *)
          (match t.on_requeue with Some f -> f () | None -> ());
          real
        end
      in
      t.last_avail <- (t.last_avail + 1) land 0xffff;
      if head >= t.qsz then pop t
      else begin
        let chain, malformed = read_chain_checked t head in
        let oob =
          match t.validate with
          | Some v -> not (List.for_all v chain)
          | None -> false
        in
        if malformed || oob then begin
          quarantine t head;
          pop t
        end
        else Some (head, chain)
      end
    end

  let quarantined t = t.quarantined_total
  let ring_resets t = t.ring_resets
end
