(* Guest memory as per-4KiB-page overlays.

   Every buffer [create] or [cow] makes is an overlay over an immutable
   base: pages materialise a private copy only on the first write that
   *diverges* from the base; writing bytes identical to the base is a
   "silent" write that copies nothing.

   - [create] overlays the implicit all-zero base: every untouched page
     reads from one shared zero page, so a 32 MiB guest costs only the
     pages it has written (a cold boot touches under 1% of them), and a
     write of zeros onto an untouched page, such as a block-device trim,
     stays silent.
   - [cow] overlays the frozen RAM/disk of a baked baseline VM. Silent
     writes are what let a forked VM replay its deterministic boot
     against the overlay without copying anything — only state that
     genuinely differs from the baseline (a per-clone hostname block,
     attach-time injections) becomes resident.

   A page of a [create]d buffer has a third state besides "equals its
   base" and "materialised": [generate]d. A generated page holds its
   generator's bytes but owns no memory until something writes, logs,
   digests or scalar-reads it; [resident] materialises it from the
   generator then, and every such path goes through [resident] first.
   A byte-range read ([cow_read]) does not: it runs the generator
   straight into the caller's bytes and leaves the page generated. A
   guest's kernel-image noise is generated this way, so even a session
   that copies the whole image keeps none of its noise pages.

   The silent-write test reads what it must, four 64-bit words per
   step: over the zero base only the source, tested for zeros
   ([is_zero]); over a baseline the source against the base window
   ([region_equal]).

   Plain bytes are never a buffer: a caller copies between its own
   bytes and a buffer with [read_into] and [write_from], the two halves
   of [blit] that [Addr_space] calls too.

   Invariant: [t] is abstract and every mutation goes through this
   module, so a page that was never materialised still equals its base
   window (all zeros under [create]) or, if generated, its generator's
   bytes. [page_digest] relies on that to answer an untouched zero page
   with a precomputed digest.

   Write log: an overlay page changes in exactly four places — the two
   mutating branches of [cow_write] (write into a private page;
   materialise a diverging one), the in-page fast path of
   [scalar_write], and [generate] — and each calls [log_write] before
   the bytes change. Materialising a generated page changes no content,
   nor does [cow_reclaim], which drops a page only when it equals its
   base. Once a buffer has a [mark], a page's first write after the
   newest mark records the page's digest into every mark taken since
   the page was last written; a page in no mark's table still holds
   what it held at that mark.

   Attribution: a writer that must be told apart from the rest (the
   guest, through [Kvm.Vm.write_phys]) calls [attribute], which sets the
   page's bit in the newest mark's bitmap, as KVM's dirty log does. A
   page's bit lands in exactly one mark: the newest when it was written.
   So the pages attributed between two marks are the union of the
   bitmaps of the marks from the older up to, not including, the newer;
   silent writes count, since attribution is about who wrote, not about
   what changed. *)

let page_size = 4096

(* The all-zero base every untouched page of a [create]d buffer reads
   from. Never written. *)
let zero_page = Bytes.make page_size '\000'
let zero_page_digest = Digest.bytes zero_page

type t = {
  base : bytes;  (* frozen, shared across every fork; never written *)
  memo : Digest.t option array;
      (* per-page digests of [base], shared with every other view of the
         same frozen image; empty when the view has none *)
  stride : int;
      (* offset of page i in [base] is i * stride: [page_size] over a
         baseline image, 0 over [zero_page], which every page aliases *)
  pages : bytes array;  (* page index -> private copy; empty if none *)
  len : int;
  mutable gens : generator list;
      (* generated ranges, newest first; only over the zero base *)
  mutable copied : int;
  mutable silent : int;
  mutable stamps : int array;
      (* page index -> serial of the newest mark the page has been
         written since (0: none); empty until the first mark *)
  mutable marks : mark list;  (* newest first *)
}

(* Bytes [\[g_off, g_off + g_len)] of the buffer, page-aligned: [g_fill
   ~pos dst ~off ~len] writes the range's bytes [\[pos, pos + len)] into
   [dst] at [off]. *)
and generator = {
  g_off : int;
  g_len : int;
  g_fill : pos:int -> bytes -> off:int -> len:int -> unit;
}

(* Mark [serial] of [buf]: the digest each page held at the mark,
   recorded on its first write after the mark. *)
and mark = {
  buf : t;
  serial : int;
  before : (int, Digest.t) Hashtbl.t;
  mutable attributed : bytes;
      (* one bit per page attributed while this was the newest mark;
         empty until the first *)
}

type cow_stats = {
  cs_pages_total : int;
  cs_pages_copied : int;
  cs_silent_writes : int;
  cs_resident_bytes : int;
}

let page_count len = (len + page_size - 1) / page_size

let overlay ?(memo = [||]) ~base ~stride len =
  {
    base;
    memo;
    stride;
    pages = Array.make (page_count len) Bytes.empty;
    len;
    gens = [];
    copied = 0;
    silent = 0;
    stamps = [||];
    marks = [];
  }

let create len =
  if len < 0 then invalid_arg "Mem.create: negative length";
  overlay ~base:zero_page ~stride:0 len

(* The digests of a frozen image's pages, computed on first use and
   owned by whoever owns the image: every fork of one baseline shares
   them, so digesting a fork's memory hashes each still-shared page once
   per image rather than once per fork. *)
type page_digests = { of_base : bytes; digests : Digest.t option array }

let page_digests base =
  { of_base = base; digests = Array.make (page_count (Bytes.length base)) None }

let cow ?digests base =
  let memo =
    match digests with
    | None -> [||]
    | Some d when d.of_base == base -> d.digests
    | Some _ -> invalid_arg "Mem.cow: page digests belong to another base"
  in
  overlay ~memo ~base ~stride:page_size (Bytes.length base)
let length t = t.len

(* The CoW API ([is_cow], [cow_stats], [cow_reclaim]) describes only
   overlays over a baseline image: the zero-base overlay is an
   allocation strategy, not a fork, and must not show up in the
   overlay.* metrics. *)
let is_cow t = t.stride <> 0

let cow_stats t =
  if is_cow t then
    Some
      {
        cs_pages_total = Array.length t.pages;
        cs_pages_copied = t.copied;
        cs_silent_writes = t.silent;
        cs_resident_bytes = t.copied * page_size;
      }
  else None

let check_range len off n =
  if off < 0 || n < 0 || off > len - n then invalid_arg "Mem: out of bounds"

let materialised p = Bytes.length p > 0

let resident_pages t =
  Array.fold_left (fun n p -> if materialised p then n + 1 else n) 0 t.pages
let page_len t pi = Int.min page_size (t.len - (pi * page_size))

(* Private copy of page [pi], materialising it from the base first if
   needed (the caller has already decided the write diverges). *)
let page_rw t pi =
  let p = t.pages.(pi) in
  if materialised p then p
  else begin
    let p = Bytes.sub t.base (pi * t.stride) (page_len t pi) in
    t.pages.(pi) <- p;
    t.copied <- t.copied + 1;
    p
  end

(* No generated range: what [covering] answers for a byte none holds,
   a sentinel rather than an option so a read allocates nothing. *)
let no_gen = { g_off = 0; g_len = 0; g_fill = (fun ~pos:_ _ ~off:_ ~len:_ -> ()) }

(* The newest generated range holding byte [off], or [no_gen]. *)
let rec covering off = function
  | [] -> no_gen
  | g :: older ->
      if off >= g.g_off && off < g.g_off + g.g_len then g
      else covering off older

(* Materialise page [pi] if a generated range holds it; [Bytes.empty]
   otherwise. *)
let materialise t pi =
  let off = pi * page_size in
  let g = covering off t.gens in
  if g == no_gen then Bytes.empty
  else begin
    let len = min page_size (g.g_off + g.g_len - off) in
    let p = Bytes.create len in
    g.g_fill ~pos:(off - g.g_off) p ~off:0 ~len;
    t.pages.(pi) <- p;
    p
  end

(* Page [pi]'s private copy, or [Bytes.empty] while it still equals its
   base window. A generated page is materialised here, on its first
   look: from then on it is an ordinary private page. *)
let[@inline] resident t pi =
  let p = t.pages.(pi) in
  if materialised p then p
  else match t.gens with [] -> p | _ -> materialise t pi

(* Where the byte at [off] lives for reading: inside the page's private
   copy when one exists, else inside the page's window of the base.
   Buffer and offset come from two functions rather than one tuple, so
   the scalar accessors allocate nothing; [rd_buf] materialises a
   generated page, so call it before [rd_off]. *)
let rd_buf t off =
  let p = resident t (off / page_size) in
  if materialised p then p else t.base

let rd_off t off =
  let pi = off / page_size in
  if materialised t.pages.(pi) then off mod page_size
  else (pi * t.stride) + (off mod page_size)

(* Do [len] bytes of [a] at [aoff] equal those of [b] at [boff]? Four
   64-bit words per step, then single words, then bytes. *)
let rec region_equal a aoff b boff len =
  if len >= 32 then
    Int64.equal (Bytes.get_int64_ne a aoff) (Bytes.get_int64_ne b boff)
    && Int64.equal
         (Bytes.get_int64_ne a (aoff + 8))
         (Bytes.get_int64_ne b (boff + 8))
    && Int64.equal
         (Bytes.get_int64_ne a (aoff + 16))
         (Bytes.get_int64_ne b (boff + 16))
    && Int64.equal
         (Bytes.get_int64_ne a (aoff + 24))
         (Bytes.get_int64_ne b (boff + 24))
    && region_equal a (aoff + 32) b (boff + 32) (len - 32)
  else if len >= 8 then
    Int64.equal (Bytes.get_int64_ne a aoff) (Bytes.get_int64_ne b boff)
    && region_equal a (aoff + 8) b (boff + 8) (len - 8)
  else
    len <= 0
    || Bytes.get a aoff = Bytes.get b boff
       && region_equal a (aoff + 1) b (boff + 1) (len - 1)

(* Are [len] bytes of [b] at [off] all zero? The silent-write test over
   the zero base: it reads only the source, never a zero page, four
   64-bit words OR-ed per step, then single words, then bytes. *)
let rec is_zero b off len =
  if len >= 32 then
    Int64.equal
      (Int64.logor
         (Int64.logor (Bytes.get_int64_ne b off) (Bytes.get_int64_ne b (off + 8)))
         (Int64.logor
            (Bytes.get_int64_ne b (off + 16))
            (Bytes.get_int64_ne b (off + 24))))
      0L
    && is_zero b (off + 32) (len - 32)
  else if len >= 8 then
    Int64.equal (Bytes.get_int64_ne b off) 0L && is_zero b (off + 8) (len - 8)
  else len <= 0 || (Bytes.get b off = '\000' && is_zero b (off + 1) (len - 1))

(* The digest of [len] bytes at [off], all inside one page, hashed in
   place. An untouched page equals its base window (see the invariant
   above), so a whole one answers without hashing: the precomputed
   zero-page digest under [create], the image's memoised digest under a
   [cow] view that was given one. A materialised page is always hashed,
   even if it holds zeros or its base bytes again. *)
let in_page_digest t off len =
  let pi = off / page_size in
  if len < page_size || materialised (resident t pi) then
    let b = rd_buf t off in
    Digest.subbytes b (rd_off t off) len
  else if not (is_cow t) then zero_page_digest
  else if Array.length t.memo = 0 then Digest.subbytes t.base off len
  else
    match t.memo.(pi) with
    | Some d -> d
    | None ->
        let d = Digest.subbytes t.base off len in
        t.memo.(pi) <- Some d;
        d

(* The log hook, called before page [pi] changes: on the page's first
   write since the newest mark, record its current digest in every
   mark taken since it was last written. *)
let log_write t pi =
  match t.marks with
  | [] -> ()
  | newest :: _ ->
      let since = t.stamps.(pi) in
      if since < newest.serial then begin
        let d = in_page_digest t (pi * page_size) (page_len t pi) in
        let rec record = function
          | m :: older when m.serial > since ->
              Hashtbl.add m.before pi d;
              record older
          | _ -> ()
        in
        record t.marks;
        t.stamps.(pi) <- newest.serial
      end

(* Write [len] bytes of [src] at [soff] into the buffer at [off], page
   by page; per page, an identical write is recorded as silent and
   copies nothing. The range is already bounds-checked. *)
let rec cow_write t off src soff len =
  if len > 0 then begin
    let pi = off / page_size in
    let poff = off mod page_size in
    let chunk = Int.min len (page_size - poff) in
    let p = resident t pi in
    if materialised p then begin
      log_write t pi;
      Bytes.blit src soff p poff chunk
    end
    else if
      if is_cow t then region_equal t.base ((pi * t.stride) + poff) src soff chunk
      else is_zero src soff chunk
    then t.silent <- t.silent + 1
    else begin
      log_write t pi;
      Bytes.blit src soff (page_rw t pi) poff chunk
    end;
    cow_write t (off + chunk) src (soff + chunk) (len - chunk)
  end

(* Read [len] bytes at [off] into [dst] at [doff], page by page. An
   untouched generated page is not materialised: its generator writes
   the chunk straight into [dst], and the page stays generated. *)
let rec cow_read t off dst doff len =
  if len > 0 then begin
    let pi = off / page_size in
    let poff = off mod page_size in
    let chunk = Int.min len (page_size - poff) in
    let p = t.pages.(pi) in
    if materialised p then Bytes.blit p poff dst doff chunk
    else begin
      let g = covering off t.gens in
      if g == no_gen then
        Bytes.blit t.base ((pi * t.stride) + poff) dst doff chunk
      else g.g_fill ~pos:(off - g.g_off) dst ~off:doff ~len:chunk
    end;
    cow_read t (off + chunk) dst (doff + chunk) (len - chunk)
  end

let freeze t =
  let out =
    if is_cow t then Bytes.sub t.base 0 t.len else Bytes.make t.len '\000'
  in
  for pi = 0 to Array.length t.pages - 1 do
    let p = resident t pi in
    if materialised p then Bytes.blit p 0 out (pi * page_size) (Bytes.length p)
  done;
  out

(* Drop private pages whose content re-converged with the base: a
   fork's boot replay must rewrite the page-table arena from scratch
   (it cannot read the baseline's future tables), and once rebuilt the
   pages are byte-identical to the frozen base again — sharing them
   back keeps the clone's resident footprint at its true divergence.
   Returns the number of pages reclaimed. *)
let cow_reclaim t =
  if not (is_cow t) then 0
  else begin
    let reclaimed = ref 0 in
    Array.iteri
      (fun pi p ->
        if
          materialised p
          && region_equal t.base (pi * page_size) p 0 (Bytes.length p)
        then begin
          t.pages.(pi) <- Bytes.empty;
          t.copied <- t.copied - 1;
          incr reclaimed
        end)
      t.pages;
    !reclaimed
  end

(* Copies between a buffer and plain bytes: the two halves of [blit],
   which [Addr_space] calls with its caller's bytes directly. *)
let read_into t off dst doff len =
  check_range t.len off len;
  check_range (Bytes.length dst) doff len;
  cow_read t off dst doff len

let write_from t off src soff len =
  check_range (Bytes.length src) soff len;
  check_range t.len off len;
  cow_write t off src soff len

let read_bytes t off len =
  check_range t.len off len;
  let out = Bytes.create len in
  cow_read t off out 0 len;
  out

let write_bytes t off b = write_from t off b 0 (Bytes.length b)

(* The digest of [len] bytes at [off], hashed in place unless the
   range straddles a page boundary. *)
let page_digest t off len =
  check_range t.len off len;
  if (off mod page_size) + len > page_size then
    Digest.bytes (read_bytes t off len)
  else in_page_digest t off len

let mark t =
  if Array.length t.stamps = 0 then t.stamps <- Array.make (Array.length t.pages) 0;
  let serial = match t.marks with m :: _ -> m.serial + 1 | [] -> 1 in
  let m = { buf = t; serial; before = Hashtbl.create 16; attributed = Bytes.empty } in
  t.marks <- m :: t.marks;
  m

let marked m = m.buf

(* A page in no table still holds what it held at the mark. *)
let digest_at m pi =
  match Hashtbl.find_opt m.before pi with
  | Some d -> d
  | None -> page_digest m.buf (pi * page_size) (page_len m.buf pi)

let iter_written a b ~first ~count f =
  if a.buf != b.buf then invalid_arg "Mem.iter_written: marks of two buffers";
  let since = min a.serial b.serial in
  for pi = first to first + count - 1 do
    if a.buf.stamps.(pi) >= since then f pi
  done

let attribute t off len =
  check_range t.len off len;
  match t.marks with
  | newest :: _ when len > 0 ->
      if Bytes.length newest.attributed = 0 then
        newest.attributed <- Bytes.make ((Array.length t.pages + 7) / 8) '\000';
      let bits = newest.attributed in
      for pi = off / page_size to (off + len - 1) / page_size do
        let i = pi lsr 3 in
        Bytes.set_uint8 bits i (Bytes.get_uint8 bits i lor (1 lsl (pi land 7)))
      done
  | _ -> ()

(* Byte [i] of the union of [maps]. *)
let rec union_byte i acc = function
  | [] -> acc
  | m :: rest -> union_byte i (acc lor Bytes.get_uint8 m i) rest

let iter_attributed ?until k ~first ~count f =
  let lo, hi =
    match until with
    | None -> (k.serial, max_int)
    | Some u ->
        if u.buf != k.buf then
          invalid_arg "Mem.iter_attributed: marks of two buffers";
        (min k.serial u.serial, max k.serial u.serial)
  in
  let maps =
    List.filter_map
      (fun m ->
        if m.serial >= lo && m.serial < hi && Bytes.length m.attributed > 0
        then Some m.attributed
        else None)
      k.buf.marks
  in
  if maps <> [] then begin
    let last = first + count - 1 in
    for i = first asr 3 to last asr 3 do
      let b = union_byte i 0 maps in
      if b <> 0 then
        for bit = 0 to 7 do
          let pi = (i lsl 3) + bit in
          if b land (1 lsl bit) <> 0 && pi >= first && pi <= last then f pi
        done
    done
  end

(* --- scalar accessors ---

   A read comes straight from the private page or the base window, and
   a write goes straight into an already-materialised page; a scalar
   that straddles a page boundary, or a write to an untouched page
   (which may be silent or may materialise it), goes through the
   byte-range path. *)

let scalar_read t off n (get : bytes -> int -> int) =
  check_range t.len off n;
  if (off mod page_size) + n <= page_size then
    let b = rd_buf t off in
    get b (rd_off t off)
  else get (read_bytes t off n) 0

let scalar_write t off n v (set : bytes -> int -> int -> unit) =
  check_range t.len off n;
  let poff = off mod page_size in
  let pi = off / page_size in
  let p = resident t pi in
  if poff + n <= page_size && materialised p then begin
    log_write t pi;
    set p poff v
  end
  else begin
    let tmp = Bytes.create n in
    set tmp 0 v;
    cow_write t off tmp 0 n
  end

let read_u8 t off = scalar_read t off 1 Bytes.get_uint8

let write_u8 t off v =
  scalar_write t off 1 v (fun b o v -> Bytes.set_uint8 b o (v land 0xff))

let read_u16 t off = scalar_read t off 2 Bytes.get_uint16_le

let write_u16 t off v =
  scalar_write t off 2 v (fun b o v ->
      Bytes.set_uint16_le b o (v land 0xffff))

let read_u32 t off =
  scalar_read t off 4 (fun b o ->
      Int32.to_int (Bytes.get_int32_le b o) land 0xffffffff)

let write_u32 t off v =
  scalar_write t off 4 v (fun b o v -> Bytes.set_int32_le b o (Int32.of_int v))

(* Stored values fit in 62 bits; [off] names where [v] was read. *)
let to_u62 v off =
  if Int64.shift_right_logical v 62 <> 0L then
    invalid_arg
      (Printf.sprintf "Mem.read_u64: value 0x%Lx at offset %d exceeds 62 bits"
         v off);
  Int64.to_int v

let read_u64 t off =
  check_range t.len off 8;
  let v =
    if (off mod page_size) + 8 <= page_size then
      let b = rd_buf t off in
      Bytes.get_int64_le b (rd_off t off)
    else Bytes.get_int64_le (read_bytes t off 8) 0
  in
  to_u62 v off

let write_u64 t off v =
  scalar_write t off 8 v (fun b o v -> Bytes.set_int64_le b o (Int64.of_int v))

let blit ~src ~src_off ~dst ~dst_off ~len =
  write_bytes dst dst_off (read_bytes src src_off len)

let fill t off len ch =
  check_range t.len off len;
  let tmp = Bytes.make (min len page_size) ch in
  let rec go off len =
    if len > 0 then begin
      let chunk = min len (page_size - (off mod page_size)) in
      cow_write t off tmp 0 chunk;
      go (off + chunk) (len - chunk)
    end
  in
  go off len

let generate t ~off ~len f =
  if is_cow t then
    invalid_arg "Mem.generate: only a zero-base buffer generates pages";
  check_range t.len off len;
  if off mod page_size <> 0 || (len mod page_size <> 0 && off + len <> t.len)
  then invalid_arg "Mem.generate: range not page-aligned";
  if len > 0 then begin
    for pi = off / page_size to (off + len - 1) / page_size do
      log_write t pi;
      t.pages.(pi) <- Bytes.empty
    done;
    t.gens <- { g_off = off; g_len = len; g_fill = f } :: t.gens
  end

let read_cstr t off ~max =
  let limit = min (off + max) (length t) in
  let rec scan i =
    if i >= limit then None
    else if read_u8 t i = 0 then Some (Bytes.to_string (read_bytes t off (i - off)))
    else scan (i + 1)
  in
  scan off

let write_cstr t off s =
  write_bytes t off (Bytes.of_string s);
  write_u8 t (off + String.length s) 0

module Addr_space = struct
  type mem = t

  (* the buffer-side copies, under names the ones below shadow *)
  let mem_read_into = read_into
  let mem_write_from = write_from

  type mapping = {
    base : int;
    len : int;
    backing : mem;
    backing_off : int;
    tag : string;
  }

  type nonrec t = { mutable maps : mapping list }

  let create () = { maps = [] }
  let mappings t = t.maps

  let overlaps a b =
    a.base < b.base + b.len && b.base < a.base + a.len

  let map t m =
    if m.len <= 0 then invalid_arg "Addr_space.map: empty mapping";
    (match List.find_opt (overlaps m) t.maps with
    | Some existing ->
        invalid_arg
          (Printf.sprintf
             "Addr_space.map: [0x%x,+0x%x) overlaps %s at [0x%x,+0x%x)" m.base
             m.len existing.tag existing.base existing.len)
    | None -> ());
    t.maps <- List.sort (fun a b -> compare a.base b.base) (m :: t.maps)

  let unmap t ~base = t.maps <- List.filter (fun m -> m.base <> base) t.maps

  (* The mapping holding [va]; [Not_found] if none. A loop rather than
     a [List.find_opt] closure, so the copies below allocate nothing. *)
  let rec mapping_at va = function
    | [] -> raise_notrace Not_found
    | m :: rest ->
        if va >= m.base && va < m.base + m.len then m else mapping_at va rest

  let find t va =
    match mapping_at va t.maps with m -> Some m | exception Not_found -> None

  let find_free t ~hint ~len =
    let rec probe base = function
      | [] -> base
      | m :: rest ->
          if base + len <= m.base then base
          else probe (max base (m.base + m.len)) rest
    in
    probe hint (List.filter (fun m -> m.base + m.len > hint) t.maps)

  let resolve t va =
    match find t va with
    | None -> None
    | Some m -> Some (m.backing, m.backing_off + (va - m.base))

  let unmapped what va =
    invalid_arg (Printf.sprintf "Addr_space.%s: 0x%x unmapped" what va)

  (* Both directions copy mapping by mapping, straight between the
     caller's bytes and each backing. *)
  let rec read_into t va dst off len =
    if len > 0 then
      match mapping_at va t.maps with
      | exception Not_found -> unmapped "read" va
      | m ->
          let chunk = Int.min (m.base + m.len - va) len in
          mem_read_into m.backing (m.backing_off + (va - m.base)) dst off chunk;
          read_into t (va + chunk) dst (off + chunk) (len - chunk)

  let rec write_from t va src off len =
    if len > 0 then
      match mapping_at va t.maps with
      | exception Not_found -> unmapped "write" va
      | m ->
          let chunk = Int.min (m.base + m.len - va) len in
          mem_write_from m.backing (m.backing_off + (va - m.base)) src off chunk;
          write_from t (va + chunk) src (off + chunk) (len - chunk)

  let read t va len =
    let b = Bytes.create len in
    read_into t va b 0 len;
    b

  let write t va b = write_from t va b 0 (Bytes.length b)

  let read_u64 t va =
    match resolve t va with
    | Some (m, off) when off + 8 <= length m -> read_u64 m off
    | _ -> to_u62 (Bytes.get_int64_le (read t va 8) 0) 0

  let write_u64 t va v =
    match resolve t va with
    | Some (m, off) when off + 8 <= length m -> write_u64 m off v
    | _ ->
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int v);
        write t va b

  (* Reclaim re-converged private pages across every distinct CoW
     buffer mapped in this address space (post-replay cleanup of a
     forked VMM). *)
  let cow_reclaim_all t =
    let seen = ref [] in
    List.fold_left
      (fun acc m ->
        if List.memq m.backing !seen then acc
        else begin
          seen := m.backing :: !seen;
          acc + cow_reclaim m.backing
        end)
      0 (mappings t)

  (* Overlay totals for every distinct CoW buffer mapped in this
     address space (a forked VMM maps guest RAM and its bounce buffer
     over the baseline; the disk backend is counted by its owner).
     Zero-base buffers report no stats, so they add nothing. *)
  let cow_totals t =
    let seen = ref [] in
    List.fold_left
      (fun acc m ->
        if List.memq m.backing !seen then acc
        else begin
          seen := m.backing :: !seen;
          match cow_stats m.backing with
          | None -> acc
          | Some s ->
              {
                cs_pages_total = acc.cs_pages_total + s.cs_pages_total;
                cs_pages_copied = acc.cs_pages_copied + s.cs_pages_copied;
                cs_silent_writes = acc.cs_silent_writes + s.cs_silent_writes;
                cs_resident_bytes = acc.cs_resident_bytes + s.cs_resident_bytes;
              }
        end)
      {
        cs_pages_total = 0;
        cs_pages_copied = 0;
        cs_silent_writes = 0;
        cs_resident_bytes = 0;
      }
      t.maps
end
