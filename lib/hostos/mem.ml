(* Guest memory as per-4KiB-page overlays over frozen images.

   There is one kind of base. A [frozen] image is immutable: a length
   and a page array whose every slot is the one shared [zero_page] (a
   page never written, or all zeros) or a page of its own that nothing
   ever writes. Every buffer is a [cow] overlay over one: a page
   materialises a private copy only on the first write that *diverges*
   from its base page; writing the base's bytes is a "silent" write
   that copies nothing. That is what lets a forked VM replay its
   deterministic boot over a baked baseline without copying anything.
   [create len] overlays [zeros], the all-zero image, which holds no
   page at all (an index past an image's array reads [zero_page]), so
   a created buffer costs one page array plus the pages it has written,
   and a write of zeros onto an untouched page, such as a trim, stays
   silent. [freeze t] shares [t]'s base pages, copies its private ones
   and folds all-zero ones into [zero_page], so an image costs its
   written pages, not its length.

   A page of a [create]d buffer has a third state besides "equals its
   base" and "materialised": [generate]d. A generated page holds its
   generator's bytes but owns no memory until something writes, logs,
   digests or scalar-reads it; [resident] materialises it from the
   generator then, and every such path goes through [resident] first.
   A byte-range read ([cow_read]) does not: it runs the generator
   straight into the caller's bytes and leaves the page generated. A
   guest's kernel-image noise is generated this way, so even a session
   that copies the whole image keeps none of its noise pages. An image
   keeps no generator: [freeze] runs it once into a page of the
   image's own, so every view of the image reads and digests plain
   bytes and [generate] stays a zero-base operation.

   The silent-write test reads what it must, four 64-bit words per
   step, and picks per base page: over [zero_page] only the source,
   tested for zeros ([is_zero]); over any other page the source
   against the base page ([region_equal]).

   Plain bytes are never a buffer: a caller copies between its own
   bytes and a buffer with [read_into] and [write_from], the two halves
   of [blit] that [Addr_space] calls too.

   Invariant: [t] and [frozen] are abstract and every mutation goes
   through this module, so a page that was never materialised still
   equals its base page or, if generated, its generator's bytes.
   [page_digest] relies on that to answer an untouched whole page
   without hashing it: [zero_page_digest] for the zero page, the
   image's memo for any other.

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

(* The page every all-zero page of every image is. Never written. *)
let zero_page = Bytes.make page_size '\000'
let zero_page_digest = Digest.bytes zero_page

type frozen = {
  f_len : int;
  f_pages : bytes array;
      (* page index -> the page, never written: [zero_page] when all
         zeros, else exactly the page's bytes; an index past the array
         reads [zero_page] *)
  f_digests : Digest.t option array;
      (* per-page digests of the non-zero pages, filled on first use
         and shared by every view of the image *)
}

type t = {
  base : frozen;  (* shared across every view; never written *)
  pages : bytes array;  (* page index -> private copy; empty if none *)
  len : int;
  mutable gens : generator list;
      (* generated ranges, newest first; only over [zeros] *)
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

(* Bytes of page [pi] of [len] bytes: [page_size] but for a short last
   page. *)
let page_len len pi = Int.min page_size (len - (pi * page_size))

(* The all-zero image [create] overlays, shared by every such buffer:
   it holds no page, so each buffer allocates one page array, its own. *)
let zeros = { f_len = 0; f_pages = [||]; f_digests = [||] }

let overlay base len =
  {
    base;
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
  overlay zeros len

let cow f = overlay f f.f_len
let length t = t.len
let frozen_length f = f.f_len

(* The CoW API ([is_cow], [cow_stats], [cow_reclaim]) describes only
   overlays over an image other than [zeros]: the zero-base overlay is
   an allocation strategy, not a fork, and must not show up in the
   overlay.* metrics. *)
let is_cow t = t.base != zeros

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

(* Page [pi] of the base. *)
let[@inline] base_page t pi =
  let b = t.base.f_pages in
  if pi < Array.length b then b.(pi) else zero_page

(* Private copy of page [pi], materialising it from the base first if
   needed (the caller has already decided the write diverges). *)
let page_rw t pi =
  let p = t.pages.(pi) in
  if materialised p then p
  else begin
    let p = Bytes.sub (base_page t pi) 0 (page_len t.len pi) in
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
   base page. A generated page is materialised here, on its first
   look: from then on it is an ordinary private page. *)
let[@inline] resident t pi =
  let p = t.pages.(pi) in
  if materialised p then p
  else match t.gens with [] -> p | _ -> materialise t pi

(* The page the byte at [off] is read from, at [off mod page_size]:
   the private copy when one exists, else the base page. A generated
   page is materialised first. *)
let rd_buf t off =
  let pi = off / page_size in
  let p = resident t pi in
  if materialised p then p else base_page t pi

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
   the zero page: it reads only the source, never the zero page, four
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

(* Do [len] bytes of [src] at [soff] equal page [pi]'s base bytes at
   [poff]? Over the zero page only [src] is read. *)
let base_equal t pi poff src soff len =
  let b = base_page t pi in
  if b == zero_page then is_zero src soff len
  else region_equal b poff src soff len

(* The digest of [len] bytes at [off], all inside one page, hashed in
   place. An untouched page equals its base page (see the invariant
   above), so a whole one answers without hashing: the precomputed
   zero-page digest, or the image's memo. A materialised page is
   always hashed, even if it holds zeros or its base bytes again. *)
let in_page_digest t off len =
  let pi = off / page_size in
  let p = resident t pi in
  if materialised p then Digest.subbytes p (off mod page_size) len
  else
    let b = base_page t pi in
    if len < page_size then Digest.subbytes b (off mod page_size) len
    else if b == zero_page then zero_page_digest
    else
      match t.base.f_digests.(pi) with
      | Some d -> d
      | None ->
          let d = Digest.bytes b in
          t.base.f_digests.(pi) <- Some d;
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
        let d = in_page_digest t (pi * page_size) (page_len t.len pi) in
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
    else if base_equal t pi poff src soff chunk then t.silent <- t.silent + 1
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
      if g == no_gen then Bytes.blit (base_page t pi) poff dst doff chunk
      else g.g_fill ~pos:(off - g.g_off) dst ~off:doff ~len:chunk
    end;
    cow_read t (off + chunk) dst (doff + chunk) (len - chunk)
  end

(* An image's page from bytes it now owns: [zero_page] if all zeros. *)
let own p = if is_zero p 0 (Bytes.length p) then zero_page else p

let image len f_pages =
  { f_len = len; f_pages; f_digests = Array.make (Array.length f_pages) None }

(* A base page is shared as it is; a private or generated page is read
   into a page of the image's own, so a generator runs once here and
   the source's later writes never reach the image. *)
let freeze t =
  image t.len
    (Array.init (Array.length t.pages) (fun pi ->
         if materialised t.pages.(pi) || covering (pi * page_size) t.gens != no_gen
         then begin
           let p = Bytes.create (page_len t.len pi) in
           cow_read t (pi * page_size) p 0 (Bytes.length p);
           own p
         end
         else base_page t pi))

(* The pages are placed as given and folded afterwards, so a slot that
   already holds a given page, even an all-zero one, is a duplicate. *)
let of_pages len pages =
  let n = page_count len in
  let f_pages = Array.make n zero_page in
  let bad fmt = Printf.ksprintf invalid_arg ("Mem.of_pages: page %d " ^^ fmt) in
  List.iter
    (fun (pi, p) ->
      if pi < 0 || pi >= n then bad "is outside the image's %d pages" pi n
      else if Bytes.length p <> page_len len pi then
        bad "holds %d bytes, not %d" pi (Bytes.length p) (page_len len pi)
      else if f_pages.(pi) != zero_page then bad "is given twice" pi;
      f_pages.(pi) <- p)
    pages;
  Array.map_inplace (fun p -> if p == zero_page then p else own p) f_pages;
  image len f_pages

let frozen_pages f =
  Array.to_seqi f.f_pages
  |> Seq.filter_map (fun (pi, p) ->
         if p == zero_page then None else Some (pi, Bytes.copy p))
  |> List.of_seq

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
        if materialised p && base_equal t pi 0 p 0 (Bytes.length p) then begin
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
  | None -> page_digest m.buf (pi * page_size) (page_len m.buf.len pi)

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

   A read comes straight from the private page or the base page, and
   a write goes straight into an already-materialised page; a scalar
   that straddles a page boundary, or a write to an untouched page
   (which may be silent or may materialise it), goes through the
   byte-range path. *)

let scalar_read t off n (get : bytes -> int -> int) =
  check_range t.len off n;
  if (off mod page_size) + n <= page_size then
    get (rd_buf t off) (off mod page_size)
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
      Bytes.get_int64_le (rd_buf t off) (off mod page_size)
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
