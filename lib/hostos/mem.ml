(* Guest memory as per-4KiB-page overlays.

   Every buffer [create] or [cow] makes is an overlay over an immutable
   base: pages materialise a private copy only on the first write that
   *diverges* from the base; writing bytes identical to the base is a
   "silent" write that copies nothing.

   - [create] overlays the implicit all-zero base: every untouched page
     reads from one shared zero page, so a 32 MiB guest costs only the
     pages it has written (a cold boot touches about 4% of them), and a
     write of zeros onto an untouched page, such as a block-device trim,
     stays silent.
   - [cow] overlays the frozen RAM/disk of a baked baseline VM. Silent
     writes are what let a forked VM replay its deterministic boot
     against the overlay without copying anything — only state that
     genuinely differs from the baseline (a per-clone hostname block,
     attach-time injections) becomes resident.
   - [of_bytes] wraps a caller's buffer flat, without an overlay.

   Invariant: [t] is abstract and every mutation goes through this
   module, so a page that was never materialised still equals its base
   window (all zeros under [create]). [page_digest] relies on that to
   answer an untouched zero page with a precomputed digest. *)

let page_size = 4096

(* The all-zero base every untouched page of a [create]d buffer reads
   from. Never written. *)
let zero_page = Bytes.make page_size '\000'
let zero_page_digest = Digest.bytes zero_page

type overlay = {
  base : bytes;  (* frozen, shared across every fork; never written *)
  memo : Digest.t option array;
      (* per-page digests of [base], shared with every other view of the
         same frozen image; empty when the view has none *)
  stride : int;
      (* offset of page i in [base] is i * stride: [page_size] over a
         baseline image, 0 over [zero_page], which every page aliases *)
  pages : bytes array;  (* page index -> private copy; empty if none *)
  mutable copied : int;
  mutable silent : int;
}

type backing = Flat of bytes | Cow of overlay

type t = { backing : backing; len : int }

type cow_stats = {
  cs_pages_total : int;
  cs_pages_copied : int;
  cs_silent_writes : int;
  cs_resident_bytes : int;
}

let page_count len = (len + page_size - 1) / page_size

let overlay ?(memo = [||]) ~base ~stride len =
  let pages = Array.make (page_count len) Bytes.empty in
  { backing = Cow { base; memo; stride; pages; copied = 0; silent = 0 }; len }

let create len =
  if len < 0 then invalid_arg "Mem.create: negative length";
  overlay ~base:zero_page ~stride:0 len

let of_bytes buf = { backing = Flat buf; len = Bytes.length buf }

(* The digests of a frozen image's pages, computed on first use and
   owned by whoever owns the image: every fork of one baseline shares
   them, so a snapshot of a fork hashes each still-shared page once per
   image rather than once per capture. *)
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
let over_baseline c = c.stride <> 0

let is_cow t =
  match t.backing with Cow c -> over_baseline c | Flat _ -> false

let cow_stats t =
  match t.backing with
  | Cow c when over_baseline c ->
      Some
        {
          cs_pages_total = Array.length c.pages;
          cs_pages_copied = c.copied;
          cs_silent_writes = c.silent;
          cs_resident_bytes = c.copied * page_size;
        }
  | _ -> None

let check_range len off n =
  if off < 0 || n < 0 || off > len - n then invalid_arg "Mem: out of bounds"

let materialised p = Bytes.length p > 0

let resident_pages t =
  match t.backing with
  | Flat _ -> (t.len + page_size - 1) / page_size
  | Cow c ->
      Array.fold_left (fun n p -> if materialised p then n + 1 else n) 0 c.pages
let page_len t pi = min page_size (t.len - (pi * page_size))

(* Private copy of page [pi], materialising it from the base first if
   needed (the caller has already decided the write diverges). *)
let page_rw t c pi =
  let p = c.pages.(pi) in
  if materialised p then p
  else begin
    let p = Bytes.sub c.base (pi * c.stride) (page_len t pi) in
    c.pages.(pi) <- p;
    c.copied <- c.copied + 1;
    p
  end

(* Where the byte at [off] lives for reading: inside the page's private
   copy when one exists, else inside the page's window of the base.
   Buffer and offset come from two functions rather than one tuple, so
   the scalar accessors allocate nothing. *)
let rd_buf c off =
  let p = c.pages.(off / page_size) in
  if materialised p then p else c.base

let rd_off c off =
  let pi = off / page_size in
  if materialised c.pages.(pi) then off mod page_size
  else (pi * c.stride) + (off mod page_size)

let region_equal a aoff b boff len =
  let rec bytes i =
    i >= len
    || (Bytes.get a (aoff + i) = Bytes.get b (boff + i) && bytes (i + 1))
  in
  let rec words i =
    if i + 8 > len then bytes i
    else
      Int64.equal
        (Bytes.get_int64_ne a (aoff + i))
        (Bytes.get_int64_ne b (boff + i))
      && words (i + 8)
  in
  words 0

(* Write [len] bytes of [src] at [soff] into an overlay at [off], page
   by page; per page, an identical write is recorded as silent and
   copies nothing. The range is already bounds-checked. *)
let cow_write t c off src soff len =
  let rec go off soff len =
    if len > 0 then begin
      let pi = off / page_size in
      let poff = off mod page_size in
      let chunk = min len (page_size - poff) in
      let p = c.pages.(pi) in
      if materialised p then Bytes.blit src soff p poff chunk
      else if region_equal c.base ((pi * c.stride) + poff) src soff chunk then
        c.silent <- c.silent + 1
      else Bytes.blit src soff (page_rw t c pi) poff chunk;
      go (off + chunk) (soff + chunk) (len - chunk)
    end
  in
  go off soff len

let cow_read c off dst doff len =
  let rec go off doff len =
    if len > 0 then begin
      let chunk = min len (page_size - (off mod page_size)) in
      Bytes.blit (rd_buf c off) (rd_off c off) dst doff chunk;
      go (off + chunk) (doff + chunk) (len - chunk)
    end
  in
  go off doff len

let freeze t =
  match t.backing with
  | Flat buf -> Bytes.sub buf 0 t.len
  | Cow c ->
      let out =
        if over_baseline c then Bytes.sub c.base 0 t.len
        else Bytes.make t.len '\000'
      in
      Array.iteri
        (fun pi p ->
          if materialised p then
            Bytes.blit p 0 out (pi * page_size) (Bytes.length p))
        c.pages;
      out

(* Drop private pages whose content re-converged with the base: a
   fork's boot replay must rewrite the page-table arena from scratch
   (it cannot read the baseline's future tables), and once rebuilt the
   pages are byte-identical to the frozen base again — sharing them
   back keeps the clone's resident footprint at its true divergence.
   Returns the number of pages reclaimed. *)
let cow_reclaim t =
  match t.backing with
  | Cow c when over_baseline c ->
      let reclaimed = ref 0 in
      Array.iteri
        (fun pi p ->
          if
            materialised p
            && region_equal c.base (pi * page_size) p 0 (Bytes.length p)
          then begin
            c.pages.(pi) <- Bytes.empty;
            c.copied <- c.copied - 1;
            incr reclaimed
          end)
        c.pages;
      !reclaimed
  | _ -> 0

let read_bytes t off len =
  match t.backing with
  | Flat buf -> Bytes.sub buf off len
  | Cow c ->
      check_range t.len off len;
      let out = Bytes.create len in
      cow_read c off out 0 len;
      out

let write_bytes t off b =
  match t.backing with
  | Flat buf -> Bytes.blit b 0 buf off (Bytes.length b)
  | Cow c ->
      check_range t.len off (Bytes.length b);
      cow_write t c off b 0 (Bytes.length b)

(* The digest of [len] bytes at [off], hashed in place. An untouched
   page equals its base window (see the invariant above), so a whole
   one answers without hashing: the precomputed zero-page digest under
   [create], the image's memoised digest under a [cow] view that was
   given one. A materialised page is always hashed, even if it holds
   zeros or its base bytes again. *)
let page_digest t off len =
  match t.backing with
  | Flat buf -> Digest.subbytes buf off len
  | Cow c ->
      check_range t.len off len;
      let pi = off / page_size in
      if (off mod page_size) + len > page_size then
        Digest.bytes (read_bytes t off len)
      else if len < page_size || materialised c.pages.(pi) then
        Digest.subbytes (rd_buf c off) (rd_off c off) len
      else if not (over_baseline c) then zero_page_digest
      else if Array.length c.memo = 0 then Digest.subbytes c.base off len
      else
        match c.memo.(pi) with
        | Some d -> d
        | None ->
            let d = Digest.subbytes c.base off len in
            c.memo.(pi) <- Some d;
            d

(* --- scalar accessors ---

   The Flat arm is a plain buffer. The overlay arm reads straight from
   the private page or the base window, and writes straight into an
   already-materialised page; a scalar that straddles a page boundary,
   or a write to an untouched page (which may be silent or may
   materialise it), goes through the byte-range path. *)

let scalar_read t off n (get : bytes -> int -> int) =
  match t.backing with
  | Flat buf -> get buf off
  | Cow c ->
      check_range t.len off n;
      if (off mod page_size) + n <= page_size then
        get (rd_buf c off) (rd_off c off)
      else get (read_bytes t off n) 0

let scalar_write t off n v (set : bytes -> int -> int -> unit) =
  match t.backing with
  | Flat buf -> set buf off v
  | Cow c ->
      check_range t.len off n;
      let poff = off mod page_size in
      let p = c.pages.(off / page_size) in
      if poff + n <= page_size && materialised p then set p poff v
      else begin
        let tmp = Bytes.create n in
        set tmp 0 v;
        cow_write t c off tmp 0 n
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

let read_i32 t off =
  scalar_read t off 4 (fun b o -> Int32.to_int (Bytes.get_int32_le b o))

let write_i32 t off v =
  scalar_write t off 4 v (fun b o v -> Bytes.set_int32_le b o (Int32.of_int v))

let read_u64 t off =
  let v =
    match t.backing with
    | Flat buf -> Bytes.get_int64_le buf off
    | Cow c ->
        check_range t.len off 8;
        if (off mod page_size) + 8 <= page_size then
          Bytes.get_int64_le (rd_buf c off) (rd_off c off)
        else Bytes.get_int64_le (read_bytes t off 8) 0
  in
  if Int64.shift_right_logical v 62 <> 0L then
    invalid_arg
      (Printf.sprintf "Mem.read_u64: value 0x%Lx at offset %d exceeds 62 bits"
         v off);
  Int64.to_int v

let write_u64 t off v =
  scalar_write t off 8 v (fun b o v -> Bytes.set_int64_le b o (Int64.of_int v))

let blit ~src ~src_off ~dst ~dst_off ~len =
  match (src.backing, dst.backing) with
  | Flat s, Flat d -> Bytes.blit s src_off d dst_off len
  | Flat s, Cow c ->
      check_range (Bytes.length s) src_off len;
      check_range dst.len dst_off len;
      cow_write dst c dst_off s src_off len
  | Cow c, Flat d ->
      check_range src.len src_off len;
      check_range (Bytes.length d) dst_off len;
      cow_read c src_off d dst_off len
  | Cow _, Cow _ -> write_bytes dst dst_off (read_bytes src src_off len)

let fill t off len ch =
  match t.backing with
  | Flat buf -> Bytes.fill buf off len ch
  | Cow c ->
      check_range t.len off len;
      let tmp = Bytes.make (min len page_size) ch in
      let rec go off len =
        if len > 0 then begin
          let chunk = min len (page_size - (off mod page_size)) in
          cow_write t c off tmp 0 chunk;
          go (off + chunk) (len - chunk)
        end
      in
      go off len

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

  let find t va =
    List.find_opt (fun m -> va >= m.base && va < m.base + m.len) t.maps

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

  let rec read t va len =
    if len = 0 then Bytes.empty
    else
      match find t va with
      | None -> invalid_arg (Printf.sprintf "Addr_space.read: 0x%x unmapped" va)
      | Some m ->
          let avail = m.base + m.len - va in
          let chunk = min avail len in
          let part = read_bytes m.backing (m.backing_off + (va - m.base)) chunk in
          if chunk = len then part
          else Bytes.cat part (read t (va + chunk) (len - chunk))

  let rec write t va b =
    let len = Bytes.length b in
    if len > 0 then
      match find t va with
      | None -> invalid_arg (Printf.sprintf "Addr_space.write: 0x%x unmapped" va)
      | Some m ->
          let avail = m.base + m.len - va in
          let chunk = min avail len in
          blit ~src:(of_bytes b) ~src_off:0 ~dst:m.backing
            ~dst_off:(m.backing_off + (va - m.base)) ~len:chunk;
          if chunk < len then
            write t (va + chunk) (Bytes.sub b chunk (len - chunk))

  let read_u64 t va =
    match resolve t va with
    | Some (m, off) when off + 8 <= length m -> read_u64 m off
    | _ -> (
        let b = read t va 8 in
        match read_u64 (of_bytes b) 0 with v -> v)

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
