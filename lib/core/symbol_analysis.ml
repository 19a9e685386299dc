module Layout = X86.Layout
module PT = X86.Page_table
module KV = Linux_guest.Kernel_version

(* Where inside the image the two scanned sections were found — the
   witness the attach path re-reads at use time to detect a guest that
   rewrote them after the scan (TOCTOU). Offsets are base-relative, so
   the witness survives the cache's KASLR rebase. *)
type witness = {
  w_table_off : int;  (** ksymtab table start, image offset *)
  w_strings_lo : int;  (** strings region, image offsets [lo, hi) *)
  w_strings_hi : int;
}

type analysis = {
  kernel_base : int;
  image_len : int;
  layout : KV.ksymtab_layout;
  symbols : (string * int) list;
  version : KV.t;
  witness : witness;
}

let anchor_symbol = "printk"
let max_image = 4 * 1024 * 1024
let max_name_len = 64

let ( let* ) = Result.bind

let find_kernel_base mem ~cr3 =
  let acc = Hyp_mem.pt_access mem in
  let base = ref max_int in
  PT.iter_present acc ~root:cr3 ~f:(fun ~virt ~phys:_ ~huge:_ ->
      if virt >= Layout.kaslr_base && virt < Layout.kaslr_base + Layout.kaslr_size
      then base := min !base virt);
  if !base = max_int then
    Error "no mappings inside the KASLR range: cannot locate the kernel"
  else begin
    (* contiguous extent *)
    let rec extent len =
      if len >= max_image then len
      else
        match PT.translate acc ~root:cr3 (!base + len) with
        | Some _ -> extent (len + Layout.page_size)
        | None -> len
    in
    Ok (!base, extent 0)
  end

let printable c =
  let v = Char.code c in
  v >= 32 && v <= 126

(* A byte a strings region may hold. *)
let name_byte c = c = '\000' || printable c

(* Does [b] hold [pat] at offset [i]? Compared in place, byte by byte,
   so a scan probing every offset allocates nothing. *)
let rec bytes_match b i pat k =
  k >= String.length pat
  || i + k < Bytes.length b
     && Bytes.get b (i + k) = String.get pat k
     && bytes_match b i pat (k + 1)

let anchor_pattern = "\000" ^ anchor_symbol ^ "\000"

(* The anchor pattern is exactly 8 bytes, so a window inside one page
   matches when its one little-endian 64-bit load equals this word. *)
let anchor_word = String.get_int64_le anchor_pattern 0

let i64 b o = Int64.to_int (Bytes.get_int64_le b o)
let i32 b o = Int32.to_int (Bytes.get_int32_le b o)

(* The two fields of the ksymtab entry at offset [o] of [b], as virtual
   addresses. [base] is the virtual address of [b]'s byte 0: PREL32
   fields are relative to their own address. *)
let entry_value b ~base layout o =
  match layout with
  | KV.Absolute_value_first -> i64 b o
  | KV.Absolute_name_first -> i64 b (o + 8)
  | KV.Prel32 -> base + o + i32 b o

let entry_name_va b ~base layout o =
  match layout with
  | KV.Absolute_value_first -> i64 b (o + 8)
  | KV.Absolute_name_first -> i64 b o
  | KV.Prel32 -> base + o + 4 + i32 b (o + 4)

let layouts = [ KV.Absolute_value_first; KV.Absolute_name_first; KV.Prel32 ]

let layout_bit = function
  | KV.Absolute_value_first -> 1
  | KV.Absolute_name_first -> 2
  | KV.Prel32 -> 4

(* --- the streamed scan ---

   The image arrives in windows of [w] bytes at image offsets [k * w]
   (pages in an analysis; any multiple of 8 in the tests), each read
   into a buffer of the scan's own. The scan kernel
   (ksymtab_scan_stubs.c) lists a window's anchor candidates and the
   slots that pass the top-byte filter; [widen] and [slot_tests] run
   over that list. A window is kept only while a later step may read
   it: while it holds part of the current run of NUL-or-printable
   bytes (the only bytes a strings region can span), or while it holds
   part of the widest region so far or of its tail, the bytes up to the
   first NUL at or past the region's end that [read_cstr] may follow.
   An all-zero window is kept as the scan's one zero page. Every other
   window's buffer goes back to a free list for the next read. *)

(* The scan kernels: the events of [buf]'s first [len] bytes, at image
   offset [base], written to [events], as [(offset lsl 1) lor kind]
   (1: a NUL followed by 'p'; 0: a slot) in ascending order; [tops] is
   four packed top bytes, or -1 for every slot. Returns their number. *)
external scan_window :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  int array -> (int[@untagged])
  = "vmsh_ksym_scan_byte" "vmsh_ksym_scan"
[@@noalloc]

external portable_scan_window :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  int array -> (int[@untagged])
  = "vmsh_ksym_scan_portable_byte" "vmsh_ksym_scan_portable"
[@@noalloc]

(* The last byte of [buf]'s first [len] that no strings region holds;
   -1 if none, -2 if all of them are zero. *)
external window_class : Bytes.t -> (int[@untagged]) -> (int[@untagged])
  = "vmsh_ksym_class_byte" "vmsh_ksym_class"
[@@noalloc]

(* An anchor match's strings region: [lo] is known at the match, and
   the walk right from it resumes with each window until the region
   ends at [at]. *)
type walk = { j : int; wlo : int; mutable at : int; mutable run : int }

(* The widest strings region so far and the anchor window [j] it came
   from. *)
type region_best = {
  mutable found : bool;
  mutable lo : int;
  mutable hi : int;
  mutable bj : int;
}

type scan = {
  kbase : int;
  n : int;  (** image length *)
  w : int;  (** window length *)
  kernel : Bytes.t -> int -> int -> int -> int array -> int;
  filtered : bool;
  top_lo : int;
  top_hi : int;
  tops : int;
  events : int array;
  pages : Bytes.t array;  (** window [k]'s bytes while kept, else [empty] *)
  zero : Bytes.t;  (** the all-zero window every zero window shares *)
  mutable free : Bytes.t array;  (** released buffers, [free.(0 .. n_free - 1)] *)
  mutable n_free : int;
  mutable fed : int;  (** bytes fed so far *)
  mutable run_lo : int;  (** start of the current NUL-or-printable run *)
  mutable settled : int;  (** windows below this are released or held *)
  mutable nul_carry : bool;  (** the last byte fed is a NUL *)
  mutable held : int list;  (** candidates whose 8 bytes end in the next window *)
  mutable walks : walk list;  (** matches whose region has not ended, by [j] *)
  best : region_best;
  mutable tail : int;  (** the NUL ending [best]'s tail, or -1 before it *)
  mutable tail_at : int;
  mutable pending_slot : int;  (** a slot whose second word is not fed yet *)
  mutable cands : int array;
  mutable n_cands : int;
  mutable ents : Bytes.t;  (** candidate [k]'s bytes at [16 * k] *)
}

let byte s i = Bytes.get s.pages.(i / s.w) (i mod s.w)

let recycle s b =
  if s.n_free = Array.length s.free then begin
    let a = Array.make (2 * s.n_free) Bytes.empty in
    Array.blit s.free 0 a 0 s.n_free;
    s.free <- a
  end;
  s.free.(s.n_free) <- b;
  s.n_free <- s.n_free + 1

let release s k =
  let p = s.pages.(k) in
  if p != Bytes.empty then begin
    if p != s.zero then recycle s p;
    s.pages.(k) <- Bytes.empty
  end

let held_by_best s k =
  s.best.found
  && k >= s.best.lo / s.w
  && (s.tail < 0 || k <= s.tail / s.w)

(* Release the settled windows of [lo, hi] that [best] does not hold;
   the windows past [settled] are [settle]'s. *)
let release_unheld s lo hi =
  for k = lo to min hi (s.settled - 1) do
    if not (held_by_best s k) then release s k
  done

(* Release the fed windows before the current run that [best] does not
   hold. *)
let settle s =
  let lim = min ((s.fed + s.w - 1) / s.w) (s.run_lo / s.w) in
  while s.settled < lim do
    if not (held_by_best s s.settled) then release s s.settled;
    s.settled <- s.settled + 1
  done

(* The start of the strings region around [pos]: walk left while the
   bytes are names of at most [max_name_len] bytes. A region lies
   inside one run of NUL-or-printable bytes, whose windows are kept,
   and the byte before the run is none. *)
let region_lo s pos =
  let rec left i run =
    if i < s.run_lo then s.run_lo
    else
      let c = byte s i in
      if not (name_byte c) then i + 1
      else if printable c && run >= max_name_len then i + 1
      else left (i - 1) (if printable c then run + 1 else 0)
  in
  left pos 0

(* Walk [wk] right over the bytes fed so far; [true] once its region
   has ended at [wk.at]. A kept zero window is all NULs: no name. *)
let advance s wk =
  let rec go i run =
    if i >= s.fed then begin
      wk.at <- i;
      wk.run <- run;
      i >= s.n
    end
    else if i mod s.w = 0 && s.pages.(i / s.w) == s.zero then
      go (Int.min s.fed (i + s.w)) 0
    else
      let c = byte s i in
      if (not (name_byte c)) || (printable c && run >= max_name_len) then begin
        wk.at <- i;
        true
      end
      else go (i + 1) (if printable c then run + 1 else 0)
  in
  go wk.at wk.run

(* Look for the NUL that ends [best]'s tail; once found, release the
   windows past it that only the search held. *)
let seek_tail s =
  if s.best.found && s.tail < 0 then begin
    let rec go i =
      if i >= s.fed then begin
        s.tail_at <- i;
        if i >= s.n then s.tail <- s.n
      end
      else if byte s i = '\000' then s.tail <- i
      else go (i + 1)
    in
    go s.tail_at;
    if s.tail >= 0 then release_unheld s ((s.tail / s.w) + 1) max_int
  end

(* A region that ended: keep it when it is wider than [best], or as
   wide and from an earlier anchor window, so the first of equally wide
   ones stays. *)
let region_ends s wk =
  let b = s.best in
  let width = wk.at - wk.wlo in
  if
    (not b.found)
    || width > b.hi - b.lo
    || (width = b.hi - b.lo && wk.j < b.bj)
  then begin
    let old_lo = b.lo / s.w and old_found = b.found in
    let old_hi = if s.tail < 0 then max_int else s.tail / s.w in
    b.found <- true;
    b.lo <- wk.wlo;
    b.hi <- wk.at;
    b.bj <- wk.j;
    s.tail <- -1;
    s.tail_at <- wk.at;
    if old_found then release_unheld s old_lo old_hi;
    seek_tail s
  end

(* Does the anchor pattern start at [j]? All its 8 bytes are fed. *)
let anchor_at s j =
  let p = s.pages.(j / s.w) and o = j mod s.w in
  if o + 8 <= s.w then Bytes.get_int64_le p o = anchor_word
  else
    let rec eq i = i = 8 || (byte s (j + i) = anchor_pattern.[i] && eq (i + 1)) in
    eq 0

(* The anchor candidate at [j] (a NUL followed by 'p'): on a match,
   find its region's start and walk right as far as the bytes go. A
   candidate before the current run has a non-name byte in its window. *)
let widen s j =
  if j <= s.n - 8 && j >= s.run_lo && anchor_at s j then begin
    let wk = { j; wlo = region_lo s (j + 1); at = j + 1; run = 0 } in
    if advance s wk then region_ends s wk else s.walks <- s.walks @ [ wk ]
  end

let in_image s value = value >= s.kbase && value < s.kbase + s.n

(* The region-free half of the consistency check for the slot at
   [o], whose word [v] (as [i64] reads it) passed the top-byte filter:
   the layouts whose entry there fits and whose value points into the
   kernel. [v8], the next word, is read only when a 16-byte entry
   fits. *)
let slot_tests s o v v8 =
  let top = v asr 56 in
  let absolute = (not s.filtered) || top = s.top_lo || top = s.top_hi
  and prel32 =
    (not s.filtered)
    || (top + 1) land lnot 1 = 0 && ((v lsr 24) + 1) land 0xfe = 0
  in
  let fits16 = o + 16 <= s.n in
  (if absolute && fits16 && in_image s v then 1 else 0)
  lor (if absolute && fits16 && in_image s v8 then 2 else 0)
  lor
  (* the PREL32 value is relative to [o]; its offset is [v]'s low
     half, sign-extended *)
  if prel32 && o + 8 <= s.n && in_image s (s.kbase + o + ((v lsl 31) asr 31))
  then 4
  else 0

(* The offset in [s.ents] of the next candidate row. *)
let next_row s =
  let e = 16 * s.n_cands in
  if e + 16 > Bytes.length s.ents then
    s.ents <- Bytes.extend s.ents 0 (Bytes.length s.ents);
  e

(* Keep the slot at [o], whose row is written, as the next candidate. *)
let keep s o bits =
  if s.n_cands = Array.length s.cands then begin
    let a = Array.make (2 * s.n_cands) 0 in
    Array.blit s.cands 0 a 0 s.n_cands;
    s.cands <- a
  end;
  s.cands.(s.n_cands) <- (o lsl 3) lor bits;
  s.n_cands <- s.n_cands + 1

(* The slot event at [o] of the window [buf] at [start]. A candidate's
   row holds its 16 bytes (8 when no 16-byte entry fits). When the
   second word is the next window's first, the first goes into the row
   and the test waits for that window. *)
let slot s buf ~start o =
  let off = o - start in
  if o + 16 <= s.n && o + 8 = s.fed then begin
    Bytes.blit buf off s.ents (next_row s) 8;
    s.pending_slot <- o
  end
  else
    let v8 = if o + 16 <= s.n then i64 buf (off + 8) else 0 in
    let bits = slot_tests s o (i64 buf off) v8 in
    if bits <> 0 then begin
      Bytes.blit buf off s.ents (next_row s) (if o + 16 <= s.n then 16 else 8);
      keep s o bits
    end

let scanner kernel ~window ~kbase n =
  if window <= 0 || window land 7 <> 0 then
    invalid_arg "Symbol_analysis: window not a positive multiple of 8";
  (* Slot filter: necessary conditions derived from [n] that random
     bytes rarely meet.
     - An all-zero word is no entry: its value (absolute) or name
       pointer (absolute, name first) is 0, outside a kernel at
       [kbase > 0], and its PREL32 name is the NUL at [o + 4].
     - An absolute entry's word at [o] (its value or its name pointer)
       points into [\[kbase, kbase + n)], so the word's top byte, as
       [i64] reads it, is that of [kbase] or of [kbase + n - 1].
     - A PREL32 entry's two halves are offsets within [(-n, n)], so
       with [n <= 2^23] each half's top byte (bytes 3 and 7) is 0x00
       or 0xff.
     A slot whose word is zero, or whose top byte (bits 56-62) is none
     of those four, fails both filters and is no event. Past 2^23
     bytes, or at [kbase <= 0], every slot is one. *)
  let filtered = n <= 1 lsl 23 && kbase > 0 in
  let top_lo = kbase asr 56 and top_hi = (kbase + n - 1) asr 56 in
  let tops =
    if filtered then
      List.fold_left
        (fun acc top -> (acc lsl 8) lor (top land 0x7f))
        0 [ top_lo; top_hi; 0; -1 ]
    else -1
  in
  {
    kbase;
    n;
    w = window;
    kernel;
    filtered;
    top_lo;
    top_hi;
    tops;
    events = Array.make ((window / 2) + (window / 8) + 2) 0;
    pages = Array.make ((n + window - 1) / window) Bytes.empty;
    zero = Bytes.make window '\000';
    free = Array.make 8 Bytes.empty;
    n_free = 0;
    fed = 0;
    run_lo = 0;
    settled = 0;
    nul_carry = false;
    held = [];
    walks = [];
    best = { found = false; lo = 0; hi = 0; bj = 0 };
    tail = -1;
    tail_at = 0;
    pending_slot = -1;
    cands = Array.make 64 0;
    n_cands = 0;
    ents = Bytes.create (16 * 64);
  }

(* The buffer the next window is read into. *)
let buffer s =
  if s.n_free = 0 then recycle s (Bytes.create s.w);
  s.free.(s.n_free - 1)

(* Scan the next [len] bytes of the image, read into [buffer s]: every
   window is [w] bytes long but the last. In order: the slot that
   waited for this window's first word; the walks of earlier matches;
   the anchor candidates that waited for this window's bytes; this
   window's events; the tail search; then the window's class moves the
   current run and the windows no later step reads are released. *)
let feed s ~len =
  let start = s.fed in
  if start >= s.n || len <> Int.min s.w (s.n - start) then
    invalid_arg "Symbol_analysis.feed";
  let buf = buffer s in
  s.n_free <- s.n_free - 1;
  let k = start / s.w in
  let cls = window_class buf len in
  s.pages.(k) <- (if cls = -2 then s.zero else buf);
  s.fed <- start + len;
  if s.pending_slot >= 0 then begin
    let o = s.pending_slot and e = 16 * s.n_cands in
    let bits = slot_tests s o (i64 s.ents e) (i64 buf 0) in
    if bits <> 0 then begin
      Bytes.blit buf 0 s.ents (e + 8) 8;
      keep s o bits
    end;
    s.pending_slot <- -1
  end;
  if s.walks <> [] then
    s.walks <-
      List.filter
        (fun wk ->
          let ended = advance s wk in
          if ended then region_ends s wk;
          not ended)
        s.walks;
  if s.held <> [] then begin
    List.iter (widen s) (List.rev s.held);
    s.held <- []
  end;
  if s.nul_carry && Bytes.get buf 0 = 'p' then widen s (start - 1);
  (* an all-zero window holds no NUL followed by 'p' and, filtered, no
     slot *)
  let ne =
    if cls = -2 && s.filtered then 0 else s.kernel buf len start s.tops s.events
  in
  for i = 0 to ne - 1 do
    let ev = s.events.(i) in
    let o = ev lsr 1 in
    if ev land 1 = 0 then slot s buf ~start o
    else if o + 8 <= s.fed || o > s.n - 8 then widen s o
    else s.held <- o :: s.held
  done;
  seek_tail s;
  if cls = -2 then recycle s buf
  else if cls >= 0 then s.run_lo <- start + cls + 1;
  s.nul_carry <- Bytes.get buf (len - 1) = '\000';
  settle s

let scan_with kernel ?(window = X86.Layout.page_size) img ~kbase =
  let n = Bytes.length img in
  let s = scanner kernel ~window ~kbase n in
  while s.fed < n do
    let len = Int.min window (n - s.fed) in
    Bytes.blit img s.fed (buffer s) 0 len;
    feed s ~len
  done;
  s

let scan_image = scan_with scan_window
let portable_scan_image = scan_with portable_scan_window

let strings_region s =
  let best = s.best in
  if not best.found then
    Error (Printf.sprintf "anchor symbol %S not found in kernel image" anchor_symbol)
  else if best.hi - best.lo < 16 then Error "strings region too small"
  else Ok (best.lo, best.hi)

(* Is [off] the start of a plausible symbol name inside the region? *)
let string_start s (lo, hi) off =
  off >= lo && off < hi
  && (off = lo || byte s (off - 1) = '\000')
  && printable (byte s off)

(* The name at [off], up to its NUL: inside the region or its tail. *)
let read_cstr s off =
  let rec go i = if i >= s.n || byte s i = '\000' then i else go (i + 1) in
  let name = Bytes.create (go off - off) in
  for i = 0 to Bytes.length name - 1 do
    Bytes.set name i (byte s (off + i))
  done;
  Bytes.unsafe_to_string name

(* Candidate [k]'s layout bit for [layout], if its entry is also named:
   its name pointer lands on a string start inside the region. *)
let named_bit s ~region k layout =
  let bit = layout_bit layout and o = s.cands.(k) lsr 3 in
  if
    s.cands.(k) land bit <> 0
    && string_start s region
         (entry_name_va s.ents ~base:(s.kbase + o - (16 * k)) layout (16 * k)
         - s.kbase)
  then bit
  else 0

(* The valid slots are [(row lsl 3) lor layout bits], [row] being the
   candidate's index; this is its image offset. *)
let slot_off s v = s.cands.(v lsr 3) lsr 3

(* The number of consecutive [layout] entries from [o] on, counted in
   [slots] (ascending): every valid entry is a candidate, so the run is
   the slots at [o], [o + esz], ... that carry the layout's bit. *)
let rec run_length s bit esz o len = function
  | v :: rest when slot_off s v < o -> run_length s bit esz o len rest
  | v :: rest when slot_off s v = o && v land bit <> 0 ->
      run_length s bit esz (o + esz) (len + 1) rest
  | _ -> len

(* The longest run of valid [layout] entries, visiting only the slots
   where one starts: try starts every 8 bytes from offset 0, keep the
   first strictly longer run, and jump past each new best run instead of
   re-counting its suffixes. A start that is no valid slot has a run of
   0, which never beats the best and only moves the cursor by 8 — so
   going straight to the next valid slot at or past the cursor visits
   exactly the starts that can matter. Returns the run's offset, its
   length and the slots from its start on. *)
let best_run s slots layout =
  let esz = Linux_guest.Ksymtab.entry_size layout in
  let bit = layout_bit layout in
  let rec go cursor ((_, best_len, _) as best) = function
    | [] -> best
    | v :: rest when slot_off s v < cursor || v land bit = 0 ->
        go cursor best rest
    | v :: rest as here ->
        let o = slot_off s v in
        let len = run_length s bit esz o 0 here in
        if len > best_len then go (o + (len * esz)) (o, len, here) rest
        else go (o + 8) best rest
  in
  go 0 (0, 0, []) slots

(* Every layout's table candidate: the candidates whose entries are
   also named give the valid slots; then for each of [layouts], the
   offset of its longest valid run and the run's (name, value) pairs —
   [(0, [])] when no entry is valid or no strings region was found. *)
let tables s =
  let slots =
    match strings_region s with
    | Error _ -> []
    | Ok region ->
        let slots = ref [] in
        for k = s.n_cands - 1 downto 0 do
          let bits =
            named_bit s ~region k KV.Absolute_value_first
            lor named_bit s ~region k KV.Absolute_name_first
            lor named_bit s ~region k KV.Prel32
          in
          if bits <> 0 then slots := ((k lsl 3) lor bits) :: !slots
        done;
        !slots
  in
  List.map
    (fun layout ->
      let esz = Linux_guest.Ksymtab.entry_size layout in
      let off, len, run = best_run s slots layout in
      let rec entries o len = function
        | [] -> []
        | _ when len = 0 -> []
        | v :: rest when slot_off s v < o -> entries o len rest
        | v :: rest ->
            let e = 16 * (v lsr 3) in
            let base = s.kbase + o - e in
            let entry =
              ( read_cstr s (entry_name_va s.ents ~base layout e - s.kbase),
                entry_value s.ents ~base layout e )
            in
            entry :: entries (o + esz) (len - 1) rest
      in
      (layout, off, entries off len run))
    layouts

(* --- build-id memoization ---

   A kernel *build* is identified by the note the image carries (the
   stand-in for NT_GNU_BUILD_ID); two VMs booted from the same build
   differ only in their KASLR base. The cache stores base-relative
   symbol offsets, so a hit needs just the page-table walk, one page of
   the image (for the note) and an offset rebase — skipping the full
   image copy and both section scans. *)

let buildid_magic = "VMSHBID0"
let buildid_hex_len = 32

module Cache = struct
  type entry = {
    c_image_len : int;
    c_layout : KV.ksymtab_layout;
    c_sym_offsets : (string * int) list;  (* name -> va - kernel_base *)
    c_version : KV.t;
    c_witness : witness;  (* image offsets: valid for any KASLR base *)
  }

  type t = (string, entry) Hashtbl.t

  let create () : t = Hashtbl.create 7
end

(* Locate the build-id note in the image's first page. Scanned for, not
   assumed at a fixed offset — the analyzer discovers everything. *)
let find_build_id page =
  let m = String.length buildid_magic in
  let rec go i =
    if i + m + buildid_hex_len > Bytes.length page then None
    else if bytes_match page i buildid_magic 0 then
      Some (Bytes.sub_string page (i + m) buildid_hex_len)
    else go (i + 1)
  in
  go 0

let bump mem name =
  let obs = (Hyp_mem.host mem).Hostos.Host.observe in
  Observe.Metrics.incr (Observe.Metrics.counter (Observe.metrics obs) name)

let analyze_full ?cache ~build_id mem ~cr3 ~kernel_base ~image_len =
    (* the image streams through page windows: each page is translated,
       read into the scan's next window and scanned, so no copy of the
       whole mapping is made. [kernel_base] is a page's address, so
       every page is a whole window *)
    let scan =
      scanner scan_window ~window:Layout.page_size ~kbase:kernel_base image_len
    in
    let read ~gpa ~pos:_ ~len =
      Hyp_mem.read_phys_into mem ~gpa (buffer scan) ~off:0 ~len;
      feed scan ~len
    in
    if not (Hyp_mem.virt_pages mem ~cr3 ~va:kernel_base ~len:image_len read)
    then Error "kernel image pages vanished during analysis"
    else begin
        (* the modelled analyzer walks the copied image four times: the
           strings scan and one table search per layout. Charge those
           passes to virtual time (the measurable cost a cache hit
           saves), however few passes the host needs to compute them *)
        Hostos.Clock.copy_bytes (Hyp_mem.host mem).Hostos.Host.clock
          (4 * image_len);
        let* region = strings_region scan in
        (* all layout variants in parallel; the consistency checks keep
           only entries whose name pointers land exactly on string
           starts, so the wrong layouts produce shorter (usually empty)
           runs *)
        let candidates = tables scan in
        let layout, table_off, entries =
          List.fold_left
            (fun (bl, bo, be) (l, o, e) ->
              if List.length e > List.length be then (l, o, e) else (bl, bo, be))
            (KV.Prel32, 0, []) candidates
        in
        if List.length entries < 8 then
          Error "no consistent ksymtab candidate found in any known layout"
        else
          let symbols = entries in
          let witness =
            {
              w_table_off = table_off;
              w_strings_lo = fst region;
              w_strings_hi = snd region;
            }
          in
          let* version =
            match List.assoc_opt "linux_banner" symbols with
            | None -> Error "linux_banner not exported; cannot identify version"
            | Some va -> (
                match Hyp_mem.read_virt mem ~cr3 ~va ~len:128 with
                | None -> Error "cannot read linux_banner"
                | Some b -> (
                    let s = Bytes.to_string b in
                    let s =
                      match String.index_opt s '\000' with
                      | Some i -> String.sub s 0 i
                      | None -> s
                    in
                    match KV.of_banner s with
                    | Some v -> Ok v
                    | None -> Error ("unrecognised banner: " ^ s)))
          in
          begin
            (match (cache, build_id) with
            | Some c, Some bid ->
                Hashtbl.replace c bid
                  {
                    Cache.c_image_len = image_len;
                    c_layout = layout;
                    c_sym_offsets =
                      List.map (fun (n, va) -> (n, va - kernel_base)) symbols;
                    c_version = version;
                    c_witness = witness;
                  }
            | _ -> ());
            Ok { kernel_base; image_len; layout; symbols; version; witness }
          end
    end

let analyze ?cache mem ~cr3 =
  let* kernel_base, image_len =
    Observe.span
      (Hyp_mem.host mem).Hostos.Host.observe
      ~name:"page-table-walk"
      (fun () -> find_kernel_base mem ~cr3)
  in
  if image_len = 0 then Error "kernel mapping has zero extent"
  else
    let build_id =
      match cache with
      | None -> None
      | Some _ ->
          Option.bind
            (Hyp_mem.read_virt mem ~cr3 ~va:kernel_base
               ~len:(min image_len Layout.page_size))
            find_build_id
    in
    let cached =
      match (cache, build_id) with
      | Some c, Some bid -> Hashtbl.find_opt c bid
      | _ -> None
    in
    match cached with
    | Some e ->
        (* cache hit: rebase the stored offsets to this VM's KASLR
           base; no image copy, no scans *)
        bump mem "symcache.hits";
        Observe.span
          (Hyp_mem.host mem).Hostos.Host.observe
          ~name:"symcache-rebase"
          (fun () ->
            Ok
              {
                kernel_base;
                image_len = e.Cache.c_image_len;
                layout = e.Cache.c_layout;
                symbols =
                  List.map
                    (fun (n, off) -> (n, kernel_base + off))
                    e.Cache.c_sym_offsets;
                version = e.Cache.c_version;
                witness = e.Cache.c_witness;
              })
    | None ->
        (match cache with Some _ -> bump mem "symcache.misses" | None -> ());
        analyze_full ?cache ~build_id mem ~cr3 ~kernel_base ~image_len

let resolve a name = List.assoc_opt name a.symbols

(* --- use-time revalidation (TOCTOU hardening) ---

   Between the scan and the moment the loader patches the guest, a
   hostile guest can rewrite the ksymtab or its strings, or balloon the
   scanned pages away entirely. [revalidate] re-reads both witnessed
   regions from the live guest, re-derives (name, value) pairs with the
   same layout rules and compares against the scan's result — bounds
   re-check first, then the content check. Pure reads; the witness is
   base-relative, so it survives the cache's KASLR rebase.

   The comparison is by *name*, not by table position, and [?names]
   restricts it to the symbols the caller is about to rely on. Both
   matter for cache-hit analyses: a build-id cache guarantees the
   symbols vmsh uses (deterministic layout offsets), while filler
   exports and their table order legitimately differ VM to VM — only a
   divergence in a symbol we will actually patch through is guest
   misbehavior. *)
let revalidate ?names mem ~cr3 a =
  let w = a.witness in
  let esz = Linux_guest.Ksymtab.entry_size a.layout in
  let table_len = List.length a.symbols * esz in
  let slo = w.w_strings_lo and shi = w.w_strings_hi in
  (* the witnessed hi bound is the *detected* strings extent, which is
     content-dependent: another VM of the same build packs different
     filler names, so its strings run a little shorter or longer. When
     the table follows the strings (every layout we scan), the section
     structurally extends to the table base — validate against that
     window so a cache-hit analysis can resolve this VM's names *)
  let shi = if w.w_table_off >= shi then w.w_table_off else shi in
  if
    w.w_table_off < 0
    || w.w_table_off + table_len > a.image_len
    || slo < 0 || shi > a.image_len || slo >= shi
  then Error "witness out of image bounds"
  else begin
    (* one parse pass over the re-read bytes — charged to virtual time
       like the original scans (a fraction of their cost) *)
    Hostos.Clock.copy_bytes (Hyp_mem.host mem).Hostos.Host.clock
      (table_len + (shi - slo));
    match
      Hyp_mem.read_virt mem ~cr3 ~va:(a.kernel_base + slo) ~len:(shi - slo)
    with
    | None -> Error "strings region pages vanished since the scan"
    | Some strings -> (
        match
          Hyp_mem.read_virt mem ~cr3 ~va:(a.kernel_base + w.w_table_off)
            ~len:table_len
        with
        | None -> Error "ksymtab pages vanished since the scan"
        | Some table ->
            let name_at name_va =
              let off = name_va - a.kernel_base - slo in
              if off < 0 || off >= shi - slo then None
              else
                let rec fin i =
                  if i >= shi - slo then None
                  else if Bytes.get strings i = '\000' then Some i
                  else if not (printable (Bytes.get strings i)) then None
                  else fin (i + 1)
                in
                Option.map
                  (fun e -> Bytes.sub_string strings off (e - off))
                  (fin off)
            in
            (* one pass over the live table: every entry that still
               parses and whose name pointer lands in the strings
               region contributes a (name, value) pair; mutated-to-
               garbage entries simply contribute nothing and are caught
               below when a needed name has vanished or moved *)
            let base = a.kernel_base + w.w_table_off in
            let parse i =
              let o = i * esz in
              let value = entry_value table ~base a.layout o in
              Option.map
                (fun n -> (n, value))
                (name_at (entry_name_va table ~base a.layout o))
            in
            let live =
              List.filter_map parse (List.init (List.length a.symbols) Fun.id)
            in
            let wanted =
              match names with
              | Some ns ->
                  List.filter_map
                    (fun n ->
                      Option.map (fun va -> (n, va)) (List.assoc_opt n a.symbols))
                    ns
              | None -> a.symbols
            in
            let rec check = function
              | [] -> Ok ()
              | (name, va) :: rest -> (
                  match List.assoc_opt name live with
                  | None ->
                      Error
                        (Printf.sprintf
                           "symbol %s vanished from the ksymtab since the scan"
                           name)
                  | Some value when value <> va ->
                      Error
                        (Printf.sprintf
                           "symbol %s moved since the scan (0x%x -> 0x%x)" name
                           va value)
                  | Some _ -> check rest)
            in
            check wanted)
  end
