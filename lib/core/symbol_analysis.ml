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

(* Does [b] hold [pat] at offset [i]? Compared in place, byte by byte,
   so a scan probing every offset allocates nothing. *)
let rec bytes_match b i pat k =
  k >= String.length pat
  || i + k < Bytes.length b
     && Bytes.get b (i + k) = String.get pat k
     && bytes_match b i pat (k + 1)

(* Expand a strings region around [pos]: the maximal span of NUL-
   separated printable names (each at most [max_name_len] bytes). *)
let expand_strings_region img pos =
  let n = Bytes.length img in
  let ok c = c = '\000' || printable c in
  (* walk left while structure holds *)
  let rec left i run =
    if i < 0 then 0
    else
      let c = Bytes.get img i in
      if not (ok c) then i + 1
      else if printable c && run >= max_name_len then i + 1
      else left (i - 1) (if printable c then run + 1 else 0)
  in
  let rec right i run =
    if i >= n then n
    else
      let c = Bytes.get img i in
      if not (ok c) then i
      else if printable c && run >= max_name_len then i
      else right (i + 1) (if printable c then run + 1 else 0)
  in
  (left pos 0, right pos 0)

let anchor_pattern = "\000" ^ anchor_symbol ^ "\000"

(* The anchor pattern is exactly 8 bytes, so a window matches when its
   one little-endian 64-bit load equals this word. *)
let anchor_word = String.get_int64_le anchor_pattern 0

(* The widest strings region seen so far. *)
type region_best = { mutable found : bool; mutable lo : int; mutable hi : int }

(* The anchor window at [j], whose first two bytes are a NUL and 'p':
   on a match, widen it to its strings region and keep that when it is
   strictly wider than [best]'s, so the first of equally wide ones
   stays. *)
let widen img best j =
  if Bytes.get_int64_le img j = anchor_word then begin
    best.found <- true;
    let lo, hi = expand_strings_region img (j + 1) in
    if hi - lo > best.hi - best.lo then begin
      best.lo <- lo;
      best.hi <- hi
    end
  end

(* Is [off] the start of a plausible symbol name inside the region? *)
let string_start img (lo, hi) off =
  off >= lo && off < hi
  && (off = lo || Bytes.get img (off - 1) = '\000')
  && printable (Bytes.get img off)

let read_cstr img off =
  let n = Bytes.length img in
  let rec go i = if i >= n || Bytes.get img i = '\000' then i else go (i + 1) in
  Bytes.sub_string img off (go off - off)

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

(* The region-free half of the consistency check for the entry at
   image offset [o]: it fits in the image and its value points into the
   kernel. *)
let entry_in_image img ~kbase layout o =
  let n = Bytes.length img in
  o + Linux_guest.Ksymtab.entry_size layout <= n
  &&
  let value = entry_value img ~base:kbase layout o in
  value >= kbase && value < kbase + n

(* The other half: its name pointer lands exactly on a string start
   inside the strings region. *)
let entry_named img ~kbase ~region layout o =
  string_start img region (entry_name_va img ~base:kbase layout o - kbase)

let entry_valid img ~kbase ~region layout o =
  entry_in_image img ~kbase layout o && entry_named img ~kbase ~region layout o

(* [len] plus the number of consecutive valid entries from [o] on. *)
let rec run_length img ~kbase ~region layout o len =
  if entry_valid img ~kbase ~region layout o then
    run_length img ~kbase ~region layout
      (o + Linux_guest.Ksymtab.entry_size layout)
      (len + 1)
  else len

let layouts = [ KV.Absolute_value_first; KV.Absolute_name_first; KV.Prel32 ]

let layout_bit = function
  | KV.Absolute_value_first -> 1
  | KV.Absolute_name_first -> 2
  | KV.Prel32 -> 4

(* What one pass over a copied image finds: the widest strings region
   around an anchor, and the slots where some layout's entry passes the
   region-free half of its check, as [(o lsl 3) lor layout bits] in
   ascending order in [cands.(0 .. n_cands - 1)]. *)
type scan = {
  img : Bytes.t;
  kbase : int;
  best : region_best;
  mutable cands : int array;
  mutable n_cands : int;
}

let push_cand s c =
  if s.n_cands = Array.length s.cands then begin
    let a = Array.make (2 * s.n_cands) 0 in
    Array.blit s.cands 0 a 0 s.n_cands;
    s.cands <- a
  end;
  s.cands.(s.n_cands) <- c;
  s.n_cands <- s.n_cands + 1

let low_bits = 0x0101_0101_0101_0101L
let high_bits = 0x8080_8080_8080_8080L

(* The slot at [o], whose word [v] (as [i64] reads it) passed the
   top-byte filter: keep the layouts whose entry there fits and whose
   value points into the image. *)
let slot_tests s ~filtered ~top_lo ~top_hi o v =
  let img = s.img and kbase = s.kbase in
  let top = v asr 56 in
  let absolute = (not filtered) || top = top_lo || top = top_hi
  and prel32 =
    (not filtered)
    || (top + 1) land lnot 1 = 0 && ((v lsr 24) + 1) land 0xfe = 0
  in
  let bits =
    (if absolute && entry_in_image img ~kbase KV.Absolute_value_first o then 1
     else 0)
    lor (if absolute && entry_in_image img ~kbase KV.Absolute_name_first o then 2
         else 0)
    lor if prel32 && entry_in_image img ~kbase KV.Prel32 o then 4 else 0
  in
  if bits <> 0 then push_cand s ((o lsl 3) lor bits)

(* An unchecked little-endian 64-bit load; [scan_image]'s loop bound
   keeps every load inside the image. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* One loop over the image's aligned 8-byte words, each loaded once.
   Anchor search: every anchor window starts at a NUL followed by 'p'.
   [(w - 0x01..01) land lnot w land 0x80..80] is non-zero exactly when
   some byte of [w] is zero, so only such a word looks for a NUL
   followed by 'p' among its bytes; an all-zero word can start a match
   only at its last byte, the one NUL the next word's first byte may
   follow. A window may run past its word, so every window up to
   [n - 8] is tested, and in ascending order. Slot filter: necessary
   conditions derived from [n] that random bytes rarely meet, and most
   slots fail the first.
   - An all-zero word is no entry: its value (absolute) or name
     pointer (absolute, name first) is 0, outside a kernel at
     [kbase > 0], and its PREL32 name is the NUL at [o + 4].
   - An absolute entry's word at [o] (its value or its name pointer)
     points into [\[kbase, kbase + n)], so the word's top byte, as
     [i64] reads it, is that of [kbase] or of [kbase + n - 1].
   - A PREL32 entry's two halves are offsets within [(-n, n)], so with
     [n <= 2^23] each half's top byte (bytes 3 and 7) is 0x00 or 0xff.
   A slot whose word is zero, or whose top byte is none of those four,
   fails both filters; [tops] (one byte per top-byte value) rejects it
   with one load and test. Past 2^23 bytes, or at [kbase <= 0], every
   slot takes [slot_tests]. *)
let scan_image img ~kbase =
  let n = Bytes.length img in
  let last = n - 8 in
  let filtered = n <= 1 lsl 23 && kbase > 0 in
  let top_lo = kbase asr 56 and top_hi = (kbase + n - 1) asr 56 in
  let tops = Bytes.make 128 '\000' in
  List.iter
    (fun top -> Bytes.set tops (top land 0x7f) '\001')
    [ top_lo; top_hi; 0; -1 ];
  let best = { found = false; lo = 0; hi = 0 } in
  let s = { img; kbase; best; cands = Array.make 64 0; n_cands = 0 } in
  let o = ref 0 in
  while !o <= last do
    let o' = !o in
    let w = get64u img o' in
    if w = 0L then begin
      if o' + 7 <= last && Bytes.unsafe_get img (o' + 8) = 'p' then
        widen img best (o' + 7)
    end
    else if
      Int64.logand (Int64.logand (Int64.sub w low_bits) (Int64.lognot w)) high_bits
      <> 0L
    then
      for j = o' to min (o' + 7) last do
        if Bytes.unsafe_get img j = '\000' && Bytes.unsafe_get img (j + 1) = 'p'
        then widen img best j
      done;
    let v = Int64.to_int w in
    if
      (w <> 0L && Bytes.unsafe_get tops ((v asr 56) land 0x7f) <> '\000')
      || not filtered
    then slot_tests s ~filtered ~top_lo ~top_hi o' v;
    o := o' + 8
  done;
  s

let strings_region s =
  let best = s.best in
  if not best.found then
    Error (Printf.sprintf "anchor symbol %S not found in kernel image" anchor_symbol)
  else if best.hi - best.lo < 16 then Error "strings region too small"
  else Ok (best.lo, best.hi)

(* The longest run of valid [layout] entries, visiting only the slots
   where one starts: try starts every 8 bytes from offset 0, keep the
   first strictly longer run, and jump past each new best run instead of
   re-counting its suffixes. A start that is no valid slot has a run of
   0, which never beats the best and only moves the cursor by 8 — so
   going straight to the next valid slot at or past the cursor visits
   exactly the starts that can matter. Returns the run's offset and
   length. *)
let best_run img ~kbase ~region slots layout =
  let esz = Linux_guest.Ksymtab.entry_size layout in
  let bit = layout_bit layout in
  let rec go cursor best_off best_len = function
    | [] -> (best_off, best_len)
    | (o, bits) :: rest when o < cursor || bits land bit = 0 ->
        go cursor best_off best_len rest
    | (o, _) :: rest ->
        let len = run_length img ~kbase ~region layout o 0 in
        if len > best_len then go (o + (len * esz)) o len rest
        else go (o + 8) best_off best_len rest
  in
  go 0 0 0 slots

(* [cand]'s layout bit for [layout], if its entry is also named. *)
let named_bit img ~kbase ~region cand layout =
  let bit = layout_bit layout in
  if cand land bit <> 0 && entry_named img ~kbase ~region layout (cand lsr 3)
  then bit
  else 0

(* Every layout's table candidate: the candidates whose entries are
   also named give the valid slots, as [(offset, layout bits)] in
   ascending order; then for each of [layouts], the offset of its
   longest valid run and the run's (name, value) pairs — [(0, [])] when
   no entry is valid. *)
let tables s ~region =
  let img = s.img and kbase = s.kbase in
  let slots = ref [] in
  for i = s.n_cands - 1 downto 0 do
    let c = s.cands.(i) in
    let bits =
      named_bit img ~kbase ~region c KV.Absolute_value_first
      lor named_bit img ~kbase ~region c KV.Absolute_name_first
      lor named_bit img ~kbase ~region c KV.Prel32
    in
    if bits <> 0 then slots := (c lsr 3, bits) :: !slots
  done;
  List.map
    (fun layout ->
      let off, len = best_run img ~kbase ~region !slots layout in
      let esz = Linux_guest.Ksymtab.entry_size layout in
      let entry k =
        let o = off + (k * esz) in
        ( read_cstr img (entry_name_va img ~base:kbase layout o - kbase),
          entry_value img ~base:kbase layout o )
      in
      (layout, off, List.init len entry))
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
    match Hyp_mem.read_virt mem ~cr3 ~va:kernel_base ~len:image_len with
    | None -> Error "kernel image pages vanished during analysis"
    | Some img ->
        (* the modelled analyzer walks the copied image four times: the
           strings scan and one table search per layout. Charge those
           passes to virtual time (the measurable cost a cache hit
           saves), however few passes the host needs to compute them *)
        Hostos.Clock.copy_bytes (Hyp_mem.host mem).Hostos.Host.clock
          (4 * image_len);
        let scan = scan_image img ~kbase:kernel_base in
        let* region = strings_region scan in
        (* all layout variants in parallel; the consistency checks keep
           only entries whose name pointers land exactly on string
           starts, so the wrong layouts produce shorter (usually empty)
           runs *)
        let candidates = tables scan ~region in
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
