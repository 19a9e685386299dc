(* Unit tests for VMSH's own pieces below the attach orchestration:
   memslot discovery codec, Hyp_mem, symbol analysis (including
   adversarial inputs), the library builder, and the shell. *)

module H = Hostos
module KV = Linux_guest.Kernel_version
module Guest = Linux_guest.Guest
module Vmm = Hypervisor.Vmm
module Sfs = Blockdev.Simplefs
module Vfs = Linux_guest.Vfs

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

(* --- memslot codec --- *)

let test_memslot_codec () =
  let slots =
    [
      { Vmsh.Hyp_mem.slot = 0; gpa = 0; size = 1 lsl 26; hva = 0x5000_0000_0000 };
      { Vmsh.Hyp_mem.slot = 61; gpa = 1 lsl 32; size = 4096; hva = 0x5000_4000_0000 };
      { Vmsh.Hyp_mem.slot = 508; gpa = 1 lsl 33; size = 8192; hva = 0x5000_8000_0000 };
    ]
  in
  match Vmsh.Memslot_discovery.decode_slots (Vmsh.Memslot_discovery.encode_slots slots) with
  | Some s -> check cbool "roundtrip" true (s = slots)
  | None -> Alcotest.fail "decode"

let test_memslot_decode_rejects_garbage () =
  check cbool "short buffer" true
    (Vmsh.Memslot_discovery.decode_slots (Bytes.of_string "xx") = None);
  let b = Bytes.make 8 '\000' in
  Bytes.set_int32_le b 0 100l;
  check cbool "count beyond buffer" true
    (Vmsh.Memslot_discovery.decode_slots b = None)

(* --- Hyp_mem over a live hypervisor --- *)

let boot_env ?(seed = 61) () =
  let h = H.Host.create ~seed () in
  let backend = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks:1024 () in
  let fs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev backend) ()) in
  ignore (Sfs.mkdir_p fs "/dev");
  Sfs.sync fs;
  let vmm = Vmm.create h ~profile:Hypervisor.Profile.qemu ~disk:backend () in
  let g = Vmm.boot vmm ~version:KV.V5_10 in
  (h, vmm, g)

let hyp_mem_of (h, vmm, g) =
  let vmsh = H.Host.spawn h ~name:"vmsh-test" ~uid:1000 () in
  let slots =
    (Kvm.Vm.memslots (Guest.vm g))
  in
  Vmsh.Hyp_mem.create h ~vmsh ~hypervisor_pid:(Vmm.pid vmm) ~slots ()

let test_hyp_mem_reads_guest_phys () =
  let ((_, _, g) as env) = boot_env () in
  let mem = hyp_mem_of env in
  Kvm.Vm.write_phys (Guest.vm g) 0x9000 (Bytes.of_string "through-the-wall");
  check cstr "remote phys read" "through-the-wall"
    (Bytes.to_string (Vmsh.Hyp_mem.read_phys mem ~gpa:0x9000 ~len:16));
  Vmsh.Hyp_mem.write_phys mem ~gpa:0x9800 (Bytes.of_string "injected");
  check cstr "remote phys write" "injected"
    (Bytes.to_string (Kvm.Vm.read_phys (Guest.vm g) 0x9800 8))

let test_hyp_mem_virt_translation () =
  let ((_, _, g) as env) = boot_env () in
  let mem = hyp_mem_of env in
  let cr3 = (Kvm.Vm.vcpu_regs (List.hd (Kvm.Vm.vcpus (Guest.vm g)))).X86.Regs.cr3 in
  (* read the banner through the kernel's own virtual mapping *)
  let kbase = Guest.kernel_virt g in
  (match Vmsh.Hyp_mem.read_virt mem ~cr3 ~va:kbase ~len:4096 with
  | Some _ -> ()
  | None -> Alcotest.fail "kernel base should translate");
  check cbool "unmapped is None" true
    (Vmsh.Hyp_mem.read_virt mem ~cr3 ~va:0x1234_5000 ~len:8 = None)

let test_hyp_mem_copy_modes_agree () =
  let ((_, _, g) as env) = boot_env () in
  let mem = hyp_mem_of env in
  Kvm.Vm.write_phys (Guest.vm g) 0xa000
    (Bytes.init 100 (fun i -> Char.chr (i land 0xff)));
  let bulk = Vmsh.Hyp_mem.read_phys mem ~gpa:0xa000 ~len:100 in
  Vmsh.Hyp_mem.set_mode mem Vmsh.Hyp_mem.Peek_u64;
  let peek = Vmsh.Hyp_mem.read_phys mem ~gpa:0xa000 ~len:100 in
  Vmsh.Hyp_mem.set_mode mem Vmsh.Hyp_mem.Chunked_4k;
  let chunked = Vmsh.Hyp_mem.read_phys mem ~gpa:0xa000 ~len:100 in
  check cbool "peek equals bulk" true (Bytes.equal bulk peek);
  check cbool "chunked equals bulk" true (Bytes.equal bulk chunked)

let test_top_of_guest_phys () =
  let env = boot_env () in
  let mem = hyp_mem_of env in
  let top = Vmsh.Hyp_mem.top_of_guest_phys mem in
  check cint "top is RAM end" (64 * 1024 * 1024) top;
  Vmsh.Hyp_mem.add_slot mem
    { Vmsh.Hyp_mem.slot = 61; gpa = 1 lsl 30; size = 4096; hva = 0 };
  check cint "top follows new slot" ((1 lsl 30) + 4096)
    (Vmsh.Hyp_mem.top_of_guest_phys mem)

(* --- symbol analysis --- *)

let cr3_of g = (Kvm.Vm.vcpu_regs (List.hd (Kvm.Vm.vcpus (Guest.vm g)))).X86.Regs.cr3

let analyze env =
  let _, _, g = env in
  Vmsh.Symbol_analysis.analyze (hyp_mem_of env) ~cr3:(cr3_of g)

let boot_version version =
  let h = H.Host.create ~seed:(70 + Hashtbl.hash version) () in
  let backend = Blockdev.Backend.create ~blocks:1024 () in
  let fs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev backend) ()) in
  ignore (Sfs.mkdir_p fs "/dev");
  Sfs.sync fs;
  let vmm = Vmm.create h ~profile:Hypervisor.Profile.qemu ~disk:backend () in
  (h, vmm, Vmm.boot vmm ~version)

let test_analysis_on_all_layouts () =
  List.iter
    (fun version ->
      let ((_, _, g) as env) = boot_version version in
      let v = KV.to_string version in
      match analyze env with
      | Error e -> Alcotest.failf "%s: %s" v e
      | Ok anal ->
          let open Vmsh.Symbol_analysis in
          check cbool (v ^ " layout") true
            (anal.layout = KV.ksymtab_layout version);
          check cbool (v ^ " version") true (KV.equal anal.version version);
          (* the guest image places .ksymtab_strings at 0x11_0000 and
             the table at 0x12_0000 *)
          let w = anal.witness in
          check cint (v ^ " table offset") 0x12_0000 w.w_table_off;
          let exports = Guest.exports g in
          let strings_len =
            List.fold_left (fun acc (n, _) -> acc + String.length n + 1) 0 exports
          in
          check cbool (v ^ " strings region covers the section") true
            (w.w_strings_lo <= 0x11_0000
            && w.w_strings_hi >= 0x11_0000 + strings_len);
          check cint (v ^ " symbol count") 194 (List.length anal.symbols);
          check cbool (v ^ " symbols = exports") true
            (List.sort compare anal.symbols = List.sort compare exports))
    KV.all_lts

(* A return to per-offset allocation in the scans (a list per probed
   offset, a substring per NUL) costs tens of millions of minor words
   per analysis, and a return to per-read allocation in the remote-copy
   path costs hundreds of thousands (486,766–494,409 before that path
   stopped allocating). An uncached analysis took 21,828–26,331 minor
   words on a settled heap before the one-pass scan and takes
   19,189–23,113 with it ([Alloc.minor_words]; the 2 MiB image copy is
   a major block, bounded by the next test). The bound is the largest,
   23,113, plus 25% (it was 33,664, which a list cell per top-byte
   candidate in the one-pass scan stayed under). *)
let test_analysis_allocation_bound () =
  List.iter
    (fun version ->
      let ((_, _, g) as env) = boot_version version in
      let mem = hyp_mem_of env and cr3 = cr3_of g in
      let r, words =
        Alloc.minor_words (fun () -> Vmsh.Symbol_analysis.analyze mem ~cr3)
      in
      check cbool (KV.to_string version ^ " analyzed") true (Result.is_ok r);
      if words > 1.25 *. 23_113. then
        Alcotest.failf "%s: uncached analysis allocated %.0f minor words"
          (KV.to_string version) words)
    KV.all_lts

(* The same uncached analysis counted on both heaps ([Alloc.words]).
   The minor-word bound above cannot see a 4 KiB page, which goes
   straight into the major heap. While a copy of a generated image page
   materialised the page, an analysis allocated 445,970-450,473 words
   and the VM kept the image's 320 pages for life. A copy now runs the
   generator into the caller's buffer: an analysis allocates
   283,974-288,477 words, most of them the 2 MiB copy of the kernel
   mapping itself, and the bound is the largest plus 25%. The one-pass
   scan takes 281,335-285,772. *)
let test_analysis_both_heaps_bound () =
  List.iter
    (fun version ->
      let ((_, _, g) as env) = boot_version version in
      let mem = hyp_mem_of env and cr3 = cr3_of g in
      let r, words =
        Alloc.words (fun () -> Vmsh.Symbol_analysis.analyze mem ~cr3)
      in
      check cbool (KV.to_string version ^ " analyzed") true (Result.is_ok r);
      if words > 1.25 *. 288_477. then
        Alcotest.failf "%s: uncached analysis allocated %.0f words"
          (KV.to_string version) words)
    KV.all_lts

(* The page-table walk that finds the kernel image: 4,099 8-byte
   remote reads on this 64 MiB guest, each through one reused buffer
   and a remote-copy path that allocates nothing per read. The walk
   allocates 7,251 words on every LTS kernel (48,241 when each read
   built its retry closure up front); the bound is that plus 25%. *)
let test_kernel_base_allocation_bound () =
  List.iter
    (fun version ->
      let ((_, _, g) as env) = boot_version version in
      let mem = hyp_mem_of env and cr3 = cr3_of g in
      let r, words =
        Alloc.words (fun () -> Vmsh.Symbol_analysis.find_kernel_base mem ~cr3)
      in
      check cbool (KV.to_string version ^ " found") true (Result.is_ok r);
      if words > 1.25 *. 7_251. then
        Alcotest.failf "%s: find_kernel_base allocated %.0f words"
          (KV.to_string version) words)
    KV.all_lts

(* The list-building scanner the allocation-free scans replaced — one
   fresh entry list per probed offset, a substring per NUL — kept as the
   reference they must agree with. *)
module Reference_scan = struct
  let anchor_symbol = "printk"
  let max_name_len = 64

  let printable c =
    let v = Char.code c in
    v >= 32 && v <= 126

  let expand_strings_region img pos =
    let n = Bytes.length img in
    let ok c = c = '\000' || printable c in
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

  let find_strings_region img =
    let pat = "\000" ^ anchor_symbol ^ "\000" in
    let s = Bytes.unsafe_to_string img in
    let rec find_from i acc =
      if i >= String.length s then List.rev acc
      else
        match String.index_from_opt s i '\000' with
        | None -> List.rev acc
        | Some j ->
            if
              j + String.length pat <= String.length s
              && String.sub s j (String.length pat) = pat
            then find_from (j + 1) ((j + 1) :: acc)
            else find_from (j + 1) acc
    in
    match find_from 0 [] with
    | [] ->
        Error
          (Printf.sprintf "anchor symbol %S not found in kernel image"
             anchor_symbol)
    | candidates ->
        let regions =
          List.map (fun pos -> expand_strings_region img pos) candidates
        in
        let best =
          List.fold_left
            (fun (blo, bhi) (lo, hi) ->
              if hi - lo > bhi - blo then (lo, hi) else (blo, bhi))
            (0, 0) regions
        in
        if snd best - fst best < 16 then Error "strings region too small"
        else Ok best

  let string_start img (lo, hi) off =
    off >= lo && off < hi
    && (off = lo || Bytes.get img (off - 1) = '\000')
    && printable (Bytes.get img off)

  let read_cstr img off =
    let n = Bytes.length img in
    let rec go i = if i >= n || Bytes.get img i = '\000' then i else go (i + 1) in
    Bytes.sub_string img off (go off - off)

  let entries_at img ~kbase ~region layout off =
    let n = Bytes.length img in
    let in_kernel va = va >= kbase && va < kbase + n in
    let esz = Linux_guest.Ksymtab.entry_size layout in
    let i64 o = Int64.to_int (Bytes.get_int64_le img o) in
    let i32 o = Int32.to_int (Bytes.get_int32_le img o) in
    let rec run o acc =
      if o + esz > n then List.rev acc
      else
        let value, name_va =
          match layout with
          | KV.Absolute_value_first -> (i64 o, i64 (o + 8))
          | KV.Absolute_name_first -> (i64 (o + 8), i64 o)
          | KV.Prel32 -> (kbase + o + i32 o, kbase + o + 4 + i32 (o + 4))
        in
        let name_off = name_va - kbase in
        if in_kernel value && string_start img region name_off then
          run (o + esz) ((read_cstr img name_off, value) :: acc)
        else List.rev acc
    in
    run off []

  let find_table img ~kbase ~region layout =
    let esz = Linux_guest.Ksymtab.entry_size layout in
    let n = Bytes.length img in
    let best = ref [] in
    let best_off = ref 0 in
    let o = ref 0 in
    while !o + esz <= n do
      let entries = entries_at img ~kbase ~region layout !o in
      if List.length entries > List.length !best then begin
        best := entries;
        best_off := !o;
        o := !o + (List.length entries * esz)
      end
      else o := !o + 8
    done;
    (!best_off, !best)
end

let layouts = [ KV.Absolute_value_first; KV.Absolute_name_first; KV.Prel32 ]

(* A block of [2 * m + 1] name pointers at [at]: since a name pointer
   is an in-kernel value too, every 8-byte phase of it reads as a run of
   16-byte [layout] entries. The phase-0 run is cut after [j] entries by
   an in-kernel pointer that is no name start (a name there, a value at
   the other phase), so the run at [at + 8] is the longer one. *)
let twin_runs ~int ~place ~starts ~at layout ~j ~m =
  let q = Array.init ((2 * m) + 1) (fun _ -> starts.(int (Array.length starts))) in
  let b = if layout = KV.Absolute_value_first then (2 * j) + 1 else 2 * j in
  q.(b) <- q.(b) + 1;
  let block = Bytes.create (8 * Array.length q) in
  Array.iteri (fun i v -> Bytes.set_int64_le block (8 * i) (Int64.of_int v)) q;
  place at block

(* A random-noise image with planted scanner structure, all drawn from
   [seed]. The noise is uniform or, in some images, half made of the
   anchor's own bytes, so the skip scan takes every shift of its table.
   Strings: a section holding the anchor, or (in some images) no anchor
   at all, or one only in a names block ending at the image's last
   byte, or only one squeezed between non-name bytes, or a second
   anchored section of a different or the same width; sometimes two
   overlapping anchors. Tables: one per layout at a random 4-byte
   phase, sometimes broken by an entry valid for another layout only; a
   shorter decoy run at another phase; a run hidden at the other phase
   of a shorter one that follows a new best run; a longer run at the
   other phase of one no better than the best, which starts exactly
   where the search resumes; and a table cut off by the image end.
   Returns the image and its virtual base. *)
let planted_image seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let n = 0x3000 + int 0x1000 in
  let rich = int 3 = 0 in
  let img =
    Bytes.init n (fun _ ->
        if rich && int 2 = 0 then "\000printk".[int 7] else Char.chr (int 256))
  in
  let kbase = 0x7fff_0000_0000 + (int 1024 * 4096) in
  let place off b =
    let len = min (Bytes.length b) (n - off) in
    Bytes.blit b 0 img off len
  in
  let pad off len = Bytes.fill img off (min len (n - off)) '\000' in
  let names k =
    List.init k (fun _ -> String.init (1 + int 12) (fun _ -> Char.chr (97 + int 26)))
  in
  let variant = int 8 in
  let strings_a =
    let ns = names (4 + int 36) in
    let ns =
      if variant <= 1 then ns
      else
        let i = int (List.length ns) in
        List.filteri (fun j _ -> j < i) ns
        @ [ Reference_scan.anchor_symbol ]
        @ List.filteri (fun j _ -> j >= i) ns
    in
    List.map (fun name -> { Linux_guest.Ksymtab.name; va = kbase + int n }) ns
  in
  let blob_a, offs_a = Linux_guest.Ksymtab.build_strings strings_a in
  pad (0x100 - 16) (Bytes.length blob_a + 32);
  place 0x100 blob_a;
  (match variant with
  | 1 ->
      (* an anchor with no room for a region around it *)
      place 0x700 (Bytes.of_string "\xff\000printk\000\xff")
  | 2 | 3 ->
      let blob_b =
        if variant = 2 then blob_a
        else
          fst
            (Linux_guest.Ksymtab.build_strings
               (List.map
                  (fun name -> { Linux_guest.Ksymtab.name; va = 0 })
                  (names (1 + int 50) @ [ Reference_scan.anchor_symbol ])))
      in
      pad (0x800 - 16) (Bytes.length blob_b + 32);
      place 0x800 blob_b
  | 4 | 5 ->
      (* two anchors sharing a NUL: the skip after the first match must
         still land on the second *)
      place 0x2ea0 (Bytes.of_string "\xff\000printk\000printk\000\xff")
  | _ -> ());
  let table layout ~off syms =
    let tbl =
      Linux_guest.Ksymtab.build_table layout ~syms ~strings_va:(kbase + 0x100)
        ~table_va:(kbase + off) ~name_offsets:offs_a
    in
    place off tbl
  in
  let take k = List.filteri (fun j _ -> j < k) strings_a in
  let phase () = 4 * int 4 in
  let table_offs =
    List.mapi
      (fun i layout ->
        let off = 0x1000 + (i * 0x800) + phase () in
        table layout ~off strings_a;
        off)
      layouts
  in
  (if int 2 = 0 then
     (* a decoy entry valid for another layout only, inside a table:
        it ends the table's run early, and a second run follows it *)
     let i = int 3 in
     let inner = List.nth layouts i and other = List.nth layouts ((i + 1 + int 2) mod 3) in
     let at =
       List.nth table_offs i
       + (int (List.length strings_a) * Linux_guest.Ksymtab.entry_size inner)
     in
     table other ~off:at (take 1));
  let decoy = List.nth layouts (int 3) in
  table decoy
    ~off:(0x2800 + phase ())
    (take (1 + int (List.length strings_a)));
  let starts = Array.of_list (List.map (fun (_, off) -> kbase + 0x100 + off) offs_a) in
  let k = List.length strings_a in
  (* at 0xc00, before any table: the phase-0 run is the first run, so
     the jump past this new best hides the longer run at the other
     phase *)
  let m = k + 1 + int 8 in
  twin_runs ~int ~place ~starts ~at:0xc00 (List.nth layouts (int 2)) ~j:(1 + int (m - 1)) ~m;
  (* at 0x2b00, after the tables: the phase-0 run is no longer than the
     best, so the search resumes 8 bytes on, exactly where the longer
     run starts *)
  twin_runs ~int ~place ~starts ~at:0x2b00 (List.nth layouts (int 2)) ~j:(1 + int k)
    ~m:(k + 10 + int 8);
  let cut = List.nth layouts (int 3) in
  table cut ~off:(n - 64 + (4 * int 12)) strings_a;
  if variant = 0 && int 2 = 0 then begin
    (* the only anchor, in a names block ending at the image's last
       byte: its window is the last one the scan may test *)
    let blob, _ =
      Linux_guest.Ksymtab.build_strings
        (List.map
           (fun name -> { Linux_guest.Ksymtab.name; va = 0 })
           (names (1 + int 4) @ [ Reference_scan.anchor_symbol ]))
    in
    place (n - Bytes.length blob) blob
  end;
  (img, kbase)

let prop_scans_match_reference =
  QCheck.Test.make ~name:"ksymtab scans equal the list-building reference"
    ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_bound (1 lsl 29)))
    (fun seed ->
      let img, kbase = planted_image seed in
      let scan = Vmsh.Symbol_analysis.scan_image img ~kbase in
      let expected = Reference_scan.find_strings_region img in
      if Vmsh.Symbol_analysis.strings_region scan <> expected then
        QCheck.Test.fail_reportf "strings region differs for seed %d" seed;
      let region =
        match expected with Ok r -> r | Error _ -> (0x100, 0x100 + 64)
      in
      let tables = Vmsh.Symbol_analysis.tables scan ~region in
      List.length tables = List.length layouts
      && List.for_all2
           (fun layout (l, off, entries) ->
             l = layout
             && (off, entries) = Reference_scan.find_table img ~kbase ~region layout)
           layouts tables)

(* Deterministic edge cases for the one-pass scan, each compared with
   [Reference_scan]. The pass loads the image's aligned 8-byte words
   and tests an anchor window only where a word holds a NUL; each case
   names the bug (planted in a scratch copy) that it catches:
   - the anchor window at every byte of a word, at 64 .. 79 and in the
     last windows (a NUL-test loop over bytes 0-6 or 1-7 of a word);
   - the anchor window at the last byte of an all-zero word (a zero
     word that tests no window);
   - a NUL followed by 'p' that fails later, ["\000print\000"] and
     ["\000printx\000"], before the real anchor or alone (a match taken
     on the NUL and 'p' alone);
   - a word holding a second NUL that starts the anchor (a word that
     tests only its first NUL);
   - the last window of an image whose length is no multiple of 8 (a
     window bound at the last whole word);
   - a ksymtab entry right after a 3-entry run, named and with its
     word's top byte right for the layout, whose value is one past the
     image's end or one before its base (a value test that takes
     [kbase + n] or [kbase - 1]).
   Two equally wide sections must resolve to the first, and a 3-entry
   run of each layout is found at every offset of two words, at offset
   64 and ending at the image's last byte. Image lengths cover every
   residue mod 8. *)
let test_scan_edge_cases () =
  let kbase = 0x7fff_0040_0000 in
  let noise n seed =
    let st = Random.State.make [| n; seed |] in
    Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))
  in
  (* "\000" then [names] NUL-terminated, at [off]: the names and their
     image offsets, and the blob's length *)
  let plant_names img off names =
    let blob, offs =
      Linux_guest.Ksymtab.build_strings
        (List.map (fun name -> { Linux_guest.Ksymtab.name; va = 0 }) names)
    in
    Bytes.set img off '\000';
    Bytes.blit blob 0 img (off + 1) (Bytes.length blob);
    (List.map (fun (name, o) -> (name, off + 1 + o)) offs, 1 + Bytes.length blob)
  in
  let layout_name = function
    | KV.Absolute_value_first -> "value-first"
    | KV.Absolute_name_first -> "name-first"
    | KV.Prel32 -> "prel32"
  in
  let scan img = Vmsh.Symbol_analysis.scan_image img ~kbase in
  let compare_scans what img =
    let expected = Reference_scan.find_strings_region img in
    let scan = scan img in
    if Vmsh.Symbol_analysis.strings_region scan <> expected then
      Alcotest.failf "%s: strings region differs from the reference" what;
    let region = match expected with Ok r -> r | Error _ -> (0, 0) in
    List.iter2
      (fun layout (l, off, entries) ->
        if l <> layout
           || (off, entries) <> Reference_scan.find_table img ~kbase ~region layout
        then Alcotest.failf "%s: %s table differs from the reference" what
               (layout_name layout))
      layouts
      (Vmsh.Symbol_analysis.tables scan ~region)
  in
  let strings_region img = Vmsh.Symbol_analysis.strings_region (scan img) in
  let anchor = Reference_scan.anchor_symbol in
  (* compare, then require the region around the anchor window at [w] *)
  let expect_anchor what img w =
    compare_scans what img;
    match strings_region img with
    | Ok (lo, hi) when lo <= w + 1 && w + 1 < hi -> ()
    | _ -> Alcotest.failf "%s: the planted anchor's region was not found" what
  in
  (* the anchor's window (the NUL before it) at [w] of an [n]-byte
     image, with names on each side where they fit *)
  let anchor_case n w =
    let img = noise n w in
    let before = if w >= 12 then [ "alpha"; "beta" ] else [] in
    let after = if w + 8 + 12 <= n then [ "gamma"; "delta" ] else [] in
    let lead = List.fold_left (fun acc s -> acc + String.length s + 1) 0 before in
    let _ = plant_names img (w - lead) (before @ [ anchor ] @ after) in
    let what = Printf.sprintf "n=%d, anchor window at %d" n w in
    if n >= 0x800 then expect_anchor what img w else compare_scans what img
  in
  (* the anchor alone, its window at the last byte of an all-zero word
     at [o] *)
  let zero_word_case n o =
    let img = noise n o in
    Bytes.fill img o 8 '\000';
    let rest = anchor ^ "\000omega\000" in
    Bytes.blit_string rest 0 img (o + 8) (String.length rest);
    expect_anchor (Printf.sprintf "n=%d, anchor after a zero word at %d" n o) img (o + 7)
  in
  (* [decoy] (a NUL, 'p' and a near miss) at [d], alone or before the
     anchor at [w] *)
  let near_miss_case n decoy d w =
    let what = Printf.sprintf "n=%d, %S at %d" n decoy d in
    let img = noise n d in
    Bytes.blit_string decoy 0 img d (String.length decoy);
    compare_scans (what ^ " alone") img;
    if Result.is_ok (strings_region img) then
      Alcotest.failf "%s alone: a near miss was taken for the anchor" what;
    let _ = plant_names img (w - 6) [ "alpha"; anchor; "beta" ] in
    expect_anchor (Printf.sprintf "%s, anchor at %d" what w) img w
  in
  (* a word at [o] whose byte [first] is a NUL ending a name and whose
     byte [k > first] starts the anchor's window *)
  let second_nul_case n o first k =
    let img = noise n (o + k) in
    let names =
      "alpha\000" ^ String.make (k - first - 1) 'q' ^ "\000" ^ anchor
      ^ "\000gamma\000"
    in
    Bytes.blit_string names 0 img (o + first - 5) (String.length names);
    expect_anchor
      (Printf.sprintf "n=%d, NULs at %d and %d" n (o + first) (o + k))
      img (o + k)
  in
  (* two equally wide sections, fenced by non-name bytes: one at 64 and
     one whose anchor window is [w]; the first must win the tie *)
  let tie_case n w =
    let img = noise n (w + 3) in
    let fenced at =
      let lead = String.length "alpha" + 1 in
      Bytes.set img (at - lead - 1) '\xff';
      let _, len = plant_names img (at - lead) [ "alpha"; anchor; "beta" ] in
      Bytes.set img (at - lead + len) '\xff'
    in
    fenced 64;
    fenced w;
    let what = Printf.sprintf "n=%d, tied sections at 64 and %d" n w in
    compare_scans what img;
    match strings_region img with
    | Ok (lo, _) when lo < 64 -> ()
    | _ -> Alcotest.failf "%s: the first of two equal regions must win" what
  in
  (* a strings section at 16, and a 3-entry [layout] run at [at];
     [extra] may rewrite the image after the run is planted *)
  let table_case ?(extra = fun _ _ -> ()) n at layout =
    let img = noise n (at + 7) in
    let names, _ = plant_names img 16 [ "alpha"; anchor; "beta"; "gamma" ] in
    let syms =
      List.map
        (fun (name, _) -> { Linux_guest.Ksymtab.name; va = kbase + 8 })
        (List.filter (fun (name, _) -> name <> anchor) names)
    in
    let tbl =
      Linux_guest.Ksymtab.build_table layout ~syms ~strings_va:kbase
        ~table_va:(kbase + at) ~name_offsets:names
    in
    Bytes.blit tbl 0 img at (Bytes.length tbl);
    extra img (List.assoc "beta" names);
    let what = Printf.sprintf "n=%d, %s run at %d" n (layout_name layout) at in
    compare_scans what img;
    (* starts are tried every 8 bytes, so only an aligned run counts *)
    if at mod 8 = 0 then
      let region = Result.get_ok (strings_region img) in
      let _, off, entries =
        List.find
          (fun (l, _, _) -> l = layout)
          (Vmsh.Symbol_analysis.tables (scan img) ~region)
      in
      if off <> at || List.length entries <> 3 then
        Alcotest.failf "%s: the planted run was not found" what
  in
  (* the entry after a run at [at] names "beta" and has the value
     [value]: a fourth entry in all but its value *)
  let out_of_range_case n at layout value =
    let esz = Linux_guest.Ksymtab.entry_size layout in
    let o = at + (3 * esz) in
    let extra img beta =
      let set64 off v = Bytes.set_int64_le img off (Int64.of_int v) in
      let set32 off v = Bytes.set_int32_le img off (Int32.of_int v) in
      match layout with
      | KV.Absolute_value_first -> set64 o value; set64 (o + 8) (kbase + beta)
      | KV.Absolute_name_first -> set64 o (kbase + beta); set64 (o + 8) value
      | KV.Prel32 ->
          set32 o (value - (kbase + o));
          set32 (o + 4) (beta - (o + 4))
    in
    table_case ~extra n at layout
  in
  List.iter
    (fun n ->
      let last = n - 8 in
      for w = 64 to 79 do
        anchor_case n w
      done;
      for w = last - 15 to last do
        anchor_case n w
      done;
      anchor_case n 1;
      zero_word_case n 0x400;
      zero_word_case n (last - 15 - ((last - 15) mod 8));
      near_miss_case n "\000print\000" 0x300 0x500;
      near_miss_case n "\000printx\000" 0x307 0x507;
      List.iter
        (fun (first, k) -> second_nul_case n 0x400 first k)
        [ (0, 2); (1, 7); (3, 5); (0, 7) ];
      tie_case n 0x400;
      tie_case n (last - 16);
      List.iter
        (fun layout ->
          let run = 3 * Linux_guest.Ksymtab.entry_size layout in
          for at = 0x400 to 0x40f do
            table_case n at layout
          done;
          table_case n 64 layout;
          table_case n (n - run) layout;
          out_of_range_case n 0x400 layout (kbase + n);
          out_of_range_case n 0x400 layout (kbase - 1))
        layouts)
    [ 0x800; 0x801; 0x802; 0x803; 0x804; 0x805; 0x806; 0x807; 0x80f ];
  (* images too short for every window *)
  List.iter
    (fun n -> compare_scans (Printf.sprintf "%d-byte image" n) (noise n 1))
    [ 0; 1; 7; 8; 9; 15; 16; 17 ];
  anchor_case 8 0;
  anchor_case 9 1

let test_analysis_fails_without_kernel () =
  (* a VM whose page tables map nothing in the KASLR range *)
  let ((h, vmm, g) as env) = boot_env () in
  ignore h;
  ignore vmm;
  ignore g;
  let mem = hyp_mem_of env in
  (* hand the analyzer a CR3 pointing at an empty table *)
  let empty_root = 0x3f_0000 in
  Vmsh.Hyp_mem.write_phys mem ~gpa:empty_root (Bytes.make 4096 '\000');
  match Vmsh.Symbol_analysis.analyze mem ~cr3:empty_root with
  | Ok _ -> Alcotest.fail "analysis must fail"
  | Error e -> check cbool "mentions KASLR" true (String.length e > 0)

let test_analysis_resolve () =
  let env = boot_env () in
  match analyze env with
  | Error e -> Alcotest.fail e
  | Ok anal ->
      check cbool "printk found" true
        (Vmsh.Symbol_analysis.resolve anal "printk" <> None);
      check cbool "unknown is None" true
        (Vmsh.Symbol_analysis.resolve anal "no_such_symbol_anywhere" = None)

(* --- klib builder --- *)

let test_builder_output_is_valid_elf () =
  let image, layout =
    Vmsh.Klib_builder.build ~version:KV.V5_10
      ~guest_program:(Bytes.of_string "#!prog") ~pci:false
      (Test_pins.placements ~pci:false)
  in
  let bytes = Elfkit.Elf.to_bytes image in
  (match Elfkit.Elf.of_bytes bytes with
  | Ok parsed ->
      check cbool "imports subset" true
        (List.for_all
           (fun s -> List.mem s Vmsh.Klib_builder.required_imports)
           (Elfkit.Elf.undefined_symbols parsed))
  | Error e -> Alcotest.fail e);
  check cbool "status page is page aligned" true
    (layout.Vmsh.Klib_builder.status_off mod 4096 = 0);
  check cbool "status beyond text" true
    (layout.Vmsh.Klib_builder.status_off >= layout.Vmsh.Klib_builder.text_len)

let test_builder_abi_differs_by_version () =
  let img_old, _ =
    Vmsh.Klib_builder.build ~version:KV.V4_4 ~guest_program:(Bytes.of_string "p")
      ~pci:false (Test_pins.placements ~pci:false)
  in
  let img_new, _ =
    Vmsh.Klib_builder.build ~version:KV.V5_10 ~guest_program:(Bytes.of_string "p")
      ~pci:false (Test_pins.placements ~pci:false)
  in
  check cbool "different text for different ABIs" false
    (Bytes.equal img_old.Elfkit.Elf.text img_new.Elfkit.Elf.text)

let test_builder_links_cleanly () =
  let image, _ =
    Vmsh.Klib_builder.build ~version:KV.V4_19 ~guest_program:(Bytes.of_string "p")
      ~pci:false (Test_pins.placements ~pci:false)
  in
  let resolve name =
    (* fake kernel addresses *)
    let addrs =
      List.mapi (fun i n -> (n, 0x7fff_1000_0000 + (i * 64)))
        Vmsh.Klib_builder.required_imports
    in
    List.assoc_opt name addrs
  in
  match Elfkit.Elf.link image ~base:0x7fff_2000_0000 ~resolve with
  | Ok (text, entry) ->
      check cint "entry at base" 0x7fff_2000_0000 entry;
      check cbool "text non-empty" true (Bytes.length text > 0)
  | Error e -> Alcotest.fail e

(* --- shell --- *)

let test_shell_exec_basics () =
  let _, vmm, g = boot_env () in
  let proc = Guest.init_proc g in
  let out = Vmm.in_guest vmm (fun () -> Vmsh.Shell.exec g proc "help") in
  check cbool "help text" true (String.length out > 20);
  let out = Vmm.in_guest vmm (fun () -> Vmsh.Shell.exec g proc "frobnicate") in
  check cbool "unknown command" true
    (String.length out > 0 && out.[String.length out - 1] = '\n')

let test_shell_ps_and_write () =
  let _, vmm, g = boot_env () in
  let proc = Guest.init_proc g in
  let out = Vmm.in_guest vmm (fun () -> Vmsh.Shell.exec g proc "ps") in
  check cbool "init listed" true
    (try ignore (Str.search_forward (Str.regexp_string "init") out 0); true
     with Not_found -> false);
  ignore (Vmm.in_guest vmm (fun () -> Vmsh.Shell.exec g proc "write /note hello world"));
  let out = Vmm.in_guest vmm (fun () -> Vmsh.Shell.exec g proc "cat /note") in
  check cstr "write then cat" "hello world" out

let test_shell_mkpasswd_deterministic () =
  check cstr "stable"
    (Vmsh.Shell.mkpasswd ~user:"root" ~password:"pw")
    (Vmsh.Shell.mkpasswd ~user:"root" ~password:"pw");
  check cbool "password-sensitive" true
    (Vmsh.Shell.mkpasswd ~user:"root" ~password:"a"
    <> Vmsh.Shell.mkpasswd ~user:"root" ~password:"b")

(* --- overlay namespace setup (without a full attach) --- *)

let test_overlay_setup_namespace () =
  let _, vmm, g = boot_env () in
  let image_backend = Blockdev.Backend.create ~blocks:256 () in
  let image_fs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev image_backend) ()) in
  ignore (Sfs.write_file image_fs "/tool" (Bytes.of_string "tool!"));
  let proc = Vmm.in_guest vmm (fun () -> Guest.spawn_proc g ~name:"vmsh-overlay" ()) in
  let result =
    Vmm.in_guest vmm (fun () ->
        Vmsh.Overlay.setup_namespace g proc Vmsh.Overlay.default_cfg ~image_fs)
  in
  (match result with Ok () -> () | Error e -> Alcotest.fail e);
  let vfs = Guest.vfs g in
  check cstr "image visible at /" "tool!"
    (Bytes.to_string
       (Result.get_ok
          (Vmm.in_guest vmm (fun () ->
               Vfs.read_file vfs ~ns:proc.Linux_guest.Gproc.mnt_ns "/tool"))))
  [@@warning "-26"]

let test_overlay_missing_container () =
  let _, vmm, g = boot_env () in
  let image_backend = Blockdev.Backend.create ~blocks:256 () in
  let image_fs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev image_backend) ()) in
  let proc = Vmm.in_guest vmm (fun () -> Guest.spawn_proc g ~name:"vmsh-overlay" ()) in
  let result =
    Vmm.in_guest vmm (fun () ->
        Vmsh.Overlay.setup_namespace g proc
          { Vmsh.Overlay.container_pid = Some 9999; command = None }
          ~image_fs)
  in
  match result with
  | Ok () -> Alcotest.fail "must fail for unknown container"
  | Error e -> check cbool "names the pid" true (String.length e > 0)

let test_program_bytes_distinct_per_cfg () =
  let a = Vmsh.Overlay.program_bytes Vmsh.Overlay.default_cfg in
  let b =
    Vmsh.Overlay.program_bytes
      { Vmsh.Overlay.container_pid = Some 3; command = None }
  in
  check cbool "configs hash differently" false (Bytes.equal a b);
  (* the interpreter reads the cfg back from the bytes alone *)
  List.iter
    (fun cfg ->
      check cbool "parses back" true
        (Vmsh.Overlay.cfg_of_program (Vmsh.Overlay.program_bytes cfg) = Some cfg))
    [
      Vmsh.Overlay.default_cfg;
      { Vmsh.Overlay.container_pid = Some 3; command = None };
      { Vmsh.Overlay.container_pid = None; command = Some "cat /etc/hostname" };
      { Vmsh.Overlay.container_pid = Some 42; command = Some "echo a  b\nc" };
      { Vmsh.Overlay.container_pid = None; command = Some "-" };
      { Vmsh.Overlay.container_pid = None; command = Some "\\x" };
      { Vmsh.Overlay.container_pid = Some 7; command = Some "-v\n-" };
      { Vmsh.Overlay.container_pid = None; command = None };
    ];
  check cstr "an absent command is written as -"
    "#!vmsh-guest-program v1\ncontainer=-\ncommand=-\n"
    (Bytes.to_string (Vmsh.Overlay.program_bytes Vmsh.Overlay.default_cfg));
  check cbool "other bytes are no program" true
    (Vmsh.Overlay.cfg_of_program (Bytes.of_string "#!/bin/sh\necho hi\n") = None)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "vmsh.memslots",
      [
        t "codec" test_memslot_codec;
        t "rejects garbage" test_memslot_decode_rejects_garbage;
      ] );
    ( "vmsh.hyp_mem",
      [
        t "phys rw" test_hyp_mem_reads_guest_phys;
        t "virt translation" test_hyp_mem_virt_translation;
        t "copy modes agree" test_hyp_mem_copy_modes_agree;
        t "top of phys" test_top_of_guest_phys;
      ] );
    ( "vmsh.symbol_analysis",
      [
        t "all layouts" test_analysis_on_all_layouts;
        t "uncached analysis allocation bound" test_analysis_allocation_bound;
        QCheck_alcotest.to_alcotest prop_scans_match_reference;
        t "scan edge cases" test_scan_edge_cases;
        t "kernel base allocation bound" test_kernel_base_allocation_bound;
        t "no kernel" test_analysis_fails_without_kernel;
        t "resolve" test_analysis_resolve;
        t "uncached analysis, both heaps" test_analysis_both_heaps_bound;
      ] );
    ( "vmsh.klib_builder",
      [
        t "valid elf" test_builder_output_is_valid_elf;
        t "abi per version" test_builder_abi_differs_by_version;
        t "links cleanly" test_builder_links_cleanly;
      ] );
    ( "vmsh.shell",
      [
        t "exec basics" test_shell_exec_basics;
        t "ps + write" test_shell_ps_and_write;
        t "mkpasswd" test_shell_mkpasswd_deterministic;
      ] );
    ( "vmsh.overlay",
      [
        t "setup namespace" test_overlay_setup_namespace;
        t "missing container" test_overlay_missing_container;
        t "program bytes per cfg" test_program_bytes_distinct_per_cfg;
      ] );
  ]
