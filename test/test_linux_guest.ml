(* Unit tests for the synthetic guest kernel's building blocks. *)

module H = Hostos
module KV = Linux_guest.Kernel_version
module Ksymtab = Linux_guest.Ksymtab
module Klib = Linux_guest.Klib
module Vfs = Linux_guest.Vfs
module Page_cache = Linux_guest.Page_cache
module Gproc = Linux_guest.Gproc

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

(* --- kernel versions --- *)

let test_version_banner_roundtrip () =
  List.iter
    (fun v ->
      match KV.of_banner (KV.banner v) with
      | Some v' -> check cbool (KV.to_string v) true (KV.equal v v')
      | None -> Alcotest.failf "banner of %s unparseable" (KV.to_string v))
    KV.all_lts

let test_version_layout_epochs () =
  check cbool "4.4 absolute" true (KV.ksymtab_layout KV.V4_4 = KV.Absolute_value_first);
  check cbool "4.14 swapped" true (KV.ksymtab_layout KV.V4_14 = KV.Absolute_name_first);
  check cbool "5.10 prel32" true (KV.ksymtab_layout KV.V5_10 = KV.Prel32);
  (* the layout changed exactly twice across the LTS line *)
  let layouts = List.map KV.ksymtab_layout (List.rev KV.all_lts) in
  let changes =
    List.fold_left
      (fun (prev, n) l -> (Some l, if prev = Some l || prev = None then n else n + 1))
      (None, 0) layouts
    |> snd
  in
  check cint "changed twice" 2 changes

let test_version_rw_abi_split () =
  check cbool "4.9 old" true (KV.rw_abi KV.V4_9 = KV.Rw_old);
  check cbool "4.14 new" true (KV.rw_abi KV.V4_14 = KV.Rw_new)

(* --- ksymtab encoding --- *)

let sample_syms =
  [
    { Ksymtab.name = "alpha"; va = 0x7fff_0000_1000 };
    { Ksymtab.name = "beta"; va = 0x7fff_0000_2000 };
    { Ksymtab.name = "gamma_function"; va = 0x7fff_0000_3000 };
  ]

let test_ksymtab_strings () =
  let strings, offsets = Ksymtab.build_strings sample_syms in
  check cint "alpha at 0" 0 (List.assoc "alpha" offsets);
  check cint "beta after alpha+NUL" 6 (List.assoc "beta" offsets);
  check cstr "nul separated" "alpha\000beta\000gamma_function\000"
    (Bytes.to_string strings)

let test_ksymtab_absolute_layout () =
  let strings_va = 0x7fff_0010_0000 and table_va = 0x7fff_0020_0000 in
  let _, offsets = Ksymtab.build_strings sample_syms in
  let table =
    Ksymtab.build_table KV.Absolute_value_first ~syms:sample_syms ~strings_va
      ~table_va ~name_offsets:offsets
  in
  check cint "entry size 16" 16 (Ksymtab.entry_size KV.Absolute_value_first);
  let v0 = Int64.to_int (Bytes.get_int64_le table 0) in
  let n0 = Int64.to_int (Bytes.get_int64_le table 8) in
  check cint "value first" 0x7fff_0000_1000 v0;
  check cint "name pointer" strings_va n0;
  (* name-first epoch swaps the fields *)
  let table' =
    Ksymtab.build_table KV.Absolute_name_first ~syms:sample_syms ~strings_va
      ~table_va ~name_offsets:offsets
  in
  check cint "swapped value" 0x7fff_0000_1000
    (Int64.to_int (Bytes.get_int64_le table' 8))

let test_ksymtab_prel32_layout () =
  let strings_va = 0x7fff_0010_0000 and table_va = 0x7fff_0020_0000 in
  let _, offsets = Ksymtab.build_strings sample_syms in
  let table =
    Ksymtab.build_table KV.Prel32 ~syms:sample_syms ~strings_va ~table_va
      ~name_offsets:offsets
  in
  check cint "entry size 8" 8 (Ksymtab.entry_size KV.Prel32);
  (* decoding entry 1 by hand: offsets are relative to the field *)
  let value_off = Int32.to_int (Bytes.get_int32_le table 8) in
  let name_off = Int32.to_int (Bytes.get_int32_le table 12) in
  check cint "value recovers" 0x7fff_0000_2000 (table_va + 8 + value_off);
  check cint "name recovers" (strings_va + 6) (table_va + 12 + name_off)

(* The per-symbol [List.assoc] lookup [build_table] once made, kept as
   the reference it must agree with: the first binding of a name wins. *)
let reference_build_table layout ~syms ~strings_va ~table_va ~name_offsets =
  let esz = Ksymtab.entry_size layout in
  let b = Bytes.make (esz * List.length syms) '\000' in
  List.iteri
    (fun i s ->
      let name_va = strings_va + List.assoc s.Ksymtab.name name_offsets in
      let base = i * esz in
      match layout with
      | KV.Absolute_value_first ->
          Bytes.set_int64_le b base (Int64.of_int s.va);
          Bytes.set_int64_le b (base + 8) (Int64.of_int name_va)
      | KV.Absolute_name_first ->
          Bytes.set_int64_le b base (Int64.of_int name_va);
          Bytes.set_int64_le b (base + 8) (Int64.of_int s.va)
      | KV.Prel32 ->
          Bytes.set_int32_le b base (Int32.of_int (s.va - (table_va + base)));
          Bytes.set_int32_le b (base + 4)
            (Int32.of_int (name_va - (table_va + base + 4))))
    syms;
  b

(* Symbols drawn from a small pool, so names repeat; [name_offsets]
   binds every name, shuffled out of [syms]' order, plus extra bindings
   of pool names at other offsets, some of them ahead of the first. *)
let prop_build_table_reference =
  QCheck.Test.make ~name:"build_table equals the List.assoc reference"
    ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_bound (1 lsl 29)))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pool = [| "printk"; "kmalloc"; "a"; "bb"; "d_path"; "x_1"; "z" |] in
      let pick () = pool.(Random.State.int st (Array.length pool)) in
      let syms =
        List.init (Random.State.int st 40) (fun _ ->
            {
              Ksymtab.name = pick ();
              va = 0x7fff_0000_0000 + Random.State.int st 0x10_0000;
            })
      in
      let offset () = Random.State.int st 0x1000 in
      let bindings =
        List.map (fun s -> (s.Ksymtab.name, offset ())) syms
        @ List.init (Random.State.int st 10) (fun _ -> (pick (), offset ()))
      in
      let name_offsets =
        List.map (fun b -> (Random.State.bits st, b)) bindings
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let strings_va = 0x7fff_0010_0000 and table_va = 0x7fff_0020_0000 in
      List.for_all
        (fun layout ->
          Bytes.equal
            (Ksymtab.build_table layout ~syms ~strings_va ~table_va
               ~name_offsets)
            (reference_build_table layout ~syms ~strings_va ~table_va
               ~name_offsets))
        [ KV.Absolute_value_first; KV.Absolute_name_first; KV.Prel32 ])

let test_noise_avoids_reserved () =
  let rng = H.Rng.create ~seed:5 in
  let noise =
    Ksymtab.noise_symbols rng ~version:KV.V5_10 ~count:200
      ~text_va:0x7fff_0000_0000 ~text_size:0x100000
  in
  check cint "count" 200 (List.length noise);
  check cbool "no reserved names" true
    (List.for_all
       (fun s -> not (List.mem s.Ksymtab.name [ "printk"; "kernel_read"; "linux_banner" ]))
       noise)

(* --- klib bytecode --- *)

let interp ?(mem_size = 4096) ops ~call =
  let mem = H.Mem.create mem_size in
  let code = Klib.encode ops in
  H.Mem.write_bytes mem 0 code;
  let env =
    {
      Klib.read = (fun ~va ~len -> H.Mem.read_bytes mem va len);
      write = (fun ~va b -> H.Mem.write_bytes mem va b);
      call;
      restore_regs = (fun () -> ());
    }
  in
  (mem, fun () -> Klib.execute env ~entry:0)

let test_klib_calls_and_stack () =
  let calls = ref [] in
  let mem, run =
    interp
      [
        Klib.Tramp;
        Klib.Push 7;
        Klib.Push 35;
        Klib.Push 0xF00;
        Klib.Call 2;
        (* store result at 0x800 *)
        Klib.Push 0x800;
        Klib.Swap;
        Klib.Write64;
        Klib.Ret;
      ]
      ~call:(fun ~addr ~args ->
        calls := (addr, args) :: !calls;
        List.fold_left ( + ) 0 args)
  in
  run ();
  check cbool "one call" true (!calls = [ (0xF00, [ 7; 35 ]) ]);
  check cint "result stored" 42 (H.Mem.read_u64 mem 0x800)

let test_klib_branches () =
  (* Jz taken and not taken; Jneg on a negative call result *)
  let mem, run =
    interp
      [
        Klib.Tramp;
        Klib.Push 0;
        Klib.Jz 5;
        (* skipped *)
        Klib.Trap 1;
        Klib.Trap 2;
        (* target: *)
        Klib.Push 0xF00;
        Klib.Call 0;
        Klib.Jneg 10;
        Klib.Trap 3;
        Klib.Trap 4;
        (* error path: write marker *)
        Klib.Push 0x800;
        Klib.Push 0x77;
        Klib.Write64;
        Klib.Ret;
      ]
      ~call:(fun ~addr:_ ~args:_ -> -5)
  in
  run ();
  check cint "error path taken" 0x77 (H.Mem.read_u64 mem 0x800)

let test_klib_faults () =
  (* bad opcode *)
  let mem = H.Mem.create 4096 in
  H.Mem.write_u8 mem 0 0xff;
  let env =
    {
      Klib.read = (fun ~va ~len -> H.Mem.read_bytes mem va len);
      write = (fun ~va b -> H.Mem.write_bytes mem va b);
      call = (fun ~addr:_ ~args:_ -> 0);
      restore_regs = (fun () -> ());
    }
  in
  (match Klib.execute env ~entry:0 with
  | () -> Alcotest.fail "should fault"
  | exception Klib.Fault _ -> ());
  (* infinite loop hits the budget *)
  let _, run = interp [ Klib.Tramp; Klib.Jmp 1 ] ~call:(fun ~addr:_ ~args:_ -> 0) in
  match run () with
  | () -> Alcotest.fail "loop should fault"
  | exception Klib.Fault msg ->
      check cbool "mentions budget" true
        (String.length msg > 0)

let test_klib_stack_underflow () =
  let _, run = interp [ Klib.Tramp; Klib.Write64; Klib.Ret ]
      ~call:(fun ~addr:_ ~args:_ -> 0)
  in
  match run () with
  | () -> Alcotest.fail "should fault"
  | exception Klib.Fault _ -> ()

(* --- VFS namespaces --- *)

let mem_fs () =
  let b = Blockdev.Backend.create ~blocks:256 () in
  Result.get_ok (Blockdev.Simplefs.mkfs (Blockdev.Backend.dev b) ())

let test_vfs_longest_prefix () =
  let vfs, ns = Vfs.create () in
  let root = mem_fs () and var = mem_fs () in
  ignore (Blockdev.Simplefs.write_file root "/x" (Bytes.of_string "root"));
  ignore (Blockdev.Simplefs.write_file var "/x" (Bytes.of_string "var"));
  Vfs.mount vfs ~ns ~at:"/" ~source:"rootdev" (Vfs.Simple root);
  Vfs.mount vfs ~ns ~at:"/var" ~source:"vardev" (Vfs.Simple var);
  check cstr "root mount" "root"
    (Bytes.to_string (Result.get_ok (Vfs.read_file vfs ~ns "/x")));
  check cstr "longest prefix wins" "var"
    (Bytes.to_string (Result.get_ok (Vfs.read_file vfs ~ns "/var/x")))

let test_vfs_namespace_isolation () =
  let vfs, ns1 = Vfs.create () in
  let fs = mem_fs () in
  Vfs.mount vfs ~ns:ns1 ~at:"/" ~source:"dev" (Vfs.Simple fs);
  let ns2 = Vfs.new_namespace vfs ~from:ns1 in
  (* unmounting in ns2 must not affect ns1 *)
  (match Vfs.umount vfs ~ns:ns2 ~at:"/" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "umount");
  check cbool "ns1 still mounted" true (Vfs.mounts vfs ~ns:ns1 <> []);
  check cbool "ns2 empty" true (Vfs.mounts vfs ~ns:ns2 = [])

let test_vfs_overlay_relocation () =
  let vfs, ns = Vfs.create () in
  let orig = mem_fs () and image = mem_fs () in
  ignore (Blockdev.Simplefs.mkdir_p orig "/etc");
  ignore (Blockdev.Simplefs.write_file orig "/etc/passwd" (Bytes.of_string "guest"));
  ignore (Blockdev.Simplefs.write_file image "/tool" (Bytes.of_string "busybox"));
  Vfs.mount vfs ~ns ~at:"/" ~source:"vda" (Vfs.Simple orig);
  let overlay_ns = Vfs.new_namespace vfs ~from:ns in
  Vfs.move_mounts_under vfs ~ns:overlay_ns ~prefix:"/var/lib/vmsh";
  Vfs.mount vfs ~ns:overlay_ns ~at:"/" ~source:"vmsh-blk" (Vfs.Simple image);
  check cstr "image at root" "busybox"
    (Bytes.to_string (Result.get_ok (Vfs.read_file vfs ~ns:overlay_ns "/tool")));
  check cstr "guest under prefix" "guest"
    (Bytes.to_string
       (Result.get_ok (Vfs.read_file vfs ~ns:overlay_ns "/var/lib/vmsh/etc/passwd")));
  (* the original namespace is untouched *)
  check cstr "original ns intact" "guest"
    (Bytes.to_string (Result.get_ok (Vfs.read_file vfs ~ns "/etc/passwd")))

let test_vfs_pseudo () =
  let vfs, ns = Vfs.create () in
  Vfs.mount vfs ~ns ~at:"/proc" ~source:"proc"
    (Vfs.Pseudo (fun () -> [ ("1/comm", "init"); ("2/comm", "kthreadd") ]));
  check cstr "pseudo read" "init"
    (Bytes.to_string (Result.get_ok (Vfs.read_file vfs ~ns "/proc/1/comm")));
  check cbool "pseudo write refused" true
    (Vfs.write_file vfs ~ns "/proc/1/comm" Bytes.empty = Error H.Errno.EACCES)

(* --- page cache --- *)

let test_cache_write_back_and_flush () =
  let clock = H.Clock.create () in
  let cache = Page_cache.create ~clock ~capacity_blocks:64 in
  let backend = Blockdev.Backend.create ~blocks:16 () in
  let dev = Blockdev.Backend.dev backend in
  let cached = Page_cache.wrap cache ~dev_id:1 dev in
  cached.Blockdev.Dev.write_block 3 (Bytes.make 4096 'W');
  (* write-back: the device has not seen it yet *)
  check cint "no device write yet" 0 (Blockdev.Backend.stats backend).Blockdev.Backend.writes;
  Page_cache.flush cache;
  check cbool "flushed to device" true
    ((Blockdev.Backend.stats backend).Blockdev.Backend.writes >= 1);
  check cint "content" (Char.code 'W') (Char.code (Bytes.get (dev.Blockdev.Dev.read_block 3) 0))

let test_cache_eviction_writes_back () =
  let clock = H.Clock.create () in
  let cache = Page_cache.create ~clock ~capacity_blocks:4 in
  let backend = Blockdev.Backend.create ~blocks:32 () in
  let cached = Page_cache.wrap cache ~dev_id:1 (Blockdev.Backend.dev backend) in
  for i = 0 to 9 do
    cached.Blockdev.Dev.write_block i (Bytes.make 4096 (Char.chr (65 + i)))
  done;
  (* capacity 4 forced evictions; every evicted block must be on disk *)
  Page_cache.flush cache;
  let dev = Blockdev.Backend.dev backend in
  for i = 0 to 9 do
    check cint
      (Printf.sprintf "block %d" i)
      (65 + i)
      (Char.code (Bytes.get (dev.Blockdev.Dev.read_block i) 0))
  done

let test_cache_bypass_coherent () =
  let clock = H.Clock.create () in
  let cache = Page_cache.create ~clock ~capacity_blocks:16 in
  let backend = Blockdev.Backend.create ~blocks:8 () in
  let cached = Page_cache.wrap cache ~dev_id:1 (Blockdev.Backend.dev backend) in
  cached.Blockdev.Dev.write_block 1 (Bytes.make 4096 'D');
  (* dirty in cache; a direct read must still see it *)
  Page_cache.bypass cache (fun () ->
      check cint "direct read sees dirty data" (Char.code 'D')
        (Char.code (Bytes.get (cached.Blockdev.Dev.read_block 1) 0)))

let test_cache_readahead_batches () =
  let clock = H.Clock.create () in
  let cache = Page_cache.create ~clock ~capacity_blocks:128 in
  let backend = Blockdev.Backend.create ~blocks:64 () in
  let dev = Blockdev.Backend.dev backend in
  let bulk_calls = ref 0 in
  let bulk ~first ~count =
    incr bulk_calls;
    Blockdev.Dev.read_range dev ~off:(first * 4096) ~len:(count * 4096)
  in
  let cached = Page_cache.wrap ~bulk_read:bulk cache ~dev_id:1 dev in
  for i = 0 to 31 do
    ignore (cached.Blockdev.Dev.read_block i)
  done;
  check cint "one bulk fetch for the window" 1 !bulk_calls;
  let s = Page_cache.stats cache in
  check cint "one miss" 1 s.Page_cache.misses;
  check cint "rest were hits" 31 s.Page_cache.hits

(* --- guest processes --- *)

let test_container_caps_subset () =
  check cbool "container caps are a subset" true
    (List.for_all
       (fun c -> List.mem c Gproc.full_caps)
       Gproc.container_caps);
  check cbool "strictly smaller" true
    (List.length Gproc.container_caps < List.length Gproc.full_caps)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "guest.versions",
      [
        t "banner roundtrip" test_version_banner_roundtrip;
        t "layout epochs" test_version_layout_epochs;
        t "rw abi split" test_version_rw_abi_split;
      ] );
    ( "guest.ksymtab",
      [
        t "strings" test_ksymtab_strings;
        t "absolute layouts" test_ksymtab_absolute_layout;
        t "prel32 layout" test_ksymtab_prel32_layout;
        t "noise avoids reserved" test_noise_avoids_reserved;
        QCheck_alcotest.to_alcotest prop_build_table_reference;
      ] );
    ( "guest.klib",
      [
        t "calls + stack" test_klib_calls_and_stack;
        t "branches" test_klib_branches;
        t "faults" test_klib_faults;
        t "stack underflow" test_klib_stack_underflow;
      ] );
    ( "guest.vfs",
      [
        t "longest prefix" test_vfs_longest_prefix;
        t "namespace isolation" test_vfs_namespace_isolation;
        t "overlay relocation" test_vfs_overlay_relocation;
        t "pseudo fs" test_vfs_pseudo;
      ] );
    ( "guest.page_cache",
      [
        t "write back + flush" test_cache_write_back_and_flush;
        t "eviction writes back" test_cache_eviction_writes_back;
        t "bypass coherent" test_cache_bypass_coherent;
        t "readahead batches" test_cache_readahead_batches;
      ] );
    ("guest.procs", [ t "container caps" test_container_caps_subset ]);
  ]
