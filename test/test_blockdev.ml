(* Unit and property tests for the block layer and SimpleFS. *)

module H = Hostos
module Dev = Blockdev.Dev
module Backend = Blockdev.Backend
module Sfs = Blockdev.Simplefs
module Image = Blockdev.Image

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let fresh_fs ?(blocks = 1024) () =
  let b = Backend.create ~blocks () in
  match Sfs.mkfs (Backend.dev b) () with
  | Ok fs -> (b, fs)
  | Error _ -> Alcotest.fail "mkfs"

(* --- Dev --- *)

let test_dev_ranges () =
  let b = Backend.create ~blocks:8 () in
  let d = Backend.dev b in
  Dev.write_range d ~off:1000 (Bytes.of_string "cross-block-data") ~len:16;
  check cstr "range roundtrip" "cross-block-data"
    (Bytes.to_string (Dev.read_range d ~off:1000 ~len:16));
  (* unaligned write crossing a block boundary *)
  Dev.write_range d ~off:4090 (Bytes.of_string "0123456789AB") ~len:12;
  check cstr "boundary crossing" "0123456789AB"
    (Bytes.to_string (Dev.read_range d ~off:4090 ~len:12));
  (* only the first [len] bytes of the source are written *)
  Dev.write_range d ~off:8192 (Bytes.of_string "keep-rest") ~len:4;
  check cstr "length-taking write" "keep\000"
    (Bytes.to_string (Dev.read_range d ~off:8192 ~len:5));
  (* a whole-block range lands at the start of the caller's buffer *)
  let dst = Bytes.make 4100 '#' in
  Dev.read_range_into d ~off:4090 dst ~len:12;
  check cstr "read into" "0123456789AB#" (Bytes.sub_string dst 0 13)

let test_dev_sub_window () =
  let b = Backend.create ~blocks:16 () in
  let d = Backend.dev b in
  let sub = Dev.sub d ~first_block:4 ~blocks:4 in
  sub.Dev.write_block 0 (Bytes.make 4096 'S');
  check cint "sub maps to parent block 4" (Char.code 'S')
    (Char.code (Bytes.get (d.Dev.read_block 4) 0));
  Alcotest.check_raises "oversized sub" (Invalid_argument "Dev.sub: out of range")
    (fun () -> ignore (Dev.sub d ~first_block:14 ~blocks:4));
  (* an index outside the window never reaches a parent block *)
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let blk = Bytes.make 4096 'X' in
  raises "read past the window" (fun () -> ignore (sub.Dev.read_block 4));
  raises "read before the window" (fun () -> ignore (sub.Dev.read_block (-1)));
  raises "write past the window" (fun () -> sub.Dev.write_block 4 blk);
  raises "read_into past the window" (fun () -> sub.Dev.read_into 4 blk 0);
  raises "write_from past the window" (fun () -> sub.Dev.write_from 4 blk 0);
  check cint "parent block 8 untouched" 0
    (Char.code (Bytes.get (d.Dev.read_block 8) 0));
  (* a trim is clamped to the window *)
  for i = 3 to 8 do
    d.Dev.write_block i (Bytes.make 4096 'T')
  done;
  sub.Dev.trim 2 100;
  let first_byte i = Bytes.get (d.Dev.read_block i) 0 in
  check cbool "blocks before the window kept" true (first_byte 3 = 'T');
  check cbool "window head kept" true (first_byte 5 = 'T');
  check cbool "window tail trimmed" true
    (first_byte 6 = '\000' && first_byte 7 = '\000');
  check cbool "blocks past the window kept" true (first_byte 8 = 'T');
  sub.Dev.trim (-2) 3;
  check cbool "a trim from before the window starts at its head" true
    (first_byte 3 = 'T' && first_byte 4 = '\000' && first_byte 5 = 'T')

let test_backend_stats_and_trim () =
  let b = Backend.create ~blocks:8 () in
  let d = Backend.dev b in
  d.Dev.write_block 2 (Bytes.make 4096 'x');
  ignore (d.Dev.read_block 2);
  d.Dev.trim 2 1;
  let s = Backend.stats b in
  check cint "writes" 1 s.Backend.writes;
  check cint "reads" 1 s.Backend.reads;
  check cint "trims" 1 s.Backend.trims;
  check cint "trimmed reads zero" 0 (Char.code (Bytes.get (d.Dev.read_block 2) 0))

let test_backend_charges_clock () =
  let clock = H.Clock.create () in
  let b = Backend.create ~clock ~blocks:8 () in
  let d = Backend.dev b in
  ignore (d.Dev.read_block 0);
  check cbool "device op charged" true ((H.Clock.counters clock).H.Clock.device_ops = 1)

(* --- Simplefs --- *)

let test_fs_persistence_across_mount () =
  let b, fs = fresh_fs () in
  ignore (Sfs.mkdir_p fs "/a/b/c");
  (match Sfs.write_file fs "/a/b/c/file" (Bytes.of_string "deep") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" H.Errno.pp e);
  Sfs.sync fs;
  match Sfs.mount (Backend.dev b) with
  | Error _ -> Alcotest.fail "remount"
  | Ok fs2 -> (
      match Sfs.read_file fs2 "/a/b/c/file" with
      | Ok bts -> check cstr "deep file" "deep" (Bytes.to_string bts)
      | Error e -> Alcotest.failf "read: %a" H.Errno.pp e)

let test_fs_mount_rejects_unformatted () =
  let b = Backend.create ~blocks:64 () in
  match Sfs.mount (Backend.dev b) with
  | Ok _ -> Alcotest.fail "mounted garbage"
  | Error H.Errno.EINVAL -> ()
  | Error e -> Alcotest.failf "wrong errno: %a" H.Errno.pp e

let test_fs_indirect_boundaries () =
  let _, fs = fresh_fs ~blocks:4096 () in
  let ino =
    match Sfs.create fs "/big" with Ok i -> i | Error _ -> Alcotest.fail "create"
  in
  (* write one byte exactly at the direct->indirect boundary and at the
     indirect->double-indirect boundary *)
  let direct_limit = 12 * 4096 in
  let indirect_limit = (12 + 512) * 4096 in
  List.iter
    (fun off ->
      match Sfs.write fs ino ~off (Bytes.of_string "B") with
      | Ok 1 -> ()
      | Ok _ | Error _ -> Alcotest.failf "write at %d failed" off)
    [ direct_limit - 1; direct_limit; indirect_limit - 1; indirect_limit ];
  List.iter
    (fun off ->
      match Sfs.read fs ino ~off ~len:1 with
      | Ok b when Bytes.to_string b = "B" -> ()
      | _ -> Alcotest.failf "read at %d failed" off)
    [ direct_limit - 1; direct_limit; indirect_limit - 1; indirect_limit ]

let test_fs_truncate_zeroes_partial_tail () =
  let _, fs = fresh_fs () in
  let ino =
    match Sfs.create fs "/t" with Ok i -> i | Error _ -> Alcotest.fail "create"
  in
  ignore (Sfs.write fs ino ~off:0 (Bytes.make 8192 'D'));
  ignore (Sfs.truncate fs "/t" 100);
  ignore (Sfs.truncate fs "/t" 8192);
  match Sfs.read fs ino ~off:100 ~len:100 with
  | Ok b ->
      check cbool "tail zeroed" true (Bytes.for_all (fun c -> c = '\000') b)
  | Error e -> Alcotest.failf "read: %a" H.Errno.pp e

let test_fs_statfs_accounting () =
  let _, fs = fresh_fs () in
  let before = (Sfs.statfs fs).Sfs.f_bfree in
  let ino =
    match Sfs.create fs "/x" with Ok i -> i | Error _ -> Alcotest.fail "create"
  in
  ignore (Sfs.write fs ino ~off:0 (Bytes.make (10 * 4096) 'x'));
  let after = (Sfs.statfs fs).Sfs.f_bfree in
  check cbool "at least 10 blocks consumed" true (before - after >= 10)

let test_fs_quota_unsupported () =
  let _, fs = fresh_fs () in
  match Sfs.quota_report fs with
  | Error H.Errno.ENOSYS -> ()
  | _ -> Alcotest.fail "quota must be ENOSYS"

let test_fs_chmod_chown_mtime () =
  let _, fs = fresh_fs () in
  ignore (Sfs.create fs "/f");
  ignore (Sfs.chmod fs "/f" 0o600);
  ignore (Sfs.chown fs "/f" ~uid:42 ~gid:43);
  ignore (Sfs.set_mtime fs "/f" 123456);
  match Sfs.stat fs "/f" with
  | Ok st ->
      check cint "mode" 0o600 st.Sfs.st_mode;
      check cint "uid" 42 st.Sfs.st_uid;
      check cint "gid" 43 st.Sfs.st_gid;
      check cint "mtime" 123456 st.Sfs.st_mtime
  | Error e -> Alcotest.failf "stat: %a" H.Errno.pp e

(* --- block buffers under a second task --- *)

(* [dev] with a second task cut in: on the [nth] write to block [blk],
   [side ()] runs before the write reaches the device, as another guest
   task runs on the same file system while this one is parked in a
   device op. [fired] reports whether it ran. *)
let cut_in dev ~blk ~nth side =
  let seen = ref 0 and fired = ref false in
  let at i =
    if i = blk then begin
      incr seen;
      if !seen = nth then begin
        fired := true;
        side ()
      end
    end
  in
  ( {
      dev with
      Dev.write_block = (fun i b -> at i; dev.Dev.write_block i b);
      write_from = (fun i src off -> at i; dev.Dev.write_from i src off);
    },
    fired )

(* Used blocks per the on-disk bitmap (bitmap start and length from the
   superblock, so [sync] first). *)
let bitmap_used dev ~blocks =
  let sb = dev.Dev.read_block 0 in
  let start = Int64.to_int (Bytes.get_int64_le sb 24) in
  let nbits = 8 * dev.Dev.block_size in
  let used = ref 0 in
  for blk = 0 to blocks - 1 do
    let b = dev.Dev.read_block (start + (blk / nbits)) in
    let bit = blk mod nbits in
    if Char.code (Bytes.get b (bit / 8)) land (1 lsl (bit mod 8)) <> 0 then
      incr used
  done;
  !used

(* A 13-block-and-a-bit file /a is written while a second task writes
   /b. On a fresh file system /a's blocks go in order from the first
   data block [d]: the root directory's at [d], the 12 direct blocks at
   [d+1 .. d+12], the indirect block at [d+13], then data at [d+14] and
   the partial last block at [d+15]. The second task cuts in at the
   indirect block's zero fill (its first write) and at the partial last
   block's read-modify-write (the second write of [d+15]); in both, /a's
   buffer holds bytes still to be written. Both files must read back
   exactly, before and after a remount, and the bitmap must agree with
   the free count, also after /a is unlinked. *)
let test_fs_second_task_buffers () =
  let a = Image.synthetic_content ~path:"/a" ((13 * 4096) + 100) in
  let b = Image.synthetic_content ~path:"/b" ((3 * 4096) + 50) in
  List.iter
    (fun (what, delta, nth) ->
      let backend = Backend.create ~blocks:1024 () in
      let raw = Backend.dev backend in
      let d =
        match Sfs.mkfs raw () with
        | Ok fs -> (Sfs.statfs fs).Sfs.f_blocks - (Sfs.statfs fs).Sfs.f_bfree
        | Error _ -> Alcotest.fail "mkfs"
      in
      let fs_cell = ref None in
      let dev, fired =
        cut_in raw ~blk:(d + delta) ~nth (fun () ->
            match Sfs.write_file (Option.get !fs_cell) "/b" (Bytes.of_string b) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: /b: %a" what H.Errno.pp e)
      in
      let fs = match Sfs.mkfs dev () with Ok fs -> fs | Error _ -> Alcotest.fail "mkfs" in
      fs_cell := Some fs;
      (match Sfs.write_file fs "/a" (Bytes.of_string a) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: /a: %a" what H.Errno.pp e);
      check cbool (what ^ ": the second task ran") true !fired;
      Sfs.sync fs;
      let reads_back fs label =
        List.iter
          (fun (path, want) ->
            match Sfs.read_file fs path with
            | Ok got -> check cbool (Printf.sprintf "%s: %s %s" what label path) true
                          (Bytes.to_string got = want)
            | Error e -> Alcotest.failf "%s: read %s: %a" what path H.Errno.pp e)
          [ ("/a", a); ("/b", b) ]
      in
      reads_back fs "reads back";
      (match Sfs.mount raw with
      | Ok fs2 -> reads_back fs2 "after remount"
      | Error _ -> Alcotest.fail "remount");
      let agrees label =
        Sfs.sync fs;
        let st = Sfs.statfs fs in
        check cint
          (Printf.sprintf "%s: bitmap agrees with the free count %s" what label)
          (st.Sfs.f_blocks - st.Sfs.f_bfree)
          (bitmap_used raw ~blocks:st.Sfs.f_blocks)
      in
      agrees "after both writes";
      (* freeing /a walks every pointer in its indirect block *)
      (match Sfs.unlink fs "/a" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: unlink /a: %a" what H.Errno.pp e);
      agrees "after unlinking /a";
      check cbool (what ^ ": /b survives /a") true
        (Sfs.read_file fs "/b" = Ok (Bytes.of_string b)))
    [ ("indirect zero fill", 13, 1); ("partial last block", 15, 2) ]

(* property: random op sequences against a model (assoc list of path ->
   content) stay consistent *)
let prop_fs_model =
  let open QCheck in
  let op_gen =
    Gen.(
      let name = map (Printf.sprintf "/f%d") (int_range 0 5) in
      frequency
        [
          (4, map2 (fun p c -> `Write (p, c)) name (string_size (int_range 0 2000)));
          (2, map (fun p -> `Read p) name);
          (2, map (fun p -> `Delete p) name);
          (1, map2 (fun a b -> `Rename (a, b)) name name);
        ])
  in
  Test.make ~name:"simplefs matches a model under random ops" ~count:60
    (make Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let _, fs = fresh_fs () in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          match op with
          | `Write (p, c) -> (
              match Sfs.write_file fs p (Bytes.of_string c) with
              | Ok () ->
                  Hashtbl.replace model p c;
                  true
              | Error _ -> false)
          | `Read p -> (
              let expected = Hashtbl.find_opt model p in
              match (Sfs.read_file fs p, expected) with
              | Ok b, Some c -> Bytes.to_string b = c
              | Error H.Errno.ENOENT, None -> true
              | _ -> false)
          | `Delete p -> (
              let existed = Hashtbl.mem model p in
              match (Sfs.unlink fs p, existed) with
              | Ok (), true ->
                  Hashtbl.remove model p;
                  true
              | Error H.Errno.ENOENT, false -> true
              | _ -> false)
          | `Rename (a, b) -> (
              match Hashtbl.find_opt model a with
              | None -> (
                  match Sfs.rename fs ~src:a ~dst:b with
                  | Error H.Errno.ENOENT -> true
                  | _ -> false)
              | Some content -> (
                  match Sfs.rename fs ~src:a ~dst:b with
                  | Ok () ->
                      Hashtbl.remove model a;
                      Hashtbl.replace model b content;
                      true
                  | Error _ -> a = b)))
        ops)

(* --- Image --- *)

let test_image_pack_contents () =
  let manifest =
    [
      Image.file ~content:"hello tools" "/bin/tool" 11;
      Image.file "/usr/lib/big.so" 20000;
    ]
  in
  match Image.pack manifest with
  | Error e -> Alcotest.failf "pack: %a" H.Errno.pp e
  | Ok (_, fs) -> (
      (match Sfs.read_file fs "/bin/tool" with
      | Ok b -> check cstr "explicit content" "hello tools" (Bytes.to_string b)
      | Error _ -> Alcotest.fail "read tool");
      match Sfs.stat fs "/usr/lib/big.so" with
      | Ok st -> check cint "synthetic size" 20000 st.Sfs.st_size
      | Error _ -> Alcotest.fail "stat big.so")

let test_image_strip () =
  let manifest =
    [ Image.file "/keep/me" 100; Image.file "/drop/me" 100; Image.file "/keep/too" 50 ]
  in
  let stripped =
    Image.strip manifest ~keep:(fun p -> String.length p >= 5 && String.sub p 0 5 = "/keep")
  in
  check cint "kept entries" 2 (List.length stripped);
  check cint "kept bytes" 150 (Image.total_size stripped)

let test_image_synthetic_deterministic () =
  check cstr "same path same bytes"
    (Image.synthetic_content ~path:"/a" 64)
    (Image.synthetic_content ~path:"/a" 64);
  check cbool "different paths differ" true
    (Image.synthetic_content ~path:"/a" 64 <> Image.synthetic_content ~path:"/b" 64)

(* The filler builds one 128-byte period and doubles it; every size,
   short of a period, at one, just past one and over many, must read
   as the per-byte formula. *)
let test_image_synthetic_formula () =
  List.iter
    (fun size ->
      let path = "/usr/lib/x" in
      let seed = Hashtbl.hash path in
      check cbool
        (Printf.sprintf "%d bytes" size)
        true
        (String.equal
           (String.init size (fun i -> Char.chr ((seed + (i * 131)) land 0x7f)))
           (Image.synthetic_content ~path size)))
    [ 0; 1; 127; 128; 129; 4097; 800_000 ]

(* The tools image vmsh-blk serves, pinned byte for byte: a change to
   the filler or the packer must show up here first. *)
let test_tools_image_golden () =
  let b = Fleet.Machine.tools_image (Hostos.Clock.create ()) in
  let m = Blockdev.Backend.mem b in
  check cint "image length" 1_134_592 (Hostos.Mem.length m);
  check cstr "image digest" "354abc3c521c6c3875599ec2a9c512c0"
    (Digest.to_hex (Digest.bytes (Hostos.Mem.read_bytes m 0 (Hostos.Mem.length m))))

(* --- Frozen images and their instances --- *)

let tools_manifest = [ Image.file "/bin/busybox" 800_000 ]

let nested_manifest =
  [
    Image.file ~content:"#!/bin/sh\necho hi\n" "/usr/local/bin/hello" 19;
    Image.file "/usr/lib/x86_64/libbig.so" 70_000;
    Image.file ~content:"v1\n" "/etc/deep/er/still/release" 3;
    Image.file "/usr/local/share/blob" 4096;
  ]

let freeze_ok m =
  match Image.freeze m with
  | Ok f -> f
  | Error e -> Alcotest.failf "freeze: %a" H.Errno.pp e

let image_bytes b = H.Mem.freeze (Backend.mem b)

(* An instance is a fresh pack in every observable: bytes, stats, the
   exact clock (bit for bit, from a non-round start) and counters, and
   a file system that reads every file back. *)
let test_instance_is_a_pack () =
  List.iter
    (fun (name, m) ->
      let start () =
        let c = H.Clock.create () in
        H.Clock.advance c 1234.5678;
        c
      in
      let pack_clock = start () and inst_clock = start () in
      let packed =
        match Image.pack ~clock:pack_clock m with
        | Ok (b, _) -> b
        | Error e -> Alcotest.failf "%s: pack: %a" name H.Errno.pp e
      in
      let inst = Image.instance ~clock:inst_clock (freeze_ok m) in
      check cbool (name ^ ": same bytes") true
        (Bytes.equal (image_bytes packed) (image_bytes inst));
      check cbool (name ^ ": same stats") true
        (Backend.stats packed = Backend.stats inst);
      check Alcotest.int64 (name ^ ": same clock, bit for bit")
        (Int64.bits_of_float (H.Clock.now_ns pack_clock))
        (Int64.bits_of_float (H.Clock.now_ns inst_clock));
      check cbool (name ^ ": same counters") true
        (H.Clock.snapshot pack_clock = H.Clock.snapshot inst_clock);
      match Sfs.mount (Backend.dev inst) with
      | Error e -> Alcotest.failf "%s: mount: %a" name H.Errno.pp e
      | Ok fs ->
          List.iter
            (fun { Image.path; size; content } ->
              let want =
                match content with
                | Some c -> c
                | None -> Image.synthetic_content ~path size
              in
              match Sfs.read_file fs path with
              | Ok got ->
                  check cstr (name ^ ": " ^ path) want (Bytes.to_string got)
              | Error err ->
                  Alcotest.failf "%s: read %s: %a" name path H.Errno.pp err)
            m)
    [ ("tools", tools_manifest); ("nested", nested_manifest) ]

(* A write and a trim through one instance stay in that instance: a
   sibling, a later instance and the frozen bytes (as a fresh pack
   shows them) never see either. *)
let test_instances_are_isolated () =
  let frozen = freeze_ok nested_manifest in
  let pristine =
    match Image.pack nested_manifest with
    | Ok (b, _) -> image_bytes b
    | Error e -> Alcotest.failf "pack: %a" H.Errno.pp e
  in
  let instance () = Image.instance ~clock:(H.Clock.create ()) frozen in
  let a = instance () and sibling = instance () in
  let d = Backend.dev a in
  let last = d.Dev.blocks - 1 in
  d.Dev.write_block 1 (Bytes.make d.Dev.block_size 'W');
  d.Dev.trim 2 (last - 1);
  check cbool "the writer sees its write" true
    (Bytes.get (d.Dev.read_block 1) 0 = 'W');
  check cbool "the writer sees its trim" true
    (Bytes.for_all (fun c -> c = '\000') (d.Dev.read_block 3));
  check cbool "the write and trim changed the instance" false
    (Bytes.equal (image_bytes a) pristine);
  check cbool "sibling unchanged" true
    (Bytes.equal (image_bytes sibling) pristine);
  check cbool "later instance unchanged" true
    (Bytes.equal (image_bytes (instance ())) pristine)

(* A fresh pack of the tools manifest, pinned: its device ops, the
   virtual ns they charge and the image bytes. Pooled block buffers
   and the uncopied content must leave all three as they were. *)
let test_pack_pinned () =
  let clock = H.Clock.create () in
  match Image.pack ~extra_blocks:64 ~clock tools_manifest with
  | Error e -> Alcotest.failf "pack: %a" H.Errno.pp e
  | Ok (b, _) ->
      let s = Backend.stats b in
      check cint "reads" 638 s.Backend.reads;
      check cint "writes" 820 s.Backend.writes;
      check cint "flushes" 1 s.Backend.flushes;
      check cint "trims" 0 s.Backend.trims;
      check (Alcotest.float 0.) "virtual ns" 3_939_300. (H.Clock.now_ns clock);
      check cstr "image digest" "354abc3c521c6c3875599ec2a9c512c0"
        (Digest.to_hex (Digest.bytes (image_bytes b)))

(* What packing the tools image and formatting a boot disk allocate,
   bounded at the measured count plus 25% (236,951 and 15,064 words): a
   fresh 4 KiB block per metadata read took 551,708 and 76,914 words. *)
let test_fs_allocation_bounds () =
  let pack () = ignore (Image.pack ~extra_blocks:64 tools_manifest) in
  pack ();
  let _, words = Alloc.words pack in
  if words > 1.25 *. 236_951. then
    Alcotest.failf "packing the tools image allocated %.0f words" words;
  let h = H.Host.create () in
  ignore (Fleet.Machine.boot_disk h ~hostname:"warm");
  let _, words =
    Alloc.words (fun () -> Fleet.Machine.boot_disk h ~hostname:"vm-1")
  in
  if words > 1.25 *. 15_064. then
    Alcotest.failf "a boot disk allocated %.0f words" words

(* A warm [tools_image] shares the frozen pack: it allocates a backend
   and a page table, 305 words, not 800 KB of image (a fresh pack
   allocates about 230 k words, most of them straight into the
   major heap). The bound is the measured count plus 25%. *)
let test_warm_tools_image_allocation_bound () =
  ignore (Fleet.Machine.tools_image (H.Clock.create ()));
  let clock = H.Clock.create () in
  let _, words = Alloc.words (fun () -> Fleet.Machine.tools_image clock) in
  if words > 1.25 *. 305. then
    Alcotest.failf "a warm tools image allocated %.0f words" words

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "blockdev.dev",
      [
        t "byte ranges" test_dev_ranges;
        t "sub windows" test_dev_sub_window;
        t "stats + trim" test_backend_stats_and_trim;
        t "clock charges" test_backend_charges_clock;
      ] );
    ( "blockdev.simplefs",
      [
        t "persistence across mount" test_fs_persistence_across_mount;
        t "rejects unformatted" test_fs_mount_rejects_unformatted;
        t "indirect boundaries" test_fs_indirect_boundaries;
        t "truncate zeroes tail" test_fs_truncate_zeroes_partial_tail;
        t "statfs accounting" test_fs_statfs_accounting;
        t "quota ENOSYS" test_fs_quota_unsupported;
        t "chmod/chown/mtime" test_fs_chmod_chown_mtime;
        t "a second task cuts in mid-operation" test_fs_second_task_buffers;
        QCheck_alcotest.to_alcotest prop_fs_model;
      ] );
    ( "blockdev.image",
      [
        t "pack contents" test_image_pack_contents;
        t "strip" test_image_strip;
        t "synthetic deterministic" test_image_synthetic_deterministic;
        t "synthetic content follows its formula" test_image_synthetic_formula;
        t "tools image golden bytes" test_tools_image_golden;
        t "an instance is a pack" test_instance_is_a_pack;
        t "instances are isolated" test_instances_are_isolated;
        t "warm tools image allocation bound"
          test_warm_tools_image_allocation_bound;
        t "a fresh pack is pinned" test_pack_pinned;
        t "pack and boot disk allocation bounds" test_fs_allocation_bounds;
      ] );
  ]
