module Sfs = Blockdev.Simplefs
module Errno = Hostos.Errno

type outcome = Pass | Fail of string | Skip of string

type features = { quota : bool; xfs_attrs : bool }

let native_features = { quota = true; xfs_attrs = false }
let simplefs_features = { quota = false; xfs_attrs = false }

type test = {
  id : string;
  group : string;
  run : Sfs.t -> features -> outcome;
}

type summary = {
  total : int;
  passed : int;
  failed : int;
  skipped : int;
  failures : (string * string) list;
}

let bs = Blockdev.Dev.block_size
let direct_limit = 12 * bs
let indirect_limit = (12 + (bs / 8)) * bs

(* deterministic content byte for (file-tag, absolute offset) *)
let pat tag off = Char.chr ((Hashtbl.hash tag + (off * 7)) land 0xff)

let pat_bytes tag ~off ~len = Bytes.init len (fun i -> pat tag (off + i))

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error e -> Fail (Printf.sprintf "unexpected errno %s" (Errno.show e))

let expect_errno expected r k =
  match r with
  | Error e when e = expected -> k ()
  | Error e ->
      Fail
        (Printf.sprintf "expected %s, got %s" (Errno.show expected)
           (Errno.show e))
  | Ok _ -> Fail (Printf.sprintf "expected %s, got success" (Errno.show expected))

let check_bytes ~what expected actual k =
  if Bytes.equal expected actual then k ()
  else Fail (what ^ ": data mismatch")

let verify fs ino ~tag ~off ~len k =
  let* data = Sfs.read fs ino ~off ~len in
  check_bytes ~what:(Printf.sprintf "verify@%d+%d" off len)
    (pat_bytes tag ~off ~len) data k

let mk group fam i run =
  { id = Printf.sprintf "%s/%s-%03d" group fam i; group; run }

(* --- family: basic operations (13) --- *)

let basic_tests =
  let t i run = mk "generic" "basic" i run in
  [
    t 0 (fun fs _ ->
        let* _ = Sfs.create fs "/a" in
        if Sfs.exists fs "/a" then Pass else Fail "created file not found");
    t 1 (fun fs _ ->
        let* ino = Sfs.create fs "/a" in
        let* n = Sfs.write fs ino ~off:0 (Bytes.of_string "hello") in
        if n = 5 then Pass else Fail "short write");
    t 2 (fun fs _ ->
        let* ino = Sfs.create fs "/a" in
        let* _ = Sfs.write fs ino ~off:0 (Bytes.of_string "hello") in
        let* b = Sfs.read fs ino ~off:0 ~len:5 in
        if Bytes.to_string b = "hello" then Pass else Fail "readback mismatch");
    t 3 (fun fs _ ->
        let* ino = Sfs.create fs "/a" in
        let* b = Sfs.read fs ino ~off:0 ~len:10 in
        if Bytes.length b = 0 then Pass else Fail "read of empty file not empty");
    t 4 (fun fs _ ->
        expect_errno Errno.ENOENT (Sfs.lookup fs "/missing") (fun () -> Pass));
    t 5 (fun fs _ ->
        let* _ = Sfs.create fs "/a" in
        expect_errno Errno.EEXIST (Sfs.create fs "/a") (fun () -> Pass));
    t 6 (fun fs _ ->
        let* _ = Sfs.mkdir fs "/d" in
        expect_errno Errno.EISDIR (Sfs.read_file fs "/d") (fun () -> Pass));
    t 7 (fun fs _ ->
        let* _ = Sfs.create fs "/f" in
        expect_errno Errno.ENOTDIR (Sfs.lookup fs "/f/child") (fun () -> Pass));
    t 8 (fun fs _ ->
        let* ino = Sfs.create fs "/a" in
        let* _ = Sfs.write fs ino ~off:0 (Bytes.make 100 'x') in
        let* st = Sfs.stat fs "/a" in
        if st.Sfs.st_size = 100 then Pass else Fail "size wrong after write");
    t 9 (fun fs _ ->
        let* st = Sfs.stat fs "/" in
        if st.Sfs.st_kind = Sfs.Dir then Pass else Fail "root is not a dir");
    t 10 (fun fs _ ->
        let* _ = Sfs.create fs "/a" in
        let* () = Sfs.unlink fs "/a" in
        if not (Sfs.exists fs "/a") then Pass else Fail "unlinked file remains");
    t 11 (fun fs _ ->
        let* ino = Sfs.create fs "/a" in
        (* read past EOF is a short read *)
        let* _ = Sfs.write fs ino ~off:0 (Bytes.make 10 'y') in
        let* b = Sfs.read fs ino ~off:5 ~len:100 in
        if Bytes.length b = 5 then Pass else Fail "read past EOF not short");
    t 12 (fun fs _ ->
        let* ino = Sfs.create fs "/a" in
        let* _ = Sfs.write fs ino ~off:0 (Bytes.make 10 'y') in
        let* b = Sfs.read fs ino ~off:100 ~len:10 in
        if Bytes.length b = 0 then Pass else Fail "read beyond EOF not empty");
  ]

(* --- families: boundary writes and reads (96 each) ---
   Offsets chosen to land on every structural edge of the on-disk
   format: block boundaries, the direct-block limit and the indirect
   limit. Sizes cross those same edges from within. *)

let boundary_offsets =
  [
    0; 1; bs - 1; bs; bs + 1; (2 * bs) - 1;
    direct_limit - bs; direct_limit - 1; direct_limit; direct_limit + 1;
    indirect_limit - 1; indirect_limit;
  ]

let boundary_sizes = [ 1; 2; 511; 512; bs - 1; bs; bs + 1; 3 * bs ]

let boundary_write_tests =
  List.concat
    (List.mapi
       (fun oi off ->
         List.mapi
           (fun si size ->
             mk "generic" "bwrite"
               ((oi * List.length boundary_sizes) + si)
               (fun fs _ ->
                 let tag = "bw" in
                 let* ino = Sfs.create fs "/bw" in
                 let* n = Sfs.write fs ino ~off (pat_bytes tag ~off ~len:size) in
                 if n <> size then Fail "short write"
                 else
                   let* st = Sfs.stat fs "/bw" in
                   if st.Sfs.st_size <> off + size then
                     Fail
                       (Printf.sprintf "size %d, expected %d" st.Sfs.st_size
                          (off + size))
                   else verify fs ino ~tag ~off ~len:size (fun () -> Pass)))
           boundary_sizes)
       boundary_offsets)

let boundary_read_tests =
  (* write a contiguous prefix first, then read across each edge *)
  List.concat
    (List.mapi
       (fun oi off ->
         List.mapi
           (fun si size ->
             mk "generic" "bread"
               ((oi * List.length boundary_sizes) + si)
               (fun fs _ ->
                 let tag = "br" in
                 let total = off + size in
                 let* ino = Sfs.create fs "/br" in
                 (* fill [0, total) in block-sized chunks *)
                 let rec fill pos =
                   if pos >= total then Pass
                   else
                     let len = min bs (total - pos) in
                     let* _ =
                       Sfs.write fs ino ~off:pos (pat_bytes tag ~off:pos ~len)
                     in
                     fill (pos + len)
                 in
                 (match fill 0 with
                 | Pass -> verify fs ino ~tag ~off ~len:size (fun () -> Pass)
                 | other -> other)))
           boundary_sizes)
       boundary_offsets)

(* --- family: sparse files (24) --- *)

let sparse_tests =
  let cases =
    [
      (bs, bs); (bs, 1); (3 * bs, bs); (direct_limit, bs);
      (direct_limit + bs, 2 * bs); (indirect_limit, bs);
      (2 * bs, bs - 1); ((5 * bs) + 7, 13); (direct_limit - 1, 2);
      (10 * bs, bs); (100 * bs, bs); ((direct_limit * 2) + 5, 100);
    ]
  in
  List.concat
    (List.mapi
       (fun i (hole_end, size) ->
         [
           mk "generic" "sparse" (2 * i) (fun fs _ ->
               (* hole reads as zeros *)
               let tag = "sp" in
               let* ino = Sfs.create fs "/sp" in
               let* _ =
                 Sfs.write fs ino ~off:hole_end (pat_bytes tag ~off:hole_end ~len:size)
               in
               let* hole = Sfs.read fs ino ~off:0 ~len:(min hole_end (4 * bs)) in
               if Bytes.exists (fun c -> c <> '\000') hole then
                 Fail "hole contains nonzero bytes"
               else Pass);
           mk "generic" "sparse" ((2 * i) + 1) (fun fs _ ->
               (* data after the hole is intact *)
               let tag = "sp2" in
               let* ino = Sfs.create fs "/sp2" in
               let* _ =
                 Sfs.write fs ino ~off:hole_end (pat_bytes tag ~off:hole_end ~len:size)
               in
               verify fs ino ~tag ~off:hole_end ~len:size (fun () -> Pass));
         ])
       cases)

(* --- family: truncate (60) --- *)

let truncate_tests =
  let initial = [ 0; 100; bs; (3 * bs) + 17; direct_limit + bs; indirect_limit + bs ]
  and target = [ 0; 1; bs; direct_limit; direct_limit + 1 ] in
  List.concat
    (List.mapi
       (fun ii init ->
         List.concat
           (List.mapi
              (fun ti tgt ->
                [
                  mk "generic" "trunc"
                    ((ii * List.length target * 2) + (2 * ti))
                    (fun fs _ ->
                      let tag = "tr" in
                      let* ino = Sfs.create fs "/tr" in
                      let rec fill pos =
                        if pos >= init then Ok ()
                        else
                          let len = min bs (init - pos) in
                          match
                            Sfs.write fs ino ~off:pos (pat_bytes tag ~off:pos ~len)
                          with
                          | Ok _ -> fill (pos + len)
                          | Error e -> Error e
                      in
                      let* () = fill 0 in
                      let* () = Sfs.truncate fs "/tr" tgt in
                      let* st = Sfs.stat fs "/tr" in
                      if st.Sfs.st_size <> tgt then Fail "size after truncate"
                      else Pass);
                  mk "generic" "trunc"
                    ((ii * List.length target * 2) + (2 * ti) + 1)
                    (fun fs _ ->
                      (* shrink then regrow: the regrown range must read
                         as zeros, never stale data *)
                      let tag = "tr2" in
                      let* ino = Sfs.create fs "/tr2" in
                      let rec fill pos =
                        if pos >= init then Ok ()
                        else
                          let len = min bs (init - pos) in
                          match
                            Sfs.write fs ino ~off:pos (pat_bytes tag ~off:pos ~len)
                          with
                          | Ok _ -> fill (pos + len)
                          | Error e -> Error e
                      in
                      let* () = fill 0 in
                      let* () = Sfs.truncate fs "/tr2" tgt in
                      let grow = tgt + (2 * bs) in
                      let* () = Sfs.truncate fs "/tr2" grow in
                      let* b = Sfs.read fs ino ~off:tgt ~len:(min (2 * bs) (grow - tgt)) in
                      if Bytes.exists (fun c -> c <> '\000') b then
                        Fail "stale data after shrink+regrow"
                      else Pass);
                ])
              target))
       initial)

(* --- family: append / rewrite (20) --- *)

let append_tests =
  List.init 10 (fun i ->
      let chunk = 17 + (i * 211) in
      mk "generic" "append" i (fun fs _ ->
          let tag = "ap" in
          let* ino = Sfs.create fs "/ap" in
          let rec go k off =
            if k = 0 then
              let* st = Sfs.stat fs "/ap" in
              if st.Sfs.st_size = off then
                verify fs ino ~tag ~off:0 ~len:off (fun () -> Pass)
              else Fail "append size drift"
            else
              let* _ = Sfs.write fs ino ~off (pat_bytes tag ~off ~len:chunk) in
              go (k - 1) (off + chunk)
          in
          go 8 0))
  @ List.init 10 (fun i ->
        let off = i * 577 in
        mk "generic" "rewrite" i (fun fs _ ->
            let* ino = Sfs.create fs "/rw" in
            let* _ = Sfs.write fs ino ~off:0 (Bytes.make (4 * bs) 'a') in
            let* _ = Sfs.write fs ino ~off (Bytes.make 1000 'b') in
            let* b = Sfs.read fs ino ~off ~len:1000 in
            if Bytes.for_all (fun c -> c = 'b') b then
              let* before = Sfs.read fs ino ~off:0 ~len:(min off (4 * bs)) in
              if Bytes.for_all (fun c -> c = 'a') before then Pass
              else Fail "rewrite damaged preceding data"
            else Fail "rewrite not visible"))

(* --- family: rename (34) --- *)

let rename_tests =
  let t i run = mk "generic" "rename" i run in
  let with_file fs path content k =
    let* ino = Sfs.create fs path in
    let* _ = Sfs.write fs ino ~off:0 (Bytes.of_string content) in
    k ino
  in
  [
    t 0 (fun fs _ ->
        with_file fs "/a" "data" (fun _ ->
            let* () = Sfs.rename fs ~src:"/a" ~dst:"/b" in
            if (not (Sfs.exists fs "/a")) && Sfs.exists fs "/b" then Pass
            else Fail "rename left wrong names"));
    t 1 (fun fs _ ->
        with_file fs "/a" "data" (fun _ ->
            let* () = Sfs.rename fs ~src:"/a" ~dst:"/b" in
            let* b = Sfs.read_file fs "/b" in
            if Bytes.to_string b = "data" then Pass else Fail "content lost"));
    t 2 (fun fs _ ->
        expect_errno Errno.ENOENT (Sfs.rename fs ~src:"/nope" ~dst:"/b")
          (fun () -> Pass));
    t 3 (fun fs _ ->
        with_file fs "/a" "new" (fun _ ->
            with_file fs "/b" "old" (fun _ ->
                let* () = Sfs.rename fs ~src:"/a" ~dst:"/b" in
                let* b = Sfs.read_file fs "/b" in
                if Bytes.to_string b = "new" then Pass
                else Fail "replace target kept old data")));
    t 4 (fun fs _ ->
        let* _ = Sfs.mkdir fs "/d" in
        with_file fs "/a" "x" (fun _ ->
            let* () = Sfs.rename fs ~src:"/a" ~dst:"/d/a" in
            if Sfs.exists fs "/d/a" then Pass else Fail "cross-dir rename"));
    t 5 (fun fs _ ->
        let* _ = Sfs.mkdir fs "/d" in
        let* _ = Sfs.mkdir fs "/d/sub" in
        with_file fs "/d/sub/f" "x" (fun _ ->
            let* () = Sfs.rename fs ~src:"/d/sub/f" ~dst:"/f" in
            if Sfs.exists fs "/f" then Pass else Fail "uplevel rename"));
    t 6 (fun fs _ ->
        (* rename onto a non-empty directory must fail *)
        let* _ = Sfs.mkdir fs "/d" in
        with_file fs "/d/f" "x" (fun _ ->
            with_file fs "/a" "y" (fun _ ->
                expect_errno Errno.ENOTEMPTY (Sfs.rename fs ~src:"/a" ~dst:"/d")
                  (fun () -> Pass))));
    t 7 (fun fs _ ->
        (* rename a directory *)
        let* _ = Sfs.mkdir fs "/d1" in
        with_file fs "/d1/f" "x" (fun _ ->
            let* () = Sfs.rename fs ~src:"/d1" ~dst:"/d2" in
            if Sfs.exists fs "/d2/f" then Pass else Fail "dir rename lost child"));
    t 8 (fun fs _ ->
        (* rename onto an empty directory replaces it *)
        let* _ = Sfs.mkdir fs "/empty" in
        with_file fs "/a" "y" (fun _ ->
            let* () = Sfs.rename fs ~src:"/a" ~dst:"/empty" in
            let* st = Sfs.stat fs "/empty" in
            if st.Sfs.st_kind = Sfs.File then Pass
            else Fail "empty-dir target not replaced"));
    t 9 (fun fs _ ->
        (* chain of renames preserves content *)
        with_file fs "/a" "chained" (fun _ ->
            let* () = Sfs.rename fs ~src:"/a" ~dst:"/b" in
            let* () = Sfs.rename fs ~src:"/b" ~dst:"/c" in
            let* () = Sfs.rename fs ~src:"/c" ~dst:"/d" in
            let* b = Sfs.read_file fs "/d" in
            if Bytes.to_string b = "chained" then Pass else Fail "chain lost data"));
    t 34 (fun fs _ ->
        (* POSIX: rename of a file onto itself is a successful no-op
           (regression: an early SimpleFS deleted the file here) *)
        with_file fs "/self" "keep" (fun _ ->
            let* () = Sfs.rename fs ~src:"/self" ~dst:"/self" in
            let* b = Sfs.read_file fs "/self" in
            if Bytes.to_string b = "keep" then Pass
            else Fail "self-rename damaged the file"));
  ]
  @ List.init 23 (fun i ->
        (* parameterized: rename at depth d with k sibling entries *)
        let depth = 1 + (i mod 4) and siblings = [| 0; 3; 17; 40 |].(i / 6) in
        mk "generic" "rename" (10 + i) (fun fs _ ->
            let rec mkpath d acc =
              if d = 0 then acc
              else mkpath (d - 1) (acc ^ Printf.sprintf "/lvl%d" d)
            in
            let dir = mkpath depth "" in
            let* () = Sfs.mkdir_p fs dir in
            let rec mksib k =
              if k = 0 then Ok ()
              else
                match Sfs.create fs (Printf.sprintf "%s/sib%d" dir k) with
                | Ok _ -> mksib (k - 1)
                | Error e -> Error e
            in
            let* () = mksib siblings in
            let* ino = Sfs.create fs (dir ^ "/victim") in
            let* _ = Sfs.write fs ino ~off:0 (Bytes.of_string "v") in
            let* () =
              Sfs.rename fs ~src:(dir ^ "/victim") ~dst:(dir ^ "/renamed")
            in
            let* entries = Sfs.readdir fs dir in
            if
              List.mem_assoc "renamed" entries
              && (not (List.mem_assoc "victim" entries))
              && List.length entries = siblings + 1
            then Pass
            else Fail "sibling set damaged by rename"))

(* --- family: hard links (30) --- *)

let link_tests =
  let t i run = mk "generic" "link" i run in
  [
    t 0 (fun fs _ ->
        let* _ = Sfs.create fs "/a" in
        let* () = Sfs.hardlink fs ~existing:"/a" "/b" in
        let* st = Sfs.stat fs "/a" in
        if st.Sfs.st_nlink = 2 then Pass else Fail "nlink not 2");
    t 1 (fun fs _ ->
        let* ino = Sfs.create fs "/a" in
        let* _ = Sfs.write fs ino ~off:0 (Bytes.of_string "shared") in
        let* () = Sfs.hardlink fs ~existing:"/a" "/b" in
        let* b = Sfs.read_file fs "/b" in
        if Bytes.to_string b = "shared" then Pass else Fail "link content差");
    t 2 (fun fs _ ->
        let* ino = Sfs.create fs "/a" in
        let* () = Sfs.hardlink fs ~existing:"/a" "/b" in
        let* _ = Sfs.write fs ino ~off:0 (Bytes.of_string "update") in
        let* b = Sfs.read_file fs "/b" in
        if Bytes.to_string b = "update" then Pass
        else Fail "write not visible through link");
    t 3 (fun fs _ ->
        let* _ = Sfs.create fs "/a" in
        let* () = Sfs.hardlink fs ~existing:"/a" "/b" in
        let* () = Sfs.unlink fs "/a" in
        if Sfs.exists fs "/b" then
          let* st = Sfs.stat fs "/b" in
          if st.Sfs.st_nlink = 1 then Pass else Fail "nlink after unlink"
        else Fail "data lost after unlinking one name");
    t 4 (fun fs _ ->
        let* _ = Sfs.mkdir fs "/d" in
        expect_errno Errno.EISDIR (Sfs.hardlink fs ~existing:"/d" "/d2")
          (fun () -> Pass));
    t 5 (fun fs _ ->
        expect_errno Errno.ENOENT (Sfs.hardlink fs ~existing:"/ghost" "/l")
          (fun () -> Pass));
  ]
  @ List.init 24 (fun i ->
        (* n links then unlink in an order decided by i; inode must be
           freed exactly when the last name goes *)
        let nlinks = 2 + (i mod 6) in
        mk "generic" "link" (6 + i) (fun fs _ ->
            let* ino = Sfs.create fs "/base" in
            let* _ = Sfs.write fs ino ~off:0 (Bytes.of_string "persist") in
            let rec make k =
              if k = 0 then Ok ()
              else
                match Sfs.hardlink fs ~existing:"/base" (Printf.sprintf "/l%d" k) with
                | Ok () -> make (k - 1)
                | Error e -> Error e
            in
            let* () = make nlinks in
            let before = (Sfs.statfs fs).Sfs.f_ifree in
            (* unlink all but one name, alternating ends *)
            let names =
              "/base" :: List.init nlinks (fun k -> Printf.sprintf "/l%d" (k + 1))
            in
            let order = if i mod 2 = 0 then names else List.rev names in
            let rec drop = function
              | [] -> Fail "no names left"
              | [ last ] ->
                  let* b = Sfs.read_file fs last in
                  if Bytes.to_string b <> "persist" then Fail "content lost"
                  else if (Sfs.statfs fs).Sfs.f_ifree <> before then
                    Fail "inode freed too early"
                  else
                    let* () = Sfs.unlink fs last in
                    if (Sfs.statfs fs).Sfs.f_ifree = before + 1 then Pass
                    else Fail "inode not freed at last unlink"
              | n :: rest -> (
                  match Sfs.unlink fs n with
                  | Ok () -> drop rest
                  | Error e -> Fail (Errno.show e))
            in
            drop order))

(* --- family: symlinks (24) --- *)

let symlink_tests =
  let t i run = mk "generic" "symlink" i run in
  [
    t 0 (fun fs _ ->
        let* _ = Sfs.symlink fs ~target:"/a" "/l" in
        let* tgt = Sfs.readlink fs "/l" in
        if tgt = "/a" then Pass else Fail "readlink mismatch");
    t 1 (fun fs _ ->
        let* _ = Sfs.create fs "/f" in
        expect_errno Errno.EINVAL (Sfs.readlink fs "/f") (fun () -> Pass));
    t 2 (fun fs _ ->
        let* _ = Sfs.symlink fs ~target:"/nowhere" "/l" in
        if Sfs.exists fs "/l" then Pass else Fail "dangling symlink must exist");
    t 3 (fun fs _ ->
        let* _ = Sfs.symlink fs ~target:"/a" "/l" in
        let* () = Sfs.unlink fs "/l" in
        if not (Sfs.exists fs "/l") then Pass else Fail "unlink symlink");
  ]
  @ List.init 20 (fun i ->
        let len = 1 + (i * 12) in
        mk "generic" "symlink" (4 + i) (fun fs _ ->
            (* target strings of increasing length survive *)
            let target = "/" ^ String.make len 't' in
            let* _ = Sfs.symlink fs ~target "/ln" in
            let* back = Sfs.readlink fs "/ln" in
            if back = target then Pass else Fail "long target damaged"))

(* --- family: directories (40) --- *)

let dir_tests =
  List.init 10 (fun depth ->
      mk "generic" "dirs" depth (fun fs _ ->
          (* nest to [depth+1], touch a file at the bottom, remove all *)
          let rec path d = if d = 0 then "" else path (d - 1) ^ Printf.sprintf "/d%d" d in
          let deep = path (depth + 1) in
          let* () = Sfs.mkdir_p fs deep in
          let* _ = Sfs.create fs (deep ^ "/leaf") in
          let* b = Sfs.readdir fs deep in
          if List.mem_assoc "leaf" b then
            let* () = Sfs.unlink fs (deep ^ "/leaf") in
            let rec rmall d =
              if d = 0 then Pass
              else
                match Sfs.rmdir fs (path d) with
                | Ok () -> rmall (d - 1)
                | Error e -> Fail ("rmdir: " ^ Errno.show e)
            in
            rmall (depth + 1)
          else Fail "leaf not listed"))
  @ List.init 10 (fun i ->
        let n = [| 1; 2; 5; 10; 20; 40; 80; 120; 200; 300 |].(i) in
        mk "generic" "dirs" (10 + i) (fun fs _ ->
            (* n entries: readdir must list each exactly once *)
            let* _ = Sfs.mkdir fs "/big" in
            let rec make k =
              if k = 0 then Ok ()
              else
                match Sfs.create fs (Printf.sprintf "/big/e%04d" k) with
                | Ok _ -> make (k - 1)
                | Error e -> Error e
            in
            let* () = make n in
            let* entries = Sfs.readdir fs "/big" in
            let names = List.map fst entries in
            if
              List.length names = n
              && List.length (List.sort_uniq compare names) = n
            then Pass
            else Fail (Printf.sprintf "expected %d unique entries, got %d" n
                         (List.length names))))
  @ List.init 10 (fun i ->
        mk "generic" "dirs" (20 + i) (fun fs _ ->
            (* delete every other entry, the rest must survive *)
            let n = 10 + (i * 7) in
            let* _ = Sfs.mkdir fs "/half" in
            let rec make k =
              if k = 0 then Ok ()
              else
                match Sfs.create fs (Printf.sprintf "/half/e%d" k) with
                | Ok _ -> make (k - 1)
                | Error e -> Error e
            in
            let* () = make n in
            let rec drop k =
              if k <= 0 then Ok ()
              else
                match Sfs.unlink fs (Printf.sprintf "/half/e%d" k) with
                | Ok () -> drop (k - 2)
                | Error e -> Error e
            in
            let* () = drop n in
            let* entries = Sfs.readdir fs "/half" in
            if List.length entries = n / 2 then Pass
            else Fail "wrong survivor count"))
  @ List.init 10 (fun i ->
        mk "generic" "dirs" (30 + i) (fun fs _ ->
            (* rmdir of non-empty fails; after emptying it succeeds *)
            let* _ = Sfs.mkdir fs "/ne" in
            let n = i + 1 in
            let rec make k =
              if k = 0 then Ok ()
              else
                match Sfs.create fs (Printf.sprintf "/ne/f%d" k) with
                | Ok _ -> make (k - 1)
                | Error e -> Error e
            in
            let* () = make n in
            expect_errno Errno.ENOTEMPTY (Sfs.rmdir fs "/ne") (fun () ->
                let rec clear k =
                  if k = 0 then Ok ()
                  else
                    match Sfs.unlink fs (Printf.sprintf "/ne/f%d" k) with
                    | Ok () -> clear (k - 1)
                    | Error e -> Error e
                in
                match clear n with
                | Error e -> Fail (Errno.show e)
                | Ok () -> (
                    match Sfs.rmdir fs "/ne" with
                    | Ok () -> Pass
                    | Error e -> Fail ("rmdir after empty: " ^ Errno.show e)))))

(* --- family: name edge cases (18) --- *)

let name_tests =
  List.init 15 (fun i ->
      let len = [| 1; 2; 3; 8; 16; 32; 60; 64; 100; 128; 180; 200; 240; 254; 255 |].(i) in
      mk "generic" "names" i (fun fs _ ->
          let name = "/" ^ String.make len 'n' in
          let* _ = Sfs.create fs name in
          let* entries = Sfs.readdir fs "/" in
          if List.mem_assoc (String.make len 'n') entries then Pass
          else Fail "long name not listed"))
  @ [
      mk "generic" "names" 15 (fun fs _ ->
          expect_errno Errno.EINVAL
            (Sfs.create fs ("/" ^ String.make 300 'x'))
            (fun () -> Pass));
      mk "generic" "names" 16 (fun fs _ ->
          let* _ = Sfs.create fs "/with space and-symbols_1.2" in
          if Sfs.exists fs "/with space and-symbols_1.2" then Pass
          else Fail "odd characters");
      mk "generic" "names" 17 (fun fs _ ->
          (* names differing only in case are distinct *)
          let* _ = Sfs.create fs "/Case" in
          let* _ = Sfs.create fs "/case" in
          let* e = Sfs.readdir fs "/" in
          if List.length e = 2 then Pass else Fail "case sensitivity");
    ]

(* --- family: ENOSPC (10) --- *)

let enospc_tests =
  List.init 10 (fun i ->
      mk "generic" "enospc" i (fun fs _ ->
          (* fill the device with files of varying size until ENOSPC;
             then freeing must make room again *)
          let chunk = (i + 1) * bs in
          let rec fill k : (int, Errno.t) result =
            if k > 10_000 then Error Errno.EIO
            else
              match Sfs.create fs (Printf.sprintf "/f%d" k) with
              | Error Errno.ENOSPC -> Ok k
              | Error e -> Error e
              | Ok ino -> (
                  match Sfs.write fs ino ~off:0 (Bytes.make chunk 'x') with
                  | Ok _ -> fill (k + 1)
                  | Error Errno.ENOSPC -> Ok k
                  | Error e -> Error e)
          in
          match fill 0 with
          | Error e -> Fail ("fill: " ^ Errno.show e)
          | Ok k -> (
              if k = 0 then Fail "no file fit at all"
              else
                (* free one and retry *)
                match Sfs.unlink fs "/f0" with
                | Error e -> Fail ("unlink: " ^ Errno.show e)
                | Ok () -> (
                    match Sfs.create fs "/again" with
                    | Ok ino -> (
                        match Sfs.write fs ino ~off:0 (Bytes.make bs 'y') with
                        | Ok _ -> Pass
                        | Error e -> Fail ("write after free: " ^ Errno.show e))
                    | Error e -> Fail ("create after free: " ^ Errno.show e)))))

(* --- family: remount / persistence (48) --- *)

let remount_tests =
  let sizes = [ 10; 512; bs; bs + 13; 3 * bs; direct_limit + bs ] in
  List.concat
    (List.mapi
       (fun si size ->
         List.init 8 (fun fi ->
             mk "generic" "remount" ((si * 8) + fi) (fun fs _ ->
                 (* fi files of [size] bytes survive a sync + remount *)
                 let nfiles = fi + 1 in
                 let tag = "rm" in
                 let rec make k =
                   if k = 0 then Ok ()
                   else
                     match Sfs.create fs (Printf.sprintf "/p%d" k) with
                     | Error e -> Error e
                     | Ok ino -> (
                         match
                           Sfs.write fs ino ~off:0
                             (pat_bytes (tag ^ string_of_int k) ~off:0 ~len:size)
                         with
                         | Ok _ -> make (k - 1)
                         | Error e -> Error e)
                 in
                 let* () = make nfiles in
                 Sfs.sync fs;
                 match Sfs.mount (Sfs.device fs) with
                 | Error e -> Fail ("remount: " ^ Errno.show e)
                 | Ok fs2 ->
                     let rec checkf k =
                       if k = 0 then Pass
                       else
                         match Sfs.read_file fs2 (Printf.sprintf "/p%d" k) with
                         | Error e -> Fail ("reread: " ^ Errno.show e)
                         | Ok b ->
                             if
                               Bytes.equal b
                                 (pat_bytes (tag ^ string_of_int k) ~off:0 ~len:size)
                             then checkf (k - 1)
                             else Fail "content lost across remount"
                     in
                     checkf nfiles)))
       sizes)

(* --- family: statfs / counters (16) --- *)

let stats_tests =
  List.init 16 (fun i ->
      mk "generic" "stats" i (fun fs _ ->
          let blocks = i + 1 in
          (* warm the root directory's block allocation so create/unlink
             of the probe file is space-neutral *)
          let* warm = Sfs.create fs "/warm" in
          ignore warm;
          let* () = Sfs.unlink fs "/warm" in
          let before = Sfs.statfs fs in
          let* ino = Sfs.create fs "/s" in
          let* _ = Sfs.write fs ino ~off:0 (Bytes.make (blocks * bs) 'x') in
          let during = Sfs.statfs fs in
          if during.Sfs.f_bfree > before.Sfs.f_bfree - blocks then
            Fail "free blocks did not drop"
          else
            let* () = Sfs.unlink fs "/s" in
            let after = Sfs.statfs fs in
            if after.Sfs.f_bfree = before.Sfs.f_bfree
               && after.Sfs.f_ifree = before.Sfs.f_ifree
            then Pass
            else Fail "space leaked after unlink"))

(* --- family: fsync (10) --- *)

let fsync_tests =
  List.init 10 (fun i ->
      mk "generic" "fsync" i (fun fs _ ->
          let size = (i + 1) * 700 in
          let* ino = Sfs.create fs "/fs" in
          let* _ = Sfs.write fs ino ~off:0 (pat_bytes "fsync" ~off:0 ~len:size) in
          Sfs.fsync fs ino;
          verify fs ino ~tag:"fsync" ~off:0 ~len:size (fun () -> Pass)))

(* --- family: many files (20) --- *)

let many_tests =
  List.init 20 (fun i ->
      let n = 5 + (i * 5) in
      mk "generic" "many" i (fun fs _ ->
          let content k = Printf.sprintf "content-%d-%d" i k in
          let rec make k =
            if k = 0 then Ok ()
            else
              match
                Sfs.write_file fs (Printf.sprintf "/m%d" k)
                  (Bytes.of_string (content k))
              with
              | Ok () -> make (k - 1)
              | Error e -> Error e
          in
          let* () = make n in
          let rec checkf k =
            if k = 0 then Pass
            else
              match Sfs.read_file fs (Printf.sprintf "/m%d" k) with
              | Ok b when Bytes.to_string b = content k -> checkf (k - 1)
              | Ok _ -> Fail "cross-file corruption"
              | Error e -> Fail (Errno.show e)
          in
          checkf n))

(* --- family: interleaved writers (30) --- *)

let interleave_tests =
  List.init 30 (fun i ->
      let nfiles = 2 + (i mod 5) and rounds = 3 + (i mod 7) in
      mk "generic" "inter" i (fun fs _ ->
          (* round-robin appends to n files; each file must end up with
             exactly its own bytes in order *)
          let inos = Array.make nfiles 0 in
          let rec create k =
            if k = nfiles then Ok ()
            else
              match Sfs.create fs (Printf.sprintf "/i%d" k) with
              | Ok ino ->
                  inos.(k) <- ino;
                  create (k + 1)
              | Error e -> Error e
          in
          let* () = create 0 in
          let chunk = 300 + i in
          let result = ref Pass in
          for r = 0 to rounds - 1 do
            for f = 0 to nfiles - 1 do
              let off = r * chunk in
              match
                Sfs.write fs inos.(f) ~off
                  (pat_bytes (Printf.sprintf "il%d-%d" i f) ~off ~len:chunk)
              with
              | Ok _ -> ()
              | Error e -> result := Fail (Errno.show e)
            done
          done;
          (match !result with
          | Pass ->
              let total = rounds * chunk in
              let rec checkf f =
                if f = nfiles then Pass
                else
                  match Sfs.read fs inos.(f) ~off:0 ~len:total with
                  | Ok b
                    when Bytes.equal b
                           (pat_bytes (Printf.sprintf "il%d-%d" i f) ~off:0
                              ~len:total) ->
                      checkf (f + 1)
                  | Ok _ -> Fail "interleaved corruption"
                  | Error e -> Fail (Errno.show e)
              in
              checkf 0
          | other -> other)))

(* --- family: large files (12) --- *)

let large_tests =
  List.init 12 (fun i ->
      let size = direct_limit + (i * 3 * bs) + 777 in
      mk "generic" "large" i (fun fs _ ->
          let tag = "lg" in
          let* ino = Sfs.create fs "/lg" in
          let rec fill pos =
            if pos >= size then Ok ()
            else
              let len = min bs (size - pos) in
              match Sfs.write fs ino ~off:pos (pat_bytes tag ~off:pos ~len) with
              | Ok _ -> fill (pos + len)
              | Error e -> Error e
          in
          let* () = fill 0 in
          (* verify a stride of probes rather than the whole file *)
          let rec probe pos =
            if pos >= size then Pass
            else
              let len = min 64 (size - pos) in
              match Sfs.read fs ino ~off:pos ~len with
              | Ok b when Bytes.equal b (pat_bytes tag ~off:pos ~len) ->
                  probe (pos + (7 * bs) + 13)
              | Ok _ -> Fail (Printf.sprintf "corruption at %d" pos)
              | Error e -> Fail (Errno.show e)
          in
          probe 0))

(* --- family: quota (3) --- *)

let quota_tests =
  List.init 3 (fun i ->
      mk "generic" "quota" i (fun fs feats ->
          (* quota reporting: the three cases the paper sees failing on
             both qemu-blk and vmsh-blk *)
          if feats.quota then Pass
          else
            match Sfs.quota_report fs with
            | Ok _ -> Pass
            | Error _ -> Fail "quota reporting unsupported"))

(* --- family: xfs-specific (14, skipped everywhere) --- *)

let xfs_tests =
  List.init 14 (fun i ->
      mk "xfs" "xfsattr" i (fun _ feats ->
          if feats.xfs_attrs then Pass
          else Skip "requires XFS extended attributes of a newer version"))

(* --- sustained load (1) --- *)

let sustained_test =
  [
    mk "generic" "sustained" 0 (fun fs _ ->
        (* checksum a large OS-image-like file in a long read loop *)
        let size = 48 * bs in
        let* ino = Sfs.create fs "/os.img" in
        let rec fill pos =
          if pos >= size then Ok ()
          else
            match Sfs.write fs ino ~off:pos (pat_bytes "img" ~off:pos ~len:bs) with
            | Ok _ -> fill (pos + bs)
            | Error e -> Error e
        in
        let* () = fill 0 in
        let ctx = Buffer.create (16 * bs) in
        let rec read_all pos =
          if pos >= size then Ok ()
          else
            match Sfs.read fs ino ~off:pos ~len:bs with
            | Ok b ->
                Buffer.add_bytes ctx b;
                if Buffer.length ctx > 16 * bs then begin
                  let _ = Digest.string (Buffer.contents ctx) in
                  Buffer.clear ctx
                end;
                read_all (pos + bs)
            | Error e -> Error e
        in
        let* () = read_all 0 in
        (* the checksum of a fresh pass must be reproducible *)
        let sum () =
          let b = Buffer.create size in
          let rec go pos =
            if pos >= size then Ok (Digest.string (Buffer.contents b))
            else
              match Sfs.read fs ino ~off:pos ~len:bs with
              | Ok blk ->
                  Buffer.add_bytes b blk;
                  go (pos + bs)
              | Error e -> Error e
          in
          go 0
        in
        let* s1 = sum () in
        let* s2 = sum () in
        if s1 = s2 then Pass else Fail "unstable checksum under sustained load");
  ]

let all () =
  basic_tests @ boundary_write_tests @ boundary_read_tests @ sparse_tests
  @ truncate_tests @ append_tests @ rename_tests @ link_tests @ symlink_tests
  @ dir_tests @ name_tests @ enospc_tests @ remount_tests @ stats_tests
  @ fsync_tests @ many_tests @ interleave_tests @ large_tests @ quota_tests
  @ xfs_tests @ sustained_test

let run_suite ~make_fs ?(in_ctx = fun f -> f ()) feats =
  let tests = all () in
  let passed = ref 0 and failed = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  List.iter
    (fun t ->
      let outcome =
        try in_ctx (fun () -> t.run (make_fs ()) feats)
        with e -> Fail ("exception: " ^ Printexc.to_string e)
      in
      match outcome with
      | Pass -> incr passed
      | Skip _ -> incr skipped
      | Fail reason ->
          incr failed;
          failures := (t.id, reason) :: !failures)
    tests;
  {
    total = List.length tests;
    passed = !passed;
    failed = !failed;
    skipped = !skipped;
    failures = List.rev !failures;
  }
