(* Unit and property tests for the simulated host OS substrate. *)

module H = Hostos
open H

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let errno : Errno.t Alcotest.testable = Alcotest.testable Errno.pp Errno.equal

let result_int = Alcotest.result cint errno

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check cint "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check cbool "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  check cbool "split streams differ" true (Rng.next a <> Rng.next b)

(* --- Clock --- *)

let test_clock_charges () =
  let c = Clock.create () in
  check cbool "starts at zero" true (Clock.now_ns c = 0.0);
  Clock.syscall c;
  Clock.context_switch c;
  let counters = Clock.counters c in
  check cint "one syscall" 1 counters.Clock.syscalls;
  check cint "one ctx switch" 1 counters.Clock.context_switches;
  check cbool "time advanced" true (Clock.now_ns c > 0.0)

let test_clock_copy_scales () =
  let c = Clock.create () in
  Clock.copy_bytes c 1000;
  let t1 = Clock.now_ns c in
  Clock.copy_bytes c 10000;
  let t2 = Clock.now_ns c -. t1 in
  check cbool "10x bytes cost ~10x" true (t2 > 9.0 *. t1 && t2 < 11.0 *. t1)

let test_clock_snapshot_independent () =
  let c = Clock.create () in
  Clock.syscall c;
  let snap = Clock.snapshot c in
  Clock.syscall c;
  check cint "snapshot frozen" 1 snap.Clock.syscalls;
  check cint "live counter moved" 2 (Clock.counters c).Clock.syscalls

(* --- Mem --- *)

let test_mem_u64_roundtrip () =
  let m = Mem.create 64 in
  Mem.write_u64 m 8 0x1234_5678_9abc;
  check cint "u64 roundtrip" 0x1234_5678_9abc (Mem.read_u64 m 8)

let test_mem_u64_rejects_63bit () =
  let m = Mem.create 16 in
  Bytes.set_int64_le (Mem.read_bytes m 0 16 |> fun _ -> Bytes.create 8) 0 0L;
  (* write a raw value with the top bits set, then read *)
  Mem.write_bytes m 0 (Bytes.init 8 (fun _ -> '\xff'));
  Alcotest.check_raises "rejects >62-bit" (Invalid_argument "x") (fun () ->
      try ignore (Mem.read_u64 m 0)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_mem_cstr () =
  let m = Mem.create 32 in
  Mem.write_cstr m 4 "hello";
  check (Alcotest.option cstr) "cstr" (Some "hello") (Mem.read_cstr m 4 ~max:16);
  check (Alcotest.option cstr) "no terminator" None
    (Mem.read_cstr m 4 ~max:3)

let test_aspace_mapping () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  Mem.write_u64 buf 16 77;
  check cint "read through mapping" 77 (read_u64 sp 0x1010);
  write_u64 sp 0x1018 99;
  check cint "write through mapping" 99 (Mem.read_u64 buf 24)

let test_aspace_overlap_rejected () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  Alcotest.check_raises "overlap" (Invalid_argument "x") (fun () ->
      try
        map sp
          { base = 0x1800; len = 4096; backing = buf; backing_off = 0; tag = "b" }
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_aspace_find_free () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  let free = find_free sp ~hint:0x1000 ~len:4096 in
  check cbool "free range does not overlap" true (free >= 0x2000)

let test_aspace_cross_mapping_read () =
  let open Mem.Addr_space in
  let sp = create () in
  let a = Mem.create 4096 and b = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = a; backing_off = 0; tag = "a" };
  map sp { base = 0x2000; len = 4096; backing = b; backing_off = 0; tag = "b" };
  Mem.write_u8 a 4095 0xaa;
  Mem.write_u8 b 0 0xbb;
  let data = read sp 0x1fff 2 in
  check cint "byte from a" 0xaa (Char.code (Bytes.get data 0));
  check cint "byte from b" 0xbb (Char.code (Bytes.get data 1))

(* --- sparse (zero-base) overlays --- *)

let raises_invalid name f =
  Alcotest.check_raises name (Invalid_argument "x") (fun () ->
      try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_mem_zero_base_overlay () =
  let len = (3 * 4096) + 100 in
  let m = Mem.create len in
  check cint "nothing resident at creation" 0 (Mem.resident_pages m);
  check cint "untouched page reads zero" 0 (Mem.read_u64 m 5000);
  check cbool "untouched range reads zeros" true
    (Bytes.equal (Mem.read_bytes m 4000 200) (Bytes.make 200 '\000'));
  (* zeros onto untouched pages stay silent, whatever the path *)
  Mem.write_bytes m 4096 (Bytes.make 4096 '\000');
  Mem.write_u64 m 8192 0;
  Mem.fill m 0 len '\000';
  check cint "zero writes stay silent" 0 (Mem.resident_pages m);
  (* the first differing write materialises exactly its page *)
  Mem.write_u8 m 5000 7;
  check cint "one page materialised" 1 (Mem.resident_pages m);
  check cint "writer reads its byte" 7 (Mem.read_u8 m 5000);
  check cint "rest of the page still zero" 0 (Mem.read_u8 m 5001);
  (* a scalar straddling a page boundary lands in both pages *)
  Mem.write_u64 m (8192 - 3) 0x0102_0304_0506_0708;
  check cint "straddling scalar roundtrips" 0x0102_0304_0506_0708
    (Mem.read_u64 m (8192 - 3));
  check cint "low bytes in the first page" 0x08 (Mem.read_u8 m (8192 - 3));
  check cint "high bytes in the second page" 0x01 (Mem.read_u8 m (8192 + 4));
  check cint "straddle materialised the second page" 2 (Mem.resident_pages m);
  (* the partial last page ends at the buffer's length, not the page's *)
  Mem.write_u8 m (len - 1) 9;
  check cint "last byte" 9 (Mem.read_u8 m (len - 1));
  raises_invalid "read past the end" (fun () -> Mem.read_u8 m len);
  raises_invalid "scalar write past the end" (fun () -> Mem.write_u64 m (len - 4) 1);
  raises_invalid "negative offset" (fun () -> Mem.read_bytes m (-1) 2);
  (* an allocation strategy, not a fork: the overlay API stays quiet *)
  check cbool "not a CoW buffer" false (Mem.is_cow m);
  check cbool "no CoW stats" true (Mem.cow_stats m = None);
  check cint "reclaim is a no-op" 0 (Mem.cow_reclaim m)

let test_mem_zero_base_matches_bytes () =
  (* the same seeded mix of scalar, range, fill, blit and bytes-side
     writes — a third of them zeros — on a sparse buffer and, through
     [Bytes], on a plain zeroed model; reads, bytes-side reads included,
     and the frozen image must agree throughout *)
  let len = (5 * 4096) + 1000 in
  let sparse = Mem.create len and model = Bytes.make len '\000' in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 2000 do
    let v = if Random.State.int rng 3 = 0 then 0 else Random.State.bits rng in
    let n = 1 + Random.State.int rng 6000 in
    let off = Random.State.int rng (len - 8) in
    let fit n = min n (len - off) in
    let bytes_of n = Bytes.init n (fun i -> Char.chr ((v + i) land 0xff)) in
    (match Random.State.int rng 8 with
    | 0 ->
        Mem.write_u8 sparse off v;
        Bytes.set_uint8 model off (v land 0xff)
    | 1 ->
        Mem.write_u32 sparse off v;
        Bytes.set_int32_le model off (Int32.of_int v)
    | 2 ->
        let v = v land 0xffff_ffff_ffff in
        Mem.write_u64 sparse off v;
        Bytes.set_int64_le model off (Int64.of_int v)
    | 3 ->
        let b = bytes_of (fit n) in
        Mem.write_bytes sparse off b;
        Bytes.blit b 0 model off (Bytes.length b)
    | 4 ->
        let c = Char.chr (v land 0xff) in
        Mem.fill sparse off (fit n) c;
        Bytes.fill model off (fit n) c
    | 5 ->
        let src = Random.State.int rng (len - 8) in
        let n = min (fit n) (len - src) in
        Mem.blit ~src:sparse ~src_off:src ~dst:sparse ~dst_off:off ~len:n;
        Bytes.blit model src model off n
    | 6 ->
        let soff = Random.State.int rng 16 in
        let b = bytes_of (soff + fit n) in
        Mem.write_from sparse off b soff (fit n);
        Bytes.blit b soff model off (fit n)
    | _ ->
        let doff = Random.State.int rng 16 in
        let d = Bytes.make (doff + fit n) '?' in
        Mem.read_into sparse off d doff (fit n);
        check cstr "bytes-side reads agree"
          (Bytes.sub_string model off (fit n))
          (Bytes.sub_string d doff (fit n)));
    let probe = Random.State.int rng (len - 8) in
    check cint "reads agree"
      (Int32.to_int (Bytes.get_int32_le model probe) land 0xffffffff)
      (Mem.read_u32 sparse probe)
  done;
  check cbool "freeze equals the model" true
    (Bytes.equal model (Mem.freeze sparse))

let test_mem_page_digest () =
  (* every buffer is paired with a plain bytes model that gets the same
     writes through [Bytes]: a digest must equal the model's, and the
     hash of the buffer's own bytes *)
  let len = (3 * 4096) + 100 in
  let m = Mem.create len and mb = Bytes.make len '\000' in
  let write_u8 (m, b) off v =
    Mem.write_u8 m off v;
    Bytes.set_uint8 b off v
  in
  write_u8 (m, mb) 4096 1;
  (* materialised, then zero again: still hashed, still correct *)
  write_u8 (m, mb) ((2 * 4096) + 5) 1;
  write_u8 (m, mb) ((2 * 4096) + 5) 0;
  let base = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
  let cow = Mem.cow base and cb = Bytes.copy base in
  write_u8 (cow, cb) 4096 0xff;
  let same name (m, b) off n =
    let want = Digest.to_hex (Digest.subbytes b off n) in
    check cstr (name ^ ": bytes") want
      (Digest.to_hex (Digest.bytes (Mem.read_bytes m off n)));
    check cstr name want (Digest.to_hex (Mem.page_digest m off n))
  in
  same "untouched zero page" (m, mb) 0 4096;
  same "materialised page" (m, mb) 4096 4096;
  same "materialised page holding zeros again" (m, mb) (2 * 4096) 4096;
  same "untouched partial last page" (m, mb) (3 * 4096) 100;
  write_u8 (m, mb) ((3 * 4096) + 99) 3;
  same "materialised partial last page" (m, mb) (3 * 4096) 100;
  same "range inside a page" (m, mb) 4000 96;
  same "range across pages" (m, mb) 4000 200;
  same "CoW base page" (cow, cb) 0 4096;
  same "CoW private page" (cow, cb) 4096 4096;
  same "CoW partial last page" (cow, cb) (3 * 4096) 100;
  (* two forks of one image share its digest memo: a still-shared page
     answers from it, a materialised page is hashed, and a page
     reclaimed back to the base answers from the memo again *)
  let digests = Mem.page_digests base in
  let fork_a = (Mem.cow ~digests base, Bytes.copy base)
  and fork_b = (Mem.cow ~digests base, Bytes.copy base) in
  same "memo filled by the first fork" fork_b 4096 4096;
  write_u8 fork_a 4096 0xee;
  same "materialised page over the memo" fork_a 4096 4096;
  same "second fork still reads the base" fork_b 4096 4096;
  write_u8 fork_a 4096 (Char.code (Bytes.get base 4096));
  check cint "re-converged page reclaimed" 1 (Mem.cow_reclaim (fst fork_a));
  same "reclaimed page" fork_a 4096 4096;
  same "partial last page with a memo" fork_a (3 * 4096) 100;
  raises_invalid "memo of another base" (fun () ->
      Mem.cow ~digests (Bytes.copy base));
  raises_invalid "digest past the end" (fun () -> Mem.page_digest m (3 * 4096) 4096)

(* --- the write log ---

   Differential property: replay a random mutation sequence on a
   zero-base buffer and on a CoW view, taking 1-3 marks along the way
   and copying the buffer out with [read_bytes] at each one. At the
   end, every page's digest at every mark must equal the hash of that
   mark's copy, and every page that differs from a mark's copy must be
   in the mark's written set. *)

let log_len = (4 * 4096) + 1000

type log_op =
  | Bytes_at of int * int * int  (** off, len, byte *)
  | Scalar of int * int * int  (** width, off, value *)
  | Fill of int * int * int  (** off, len, byte *)
  | Write_from of int * int * int  (** off, len, byte: from plain bytes *)
  | Blit_self of int * int * int  (** src, dst, len: overlay to overlay *)
  | Base_at of int * int  (** off, len: the base's own bytes *)
  | Reclaim
  | Mark

let log_op_to_string = function
  | Bytes_at (o, n, v) -> Printf.sprintf "bytes %d+%d=%d" o n v
  | Scalar (w, o, v) -> Printf.sprintf "u%d %d=%d" (8 * w) o v
  | Fill (o, n, v) -> Printf.sprintf "fill %d+%d=%d" o n v
  | Write_from (o, n, v) -> Printf.sprintf "write-from %d+%d=%d" o n v
  | Blit_self (src, o, n) -> Printf.sprintf "blit %d->%d+%d" src o n
  | Base_at (o, n) -> Printf.sprintf "base %d+%d" o n
  | Reclaim -> "reclaim"
  | Mark -> "mark"

let gen_log_ops =
  let open QCheck.Gen in
  (* in-page offsets and offsets just below a page boundary, so scalars
     take both the in-page fast path and the straddling path *)
  let off =
    oneof
      [
        int_bound (log_len - 1);
        map2 (fun p d -> (p * 4096) - d) (int_range 1 4) (int_range 1 7);
      ]
  in
  (* short runs stay inside a page, long ones cross pages *)
  let len = oneof [ int_range 1 64; int_range 1 9000 ] in
  let byte = int_bound 2 in
  let clamp o n = min n (log_len - o) in
  let op =
    frequency
      [
        (3, map3 (fun o n v -> Bytes_at (o, clamp o n, v)) off len byte);
        ( 4,
          map3
            (fun w o v -> Scalar (w, min o (log_len - w), v))
            (oneofl [ 1; 2; 4; 8 ]) off byte );
        (1, map3 (fun o n v -> Fill (o, clamp o n, v)) off len byte);
        (1, map3 (fun o n v -> Write_from (o, clamp o n, v)) off len byte);
        ( 1,
          map3
            (fun src o n -> Blit_self (src, o, min (clamp o n) (clamp src n)))
            off off len );
        (2, map2 (fun o n -> Base_at (o, clamp o n)) off len);
        (1, return Reclaim);
      ]
  in
  (* 1-3 marks, inserted before the op at each drawn position *)
  map2
    (fun marks ops ->
      let rec weave i = function
        | [] -> List.map (fun _ -> Mark) (List.filter (fun p -> p >= i) marks)
        | o :: rest ->
            List.map (fun _ -> Mark) (List.filter (fun p -> p = i) marks)
            @ (o :: weave (i + 1) rest)
      in
      weave 0 ops)
    (list_size (int_range 1 3) (int_bound 30))
    (list_size (int_bound 30) op)

let apply_log_op base m = function
  | Bytes_at (o, n, v) -> Mem.write_bytes m o (Bytes.make n (Char.chr v))
  | Scalar (1, o, v) -> Mem.write_u8 m o v
  | Scalar (2, o, v) -> Mem.write_u16 m o v
  | Scalar (4, o, v) -> Mem.write_u32 m o v
  | Scalar (_, o, v) -> Mem.write_u64 m o v
  | Fill (o, n, v) -> Mem.fill m o n (Char.chr v)
  | Write_from (o, n, v) -> Mem.write_from m o (Bytes.make (n + 1) (Char.chr v)) 1 n
  | Blit_self (src, o, n) -> Mem.blit ~src:m ~src_off:src ~dst:m ~dst_off:o ~len:n
  | Base_at (o, n) -> Mem.write_bytes m o (Bytes.sub base o n)
  | Reclaim -> ignore (Mem.cow_reclaim m)
  | Mark -> ()

let log_agrees base m ops =
  let marks =
    List.fold_left
      (fun marks op ->
        if op = Mark then (Mem.mark m, Mem.read_bytes m 0 log_len) :: marks
        else begin
          apply_log_op base m op;
          marks
        end)
      [] ops
  in
  let pages = (log_len + 4095) / 4096 in
  let now = Mem.read_bytes m 0 log_len in
  List.for_all
    (fun (k, copy) ->
      let written = Array.make pages false in
      Mem.iter_written k k ~first:0 ~count:pages (fun i -> written.(i) <- true);
      List.for_all
        (fun i ->
          let off = i * 4096 in
          let n = min 4096 (log_len - off) in
          Digest.equal (Mem.digest_at k i) (Digest.subbytes copy off n)
          && (written.(i) || Bytes.equal (Bytes.sub copy off n) (Bytes.sub now off n)))
        (List.init pages Fun.id))
    marks

let prop_write_log_matches_copies =
  QCheck.Test.make ~name:"write log matches a copy taken at every mark"
    ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map log_op_to_string ops))
       gen_log_ops)
    (fun ops ->
      let zeros = Bytes.make log_len '\000' in
      let base = Bytes.init log_len (fun i -> Char.chr (i * 7 land 3)) in
      log_agrees zeros (Mem.create log_len) ops
      && log_agrees base (Mem.cow ~digests:(Mem.page_digests base) base) ops)

(* --- generated pages ---

   Differential property: a [Mem.generate]d range must behave exactly
   as the same bytes written eagerly. Both buffers run one sequence of
   write-log ops, marks and sparse reads; every read must answer alike,
   and at the end so must the contents and every mark's page digests
   and written set. A byte-range read ([read_bytes], [read_into],
   [Addr_space.read_into]) runs the generator into its own buffer and
   must leave [resident_pages] as it was, so later writes, marks and
   digests still meet untouched generated pages; a scalar read or a
   digest materialises only the pages it touches. *)

type gen_read = R_bytes | R_u8 | R_u64 | R_into | R_aspace | R_digest | R_freeze

type gen_op = Op of log_op | Read of gen_read * int * int  (** off, len *)

let log_pages = (log_len + 4095) / 4096

let gen_op_to_string = function
  | Op o -> log_op_to_string o
  | Read (_, o, n) -> Printf.sprintf "read %d+%d" o n

let gen_generated =
  let open QCheck.Gen in
  (* pages [a, b) of the buffer, the last one short *)
  let range =
    map2
      (fun a n -> (a, min log_pages (a + n)))
      (int_bound (log_pages - 1))
      (int_range 1 log_pages)
  in
  let read =
    map3
      (fun k o n -> Read (k, o, min n (log_len - o)))
      (oneofl [ R_bytes; R_u8; R_u64; R_into; R_aspace; R_digest; R_freeze ])
      (int_bound (log_len - 1))
      (oneof [ int_range 1 64; int_range 1 9000 ])
  in
  let ops =
    map2
      (fun ops reads ->
        let rec weave i = function
          | [] -> List.filter_map (fun (p, r) -> if p >= i then Some r else None) reads
          | o :: rest ->
              List.filter_map (fun (p, r) -> if p = i then Some r else None) reads
              @ (Op o :: weave (i + 1) rest)
        in
        weave 0 ops)
      gen_log_ops
      (list_size (int_bound 8) (pair (int_bound 40) read))
  in
  triple (int_bound 1000) range ops

(* What [m] answers along [ops]: each read's result, then, per mark,
   every page's digest and the written set, then the final contents
   (digested first, so a page nothing touched is digested untouched). *)
let observe_generated m ops =
  let sp = Mem.Addr_space.create () in
  let va = 0x10000 in
  Mem.Addr_space.map sp
    { Mem.Addr_space.base = va; len = log_len; backing = m; backing_off = 0; tag = "g" };
  (* a byte-range read, with the pages it materialised (none) *)
  let range_read f =
    let before = Mem.resident_pages m in
    let got = f () in
    got ^ Printf.sprintf " +%d" (Mem.resident_pages m - before)
  in
  let read kind o n =
    match kind with
    | R_bytes -> range_read (fun () -> Bytes.to_string (Mem.read_bytes m o n))
    | R_u8 -> string_of_int (Mem.read_u8 m o)
    | R_u64 -> (
        match Mem.read_u64 m (min o (log_len - 8)) with
        | v -> string_of_int v
        | exception Invalid_argument e -> e)
    | R_into ->
        range_read (fun () ->
            let d = Bytes.make (n + 2) '?' in
            Mem.read_into m o d 1 n;
            Bytes.to_string d)
    | R_aspace ->
        range_read (fun () ->
            let d = Bytes.create n in
            Mem.Addr_space.read_into sp (va + o) d 0 n;
            Bytes.to_string d)
    | R_digest -> Mem.page_digest m o n
    | R_freeze -> Bytes.to_string (Mem.freeze m)
  in
  let zeros = Bytes.make log_len '\000' in
  let marks, seen =
    List.fold_left
      (fun (marks, seen) op ->
        match op with
        | Op Mark -> (Mem.mark m :: marks, seen)
        | Op o ->
            apply_log_op zeros m o;
            (marks, seen)
        | Read (k, o, n) -> (marks, read k o n :: seen))
      ([], []) ops
  in
  let log k =
    let written = Buffer.create 16 in
    Mem.iter_written k k ~first:0 ~count:log_pages (fun i ->
        Buffer.add_string written (string_of_int i ^ ","));
    Buffer.contents written
    ^ String.concat "" (List.init log_pages (Mem.digest_at k))
  in
  let logs = List.map log marks in
  List.rev_append seen (Bytes.to_string (Mem.freeze m) :: logs)

let generated_buffers ~seed (a, b) =
  let off = a * 4096 in
  let len = min log_len (b * 4096) - off in
  let gen = Mem.create log_len and eager = Mem.create log_len in
  Mem.generate gen ~off ~len (Rng.fill_bytes_at (Rng.create ~seed));
  let noise = Bytes.create len in
  Rng.fill_bytes (Rng.create ~seed) noise;
  Mem.write_bytes eager off noise;
  (gen, eager)

let prop_generated_reads_as_written =
  QCheck.Test.make ~name:"a generated range reads as the same bytes written"
    ~count:300
    (QCheck.make
       ~print:(fun (seed, (a, b), ops) ->
         Printf.sprintf "seed %d, pages %d-%d: %s" seed a b
           (String.concat "; " (List.map gen_op_to_string ops)))
       gen_generated)
    (fun (seed, range, ops) ->
      let gen, eager = generated_buffers ~seed range in
      observe_generated gen ops = observe_generated eager ops)

(* The two first touches the property meets only by chance: a write
   after a mark onto a generated page nothing has read, and a scalar
   write straddling a generated page and a zero page. *)
let test_mem_generated_first_touch () =
  let gen, eager = generated_buffers ~seed:5 (0, 2) in
  check cint "generating materialises nothing" 0 (Mem.resident_pages gen);
  let touch m =
    let k = Mem.mark m in
    Mem.write_u8 m 100 0xab;
    Mem.write_u64 m ((2 * 4096) - 4) 0x1122334455667788;
    let k' = Mem.mark m in
    let written = ref [] in
    Mem.iter_written k k' ~first:0 ~count:log_pages (fun i ->
        written := i :: !written);
    ( List.init log_pages (Mem.digest_at k),
      !written,
      Bytes.to_string (Mem.freeze m) )
  in
  let d, w, b = touch gen and d', w', b' = touch eager in
  check Alcotest.(list string) "digests at the mark" d' d;
  check Alcotest.(list int) "written pages" w' w;
  check cbool "contents" true (String.equal b b');
  check cint "three pages touched" 3 (Mem.resident_pages gen)

(* [generate] over pages a mark has seen is a write: the mark keeps
   their old digests and lists them as written. *)
let test_mem_generate_is_logged () =
  let m = Mem.create (3 * 4096) in
  Mem.write_u8 m 4096 7;
  let before = Mem.read_bytes m 0 (3 * 4096) in
  let k = Mem.mark m in
  Mem.generate m ~off:0 ~len:(2 * 4096) (Rng.fill_bytes_at (Rng.create ~seed:2));
  let written = ref [] in
  Mem.iter_written k k ~first:0 ~count:3 (fun i -> written := i :: !written);
  check Alcotest.(list int) "written pages" [ 1; 0 ] !written;
  List.iter
    (fun i ->
      check cstr
        (Printf.sprintf "page %d at the mark" i)
        (Digest.subbytes before (i * 4096) 4096)
        (Mem.digest_at k i))
    [ 0; 1; 2 ];
  let noise = Bytes.create 4096 in
  Rng.fill_bytes_at (Rng.create ~seed:2) ~pos:4096 noise ~off:0 ~len:4096;
  check cstr "page 1 now holds the generator's bytes" (Bytes.to_string noise)
    (Bytes.to_string (Mem.read_bytes m 4096 4096))

let test_mem_generate_rejects () =
  let f = Rng.fill_bytes_at (Rng.create ~seed:1) in
  let rejects what m ~off ~len =
    check cbool what true
      (match Mem.generate m ~off ~len f with
      | () -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "a CoW view" (Mem.cow (Bytes.make 8192 'x')) ~off:0 ~len:4096;
  rejects "an unaligned start" (Mem.create 8192) ~off:1 ~len:4096;
  rejects "an unaligned end" (Mem.create 8192) ~off:0 ~len:4095;
  rejects "a range past the end" (Mem.create 8192) ~off:4096 ~len:8192;
  (* a range ending at a short last page ends on the buffer's end *)
  let m = Mem.create 5000 in
  Mem.generate m ~off:4096 ~len:904 f;
  let noise = Bytes.create 904 in
  Rng.fill_bytes (Rng.create ~seed:1) noise;
  check cstr "short last page" (Bytes.to_string noise)
    (Bytes.to_string (Mem.read_bytes m 4096 904))

let test_mem_log_rejects_two_buffers () =
  let a = Mem.mark (Mem.create 4096) and b = Mem.mark (Mem.create 4096) in
  raises_invalid "marks of two buffers" (fun () ->
      Mem.iter_written a b ~first:0 ~count:1 ignore)

(* Attribution: which pages one writer wrote, per mark. *)

let attributed ?until k =
  let pages = ref [] in
  Mem.iter_attributed ?until k ~first:0 ~count:4 (fun i -> pages := i :: !pages);
  List.rev !pages

let cpages = Alcotest.(list int)

let test_mem_attribution_needs_a_mark () =
  let m = Mem.create (4 * 4096) in
  Mem.write_bytes m 100 (Bytes.make 8 'a');
  Mem.attribute m 100 8;
  let k = Mem.mark m in
  check cpages "a write before the first mark is not attributed" []
    (attributed k);
  Mem.attribute m 100 8;
  check cpages "one after it is" [ 0 ] (attributed k)

let test_mem_attribution_between_marks () =
  let m = Mem.create (4 * 4096) in
  let m1 = Mem.mark m in
  (* straddles pages 0 and 1 *)
  Mem.write_bytes m 4090 (Bytes.make 10 'b');
  Mem.attribute m 4090 10;
  let m2 = Mem.mark m in
  Mem.write_u8 m (3 * 4096) 7;
  Mem.attribute m (3 * 4096) 1;
  check cpages "since m1" [ 0; 1; 3 ] (attributed m1);
  check cpages "since m2" [ 3 ] (attributed m2);
  check cpages "between m1 and m2" [ 0; 1 ] (attributed ~until:m2 m1);
  check cpages "either order" [ 0; 1 ] (attributed ~until:m1 m2);
  let m3 = Mem.mark m in
  check cpages "nothing since m3" [] (attributed m3);
  check cpages "between m2 and m3" [ 3 ] (attributed ~until:m3 m2);
  raises_invalid "a range past the end" (fun () ->
      Mem.attribute m ((4 * 4096) - 1) 2);
  let other = Mem.mark (Mem.create 4096) in
  raises_invalid "marks of two buffers" (fun () ->
      Mem.iter_attributed ~until:other m1 ~first:0 ~count:1 ignore)

let test_mem_attribution_counts_silent_writes () =
  let m = Mem.create (4 * 4096) in
  let k = Mem.mark m in
  (* zeros onto an untouched zero page change nothing *)
  Mem.write_bytes m (2 * 4096) (Bytes.make 16 '\000');
  Mem.attribute m (2 * 4096) 16;
  check cint "the write was silent" 0 (Mem.resident_pages m);
  let written = ref [] in
  Mem.iter_written k k ~first:0 ~count:4 (fun i -> written := i :: !written);
  check cpages "so the log saw no change" [] !written;
  check cpages "but it is attributed" [ 2 ] (attributed k)

(* The silent-write test over the zero base reads only the source, 32
   bytes per step, then 8, then single bytes. A non-zero byte in any of
   those steps, at any source or buffer offset, must materialise the
   page and log it; an all-zero write of any shape must stay silent and
   log nothing. *)
let test_mem_zero_source_test () =
  let diverging what ~soff ~len ~at ~off =
    let m = Mem.create (3 * 4096) in
    let k = Mem.mark m in
    let src = Bytes.make (soff + len) '\000' in
    Bytes.set src (soff + at) '\x01';
    Mem.write_from m off src soff len;
    check cint (what ^ ": page materialised") 1 (Mem.resident_pages m);
    let written = ref [] in
    Mem.iter_written k k ~first:0 ~count:3 (fun i -> written := i :: !written);
    check cpages (what ^ ": page logged") [ (off + at) / 4096 ] !written;
    check cint (what ^ ": byte reads back") 1 (Mem.read_u8 m (off + at))
  in
  diverging "a page's last byte" ~soff:0 ~len:4096 ~at:4095 ~off:4096;
  List.iter
    (fun tail ->
      diverging
        (Printf.sprintf "a %d-byte tail" tail)
        ~soff:0 ~len:(64 + tail) ~at:(64 + tail - 1) ~off:4096)
    [ 1; 2; 3; 4; 5; 6; 7 ];
  diverging "an unaligned offset" ~soff:3 ~len:1000 ~at:999 ~off:(4096 + 5);
  diverging "a 20-byte chunk" ~soff:0 ~len:20 ~at:10 ~off:8192;
  diverging "a word of a short chunk" ~soff:1 ~len:31 ~at:24 ~off:100;
  (* a write straddling two pages materialises only the diverging one *)
  diverging "the far side of a straddle" ~soff:0 ~len:200 ~at:150
    ~off:(4096 - 100);
  let m = Mem.create (3 * 4096) in
  let k = Mem.mark m in
  List.iter
    (fun (soff, len, off) ->
      let src = Bytes.make (soff + len) '\000' in
      Mem.write_from m off src soff len)
    [ (0, 4096, 4096); (3, 1000, 4101); (0, 20, 8192); (1, 7, 0); (0, 8192, 2048) ];
  Mem.fill m 0 (3 * 4096) '\000';
  check cint "all-zero writes stay silent" 0 (Mem.resident_pages m);
  let written = ref [] in
  Mem.iter_written k k ~first:0 ~count:3 (fun i -> written := i :: !written);
  check cpages "and log nothing" [] !written

(* --- Chan --- *)

let test_chan_fifo () =
  let c = Chan.create () in
  ignore (Chan.write c (Bytes.of_string "abc"));
  ignore (Chan.write c (Bytes.of_string "def"));
  check cstr "fifo order" "abcd"
    (match Chan.read c 4 with Ok b -> Bytes.to_string b | Error _ -> "");
  check cstr "rest" "ef"
    (match Chan.read c 10 with Ok b -> Bytes.to_string b | Error _ -> "")

let test_chan_eagain_empty () =
  let c = Chan.create () in
  (match Chan.read c 1 with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN");
  ignore (Chan.write c (Bytes.of_string "x"));
  ignore (Chan.read c 1);
  match Chan.read c 1 with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN after drain"

let test_chan_capacity () =
  let c = Chan.create ~capacity:4 () in
  (match Chan.write c (Bytes.of_string "abcdef") with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "partial write expected");
  match Chan.write c (Bytes.of_string "x") with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN when full"

(* --- processes, fds, syscalls --- *)

let make_host () = Host.create ~seed:1 ()

let test_proc_fd_lifecycle () =
  let host = make_host () in
  let p = Host.spawn host ~name:"test" () in
  let fd = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  check cbool "fd num >= 3" true (fd.Fd.num >= 3);
  (match Proc.fd p fd.Fd.num with
  | Ok f -> check cstr "label" "anon_inode:[eventfd]" f.Fd.label
  | Error _ -> Alcotest.fail "fd lookup");
  (match Proc.close_fd p fd.Fd.num with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "close");
  match Proc.fd p fd.Fd.num with
  | Error Errno.EBADF -> ()
  | _ -> Alcotest.fail "expected EBADF after close"

(* A finished helper leaves the table, unless it still holds a
   descriptor: then its leak stays countable. *)
let test_proc_reap () =
  let host = make_host () in
  let keep = Host.spawn host ~name:"keep" () in
  let p = Host.spawn host ~name:"helper" () in
  let fd = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  Host.reap host p;
  check (Alcotest.list cint) "a holder stays" [ keep.Proc.pid; p.Proc.pid ]
    (Host.pids host);
  ignore (Proc.close_fd p fd.Fd.num);
  Host.reap host p;
  check (Alcotest.list cint) "reaped" [ keep.Proc.pid ] (Host.pids host)

let test_eventfd_semantics () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let fd = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  Fd.eventfd_signal fd;
  Fd.eventfd_signal fd;
  check (Alcotest.option cint) "count" (Some 2) (Fd.eventfd_count fd);
  (match fd.Fd.ops.read ~len:8 with
  | Ok b -> check cint "drained value" 2 (Int64.to_int (Bytes.get_int64_le b 0))
  | Error _ -> Alcotest.fail "read");
  check (Alcotest.option cint) "drained" (Some 0) (Fd.eventfd_count fd)

let test_syscall_mmap_and_memory () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  let base = Syscall.call host p th ~nr:Syscall.Nr.mmap ~args:[| 0; 8192 |] in
  check cbool "mmap returns address" true (base >= Syscall.mmap_area_base);
  Mem.Addr_space.write_u64 p.Proc.aspace base 4242;
  check cint "memory readable" 4242 (Mem.Addr_space.read_u64 p.Proc.aspace base)

let test_syscall_bad_fd () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  let ret = Syscall.call host p th ~nr:Syscall.Nr.close ~args:[| 99 |] in
  check result_int "EBADF" (Error Errno.EBADF) (Errno.of_syscall_ret ret)

let test_syscall_seccomp_blocks () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  th.Proc.seccomp <-
    Some { Proc.filter_name = "no-mmap"; allows = (fun nr -> nr <> Syscall.Nr.mmap) };
  let ret = Syscall.call host p th ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  check result_int "seccomp EPERM" (Error Errno.EPERM) (Errno.of_syscall_ret ret);
  let ret = Syscall.call host p th ~nr:Syscall.Nr.eventfd2 ~args:[||] in
  check cbool "other syscalls pass" true (ret >= 0)

let test_process_vm_rw () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let vmsh = Host.spawn host ~name:"vmsh" ~uid:1000 () in
  let th = Proc.main_thread hyp in
  let base = Syscall.call host hyp th ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  (match
     Host.process_vm_write host ~caller:vmsh ~pid:hyp.Proc.pid ~addr:base
       (Bytes.of_string "sideload")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write");
  match
    Host.process_vm_read host ~caller:vmsh ~pid:hyp.Proc.pid ~addr:base ~len:8
  with
  | Ok b -> check cstr "roundtrip" "sideload" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "read"

let test_process_vm_permissions () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let other = Host.spawn host ~name:"other" ~uid:2000 () in
  (match
     Host.process_vm_read host ~caller:other ~pid:hyp.Proc.pid ~addr:0 ~len:8
   with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM across uids");
  other.Proc.caps <- [ Proc.CAP_SYS_PTRACE ];
  match
    Host.process_vm_read host ~caller:other ~pid:hyp.Proc.pid ~addr:0 ~len:8
  with
  | Error Errno.EFAULT -> () (* allowed, but address unmapped *)
  | Error e -> Alcotest.failf "expected EFAULT, got %a" Errno.pp e
  | Ok _ -> Alcotest.fail "expected EFAULT"

(* A refused process_vm_readv fails before the syscall body: no fault
   draw (the plan fires on every draw), no charge, and the caller's
   buffer untouched. [refuse] runs one single-segment read. *)
let refused_readv expected refuse =
  let host = make_host () in
  let plan =
    Faults.create ~seed:1 ~rate:1.0 ~classes:[ Faults.Vm_rw_efault ] ()
  in
  Host.arm_faults host plan;
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let base =
    Syscall.call host hyp (Proc.main_thread hyp) ~nr:Syscall.Nr.mmap
      ~args:[| 0; 4096 |]
  in
  let buf = Bytes.make 8 'x' in
  let clock = host.Host.clock in
  let now = Clock.now_ns clock and calls = (Clock.counters clock).syscalls in
  (match refuse host ~hyp ~iov:[ (base, 8) ] buf with
  | Error e -> check errno "errno" expected e
  | Ok () -> Alcotest.fail "the read was not refused");
  check cint "no fault drawn" 0 (Faults.decisions plan Faults.Vm_rw_efault);
  check cbool "no time charged" true (Clock.now_ns clock = now);
  check cint "no syscall counted" calls (Clock.counters clock).syscalls;
  check cstr "buffer untouched" "xxxxxxxx" (Bytes.to_string buf)

let test_process_vm_readv_eperm () =
  refused_readv Errno.EPERM (fun host ~hyp ~iov buf ->
      let other = Host.spawn host ~name:"other" ~uid:2000 () in
      Host.process_vm_readv host ~caller:other ~pid:hyp.Proc.pid ~iov buf
        ~off:0)

let test_process_vm_readv_esrch () =
  refused_readv Errno.ESRCH (fun host ~hyp ~iov buf ->
      Host.process_vm_readv host ~caller:hyp ~pid:(hyp.Proc.pid + 1000) ~iov
        buf ~off:0)

(* --- /proc --- *)

let test_proc_fd_labels () =
  let host = make_host () in
  let p = Host.spawn host ~name:"qemu" () in
  let _e = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  let listing = Host.proc_fd_listing host ~pid:p.Proc.pid in
  check cbool "eventfd visible" true
    (List.exists (fun (_, l) -> l = "anon_inode:[eventfd]") listing);
  check cstr "comm" "qemu"
    (match Host.proc_comm host ~pid:p.Proc.pid with Ok s -> s | Error _ -> "")

(* --- ptrace --- *)

let test_ptrace_attach_permissions () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let stranger = Host.spawn host ~name:"x" ~uid:2000 () in
  (match Ptrace.attach host ~tracer:stranger ~pid:hyp.Proc.pid with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM");
  let vmsh = Host.spawn host ~name:"vmsh" ~uid:1000 () in
  match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach failed: %a" Errno.pp e

let test_ptrace_double_attach_refused () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let a = Host.spawn host ~name:"a" () in
  let b = Host.spawn host ~name:"b" () in
  (match Ptrace.attach host ~tracer:a ~pid:hyp.Proc.pid with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first attach");
  match Ptrace.attach host ~tracer:b ~pid:hyp.Proc.pid with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "second attach should fail"

let test_ptrace_inject_syscall () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  let before = X86.Regs.copy (Proc.main_thread hyp).Proc.regs in
  let ret =
    Ptrace.inject_syscall host s ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] ()
  in
  (match ret with
  | Ok base ->
      check cbool "injected mmap worked" true (base > 0);
      (* The memory exists in the tracee's address space. *)
      check cbool "mapping is in tracee" true
        (Mem.Addr_space.resolve hyp.Proc.aspace base <> None)
  | Error e -> Alcotest.failf "inject: %a" Errno.pp e);
  let after = (Proc.main_thread hyp).Proc.regs in
  check cbool "registers restored" true (X86.Regs.equal before after)

let test_ptrace_inject_respects_seccomp () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"firecracker" () in
  (Proc.main_thread hyp).Proc.seccomp <-
    Some
      {
        Proc.filter_name = "firecracker-vcpu";
        allows = (fun nr -> nr = Syscall.Nr.ioctl || nr = Syscall.Nr.read);
      };
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  match Ptrace.inject_syscall host s ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] () with
  | Ok ret -> check result_int "EPERM" (Error Errno.EPERM) (Errno.of_syscall_ret ret)
  | Error e -> Alcotest.failf "inject transport failed: %a" Errno.pp e

let test_ptrace_hooks_fire_and_charge () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  let entries = ref 0 and exits = ref 0 in
  Ptrace.hook_syscalls host s
    ~on_entry:(fun _ -> incr entries)
    ~on_exit:(fun _ -> incr exits; Proc.Deliver);
  let th = Proc.main_thread hyp in
  let stops_before = (Clock.counters host.Host.clock).Clock.ptrace_stops in
  ignore (Syscall.call host hyp th ~nr:Syscall.Nr.eventfd2 ~args:[||]);
  check cint "entry hook fired" 1 !entries;
  check cint "exit hook fired" 1 !exits;
  let stops_after = (Clock.counters host.Host.clock).Clock.ptrace_stops in
  check cint "two ptrace stops charged" 2 (stops_after - stops_before);
  Ptrace.unhook_syscalls host s;
  ignore (Syscall.call host hyp th ~nr:Syscall.Nr.eventfd2 ~args:[||]);
  check cint "no hooks after unhook" 1 !entries

(* --- eBPF --- *)

let test_ebpf_requires_privilege () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" () in
  let prog = { Ebpf.name = "memslots"; insn_count = 64; run = (fun _ -> ()) } in
  (match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM without CAP_BPF");
  p.Proc.caps <- [ Proc.CAP_BPF ];
  match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attach: %a" Errno.pp e

let test_ebpf_verifier_rejects_huge () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" ~caps:[ Proc.CAP_BPF ] () in
  let prog = { Ebpf.name = "huge"; insn_count = 100000; run = (fun _ -> ()) } in
  match Host.attach_ebpf host ~caller:p ~hook:"h" prog with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "expected EINVAL"

let test_ebpf_fires_with_output () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" ~caps:[ Proc.CAP_BPF ] () in
  let prog =
    {
      Ebpf.name = "echo";
      insn_count = 8;
      run = (fun ctx -> ctx.Ebpf.output <- Some (Bytes.of_string "hit"));
    }
  in
  (match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "attach");
  match Host.fire_ebpf host ~hook:"kvm_vm_ioctl" ~args:[| 1 |] Ebpf.No_data with
  | Some b -> check cstr "output" "hit" (Bytes.to_string b)
  | None -> Alcotest.fail "no output"

(* --- unix sockets with fd passing --- *)

let test_unix_socket_fd_passing () =
  let host = make_host () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let listener =
    match Host.unix_bind host vmsh ~path:"/tmp/vmsh.sock" with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "bind"
  in
  let hyp_sock =
    match Host.unix_connect host hyp ~path:"/tmp/vmsh.sock" with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "connect"
  in
  let vmsh_sock =
    match Host.unix_accept host vmsh ~listener with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "accept"
  in
  (* pass an eventfd from hypervisor to vmsh *)
  let ev = Proc.install_fd hyp (fun ~num -> Fd.eventfd ~num) in
  (match Host.send_fd host ~sock:hyp_sock ev with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send_fd");
  match Host.recv_fd host vmsh ~sock:vmsh_sock with
  | Ok received ->
      Fd.eventfd_signal ev;
      check (Alcotest.option cint) "same open file description" (Some 1)
        (Fd.eventfd_count received)
  | Error _ -> Alcotest.fail "recv_fd"

let test_unix_socket_data () =
  let host = make_host () in
  let a = Host.spawn host ~name:"a" () in
  let b = Host.spawn host ~name:"b" () in
  ignore (Host.unix_bind host a ~path:"/s");
  let bsock =
    match Host.unix_connect host b ~path:"/s" with Ok f -> f | Error _ -> assert false
  in
  let listener =
    match Proc.fd a 3 with Ok f -> f | Error _ -> assert false
  in
  let asock =
    match Host.unix_accept host a ~listener with Ok f -> f | Error _ -> assert false
  in
  ignore (bsock.Fd.ops.write (Bytes.of_string "ping"));
  match asock.Fd.ops.read ~len:16 with
  | Ok data -> check cstr "data" "ping" (Bytes.to_string data)
  | Error _ -> Alcotest.fail "read"

(* --- property tests --- *)

let prop_chan_preserves_bytes =
  QCheck.Test.make ~name:"chan writes then reads preserve content" ~count:100
    QCheck.(list (string_of_size Gen.(int_bound 200)))
    (fun chunks ->
      let c = Chan.create ~capacity:max_int ()
      and expected = Buffer.create 64 in
      List.iter
        (fun s ->
          Buffer.add_string expected s;
          match Chan.write c (Bytes.of_string s) with
          | Ok n -> assert (n = String.length s)
          | Error _ -> assert (String.length s = 0))
        chunks;
      let got = Buffer.create 64 in
      let rec drain () =
        match Chan.read c 64 with
        | Ok b when Bytes.length b > 0 ->
            Buffer.add_bytes got b;
            drain ()
        | _ -> ()
      in
      drain ();
      Buffer.contents got = Buffer.contents expected)

let prop_aspace_find_free_never_overlaps =
  QCheck.Test.make ~name:"find_free result never overlaps mappings" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 10) (pair (int_bound 100) (int_range 1 16)))
    (fun specs ->
      let open Mem.Addr_space in
      let sp = create () in
      List.iter
        (fun (hint, pages) ->
          let len = pages * 4096 in
          let base = find_free sp ~hint:(hint * 4096) ~len in
          map sp
            { base; len; backing = Mem.create len; backing_off = 0; tag = "x" })
        specs;
      (* map never raised, so no overlap occurred *)
      true)

(* The noise kernel's two builds: the one the CPU picks, and the
   baseline-ISA loop whatever the CPU. *)
let noise_fills =
  [ ("picked", Rng.fill_bytes_at); ("portable", Rng.portable_fill_bytes_at) ]

(* [fill_bytes] must give the per-byte [int r 256] loop's bytes and
   leave the generator where that loop does, at every length: whole
   8-byte steps, a tail of 1 to 7 bytes, or both. Both builds of the
   kernel must give the same bytes as windows at [pos] 0, at every
   length from 1 to 130 (each side of 64 and 128, the widths a vector
   loop steps by) and at offsets off every alignment, leaving the
   bytes around the window alone. *)
let test_rng_fill_bytes_matches_int_loop () =
  List.iter
    (fun seed ->
      List.iter
        (fun len ->
          let a = Rng.create ~seed and b = Rng.create ~seed in
          let filled = Bytes.make len '?' in
          Rng.fill_bytes a filled;
          let looped = Bytes.init len (fun _ -> Char.chr (Rng.int b 256)) in
          let what = Printf.sprintf "seed %d, %d bytes" seed len in
          check cbool (what ^ ": same bytes") true (Bytes.equal filled looped);
          check cint (what ^ ": same next draw") (Rng.next b) (Rng.next a);
          List.iter
            (fun (build, fill) ->
              let at = Bytes.make len '?' in
              fill (Rng.create ~seed) ~pos:0 at ~off:0 ~len;
              check cbool (what ^ ": same bytes, " ^ build) true
                (Bytes.equal at looped))
            noise_fills)
        [ 0; 1; 7; 8; 9; 15; 16; 23; 4097; 2 * 1024 * 1024 ];
      let r = Rng.create ~seed in
      let looped = Bytes.init 130 (fun _ -> Char.chr (Rng.int r 256)) in
      for len = 1 to 130 do
        List.iter
          (fun off ->
            List.iter
              (fun (build, fill) ->
                let b = Bytes.make (off + len + 3) '?' in
                fill (Rng.create ~seed) ~pos:0 b ~off ~len;
                let what =
                  Printf.sprintf "seed %d, %d bytes at %d, %s" seed len off build
                in
                check cstr what (Bytes.sub_string looped 0 len)
                  (Bytes.sub_string b off len);
                check cstr (what ^ ": rest untouched")
                  (String.make off '?' ^ "???")
                  (Bytes.sub_string b 0 off ^ Bytes.sub_string b (off + len) 3))
              noise_fills)
          [ 0; 1; 3; 7; 8; 13 ]
      done)
    [ 0; 1; 3; 42; -5 ]

(* [fill_bytes_at] is a window of one whole [fill_bytes], at offsets
   and lengths off the 8-byte step, into the middle of a buffer whose
   other bytes it leaves alone, and it does not move the generator;
   through either build of the kernel. *)
let test_rng_fill_bytes_at_is_a_window () =
  let whole = Bytes.create 20_000 in
  Rng.fill_bytes (Rng.create ~seed:9) whole;
  List.iter
    (fun (build, fill) ->
      List.iter
        (fun (pos, len) ->
          let r = Rng.create ~seed:9 in
          let b = Bytes.make (len + 6) '?' in
          fill r ~pos b ~off:3 ~len;
          let what = Printf.sprintf "bytes %d+%d, %s" pos len build in
          check cstr what
            (Bytes.sub_string whole pos len)
            (Bytes.sub_string b 3 len);
          check cstr (what ^ ": rest untouched") "??????"
            (Bytes.sub_string b 0 3 ^ Bytes.sub_string b (len + 3) 3);
          check cint (what ^ ": generator unmoved")
            (Rng.next (Rng.create ~seed:9))
            (Rng.next r))
        [ (0, 13); (5, 3); (7, 4097); (4093, 11); (12_345, 1001); (19_999, 1);
          (63, 65); (129, 127) ])
    noise_fills

(* A fill allocates only the generator's new state, a boxed [int64]:
   3 words on both heaps ([Alloc.words]); the bound is that plus 25%.
   The per-byte [int r 256] loop boxes a state per byte, 3 words per
   byte. *)
let test_rng_fill_bytes_allocates_nothing () =
  let r = Rng.create ~seed:3 and b = Bytes.create (1024 * 1024) in
  let (), words = Alloc.words (fun () -> Rng.fill_bytes r b) in
  if words > 1.25 *. 3. then Alcotest.failf "fill_bytes allocated %.0f words" words

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "hostos.rng",
      [
        t "determinism" test_rng_determinism;
        t "bounds" test_rng_bounds;
        t "split" test_rng_split_independent;
        t "fill_bytes equals the int loop" test_rng_fill_bytes_matches_int_loop;
        t "fill_bytes allocates nothing" test_rng_fill_bytes_allocates_nothing;
        t "fill_bytes_at is a window of fill_bytes"
          test_rng_fill_bytes_at_is_a_window;
      ] );
    ( "hostos.clock",
      [
        t "charges" test_clock_charges;
        t "copy scales" test_clock_copy_scales;
        t "snapshot" test_clock_snapshot_independent;
      ] );
    ( "hostos.mem",
      [
        t "u64 roundtrip" test_mem_u64_roundtrip;
        t "u64 rejects 63-bit" test_mem_u64_rejects_63bit;
        t "cstr" test_mem_cstr;
        t "aspace mapping" test_aspace_mapping;
        t "aspace overlap rejected" test_aspace_overlap_rejected;
        t "aspace find_free" test_aspace_find_free;
        t "aspace cross-mapping read" test_aspace_cross_mapping_read;
        t "zero-base overlay semantics" test_mem_zero_base_overlay;
        t "zero-base overlay matches flat bytes" test_mem_zero_base_matches_bytes;
        t "page digest per page kind" test_mem_page_digest;
        QCheck_alcotest.to_alcotest prop_aspace_find_free_never_overlaps;
        QCheck_alcotest.to_alcotest prop_write_log_matches_copies;
        t "write log rejects marks of two buffers" test_mem_log_rejects_two_buffers;
        QCheck_alcotest.to_alcotest prop_generated_reads_as_written;
        t "generated pages on first touch" test_mem_generated_first_touch;
        t "generate is a logged write" test_mem_generate_is_logged;
        t "generate rejects CoW and unaligned ranges" test_mem_generate_rejects;
        t "attribution needs a mark" test_mem_attribution_needs_a_mark;
        t "attribution between marks" test_mem_attribution_between_marks;
        t "attribution counts silent writes"
          test_mem_attribution_counts_silent_writes;
        t "zero-source silent-write test" test_mem_zero_source_test;
      ] );
    ( "hostos.chan",
      [
        t "fifo" test_chan_fifo;
        t "eagain" test_chan_eagain_empty;
        t "capacity" test_chan_capacity;
        QCheck_alcotest.to_alcotest prop_chan_preserves_bytes;
      ] );
    ( "hostos.proc",
      [
        t "fd lifecycle" test_proc_fd_lifecycle;
        t "eventfd" test_eventfd_semantics;
        t "fd labels" test_proc_fd_labels;
        t "reap keeps descriptor holders" test_proc_reap;
      ] );
    ( "hostos.syscall",
      [
        t "mmap" test_syscall_mmap_and_memory;
        t "bad fd" test_syscall_bad_fd;
        t "seccomp" test_syscall_seccomp_blocks;
        t "process_vm rw" test_process_vm_rw;
        t "process_vm perms" test_process_vm_permissions;
        t "process_vm_readv EPERM" test_process_vm_readv_eperm;
        t "process_vm_readv ESRCH" test_process_vm_readv_esrch;
      ] );
    ( "hostos.ptrace",
      [
        t "attach perms" test_ptrace_attach_permissions;
        t "double attach" test_ptrace_double_attach_refused;
        t "inject syscall" test_ptrace_inject_syscall;
        t "inject respects seccomp" test_ptrace_inject_respects_seccomp;
        t "hooks fire and charge" test_ptrace_hooks_fire_and_charge;
      ] );
    ( "hostos.ebpf",
      [
        t "privilege" test_ebpf_requires_privilege;
        t "verifier" test_ebpf_verifier_rejects_huge;
        t "fires" test_ebpf_fires_with_output;
      ] );
    ( "hostos.unix",
      [
        t "fd passing" test_unix_socket_fd_passing;
        t "data" test_unix_socket_data;
      ] );
  ]
