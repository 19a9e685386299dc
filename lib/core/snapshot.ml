(* The rollback oracle: snapshots of guest state over the memory write
   log.

   [capture] hashes no memory. It takes one write-log mark per memslot
   backing ([Hostos.Mem.mark]) and digests every vCPU register file;
   neither costs virtual time, so snapshots never perturb schedules or
   benchmarks. [diff] then proves a detached/aborted attach restored
   the guest byte-for-byte: memslot sets equal, every page's digest at
   the two captures equal outside the exclusion set, registers equal.
   A page not written since the earlier capture held the same bytes at
   both, so [diff] checks only the pages the log says were written,
   and [digest] hashes a page only when it is asked for one.

   The exclusion set is page-granular. For two captures of one buffer,
   the log itself excludes the pages the guest wrote in between: every
   [Kvm.Vm.write_phys] attributes its pages ([Hostos.Mem.attribute]).
   The caller supplies only what the log cannot know: the journal's
   post-seal late writes (device ring updates jointly owned with the
   guest that requested the I/O) and any intervals of its own. *)

module Mem = Hostos.Mem

let page_size = Mem.page_size

type slot = {
  slot : int;
  gpa : int;
  size : int;  (* page-aligned: KVM rejects any other memslot *)
  mark : Mem.mark;  (* on the slot's backing; shared by slots on one buffer *)
  first : int;  (* the backing's page under the slot's page 0 *)
}

type t = {
  slots : slot list;  (* sorted by slot *)
  regs : (int * string) list; (* (vcpu index, digest of register file) *)
}

let digest_regs regs = Digest.bytes (Kvm.Api.regs_to_bytes regs)

let capture vm =
  let marks = ref [] in
  let mark_of m =
    match List.assq_opt m !marks with
    | Some k -> k
    | None ->
        let k = Mem.mark m in
        marks := (m, k) :: !marks;
        k
  in
  let slots =
    Kvm.Vm.memslots vm
    |> List.map (fun (s : Kvm.Vm.memslot) ->
           let m, off = Kvm.Vm.memslot_backing vm s in
           {
             slot = s.slot;
             gpa = s.gpa;
             size = s.size;
             mark = mark_of m;
             first = off / page_size;
           })
    |> List.sort (fun a b -> compare a.slot b.slot)
  in
  let regs =
    Kvm.Vm.vcpus vm
    |> List.map (fun v ->
           (Kvm.Vm.vcpu_index v, digest_regs (Kvm.Vm.vcpu_regs v)))
    |> List.sort compare
  in
  { slots; regs }

(* The guest's pages since [snap], read from the attribution bitmaps
   of each slot's backing. *)
let dirty_since _vm snap =
  List.sort (fun a b -> compare a.gpa b.gpa) snap.slots
  |> List.concat_map (fun s ->
         let pages = ref [] in
         Mem.iter_attributed s.mark ~first:s.first ~count:(s.size / page_size)
           (fun i ->
             let gpa = s.gpa + ((i - s.first) * page_size) in
             pages := (gpa, page_size) :: !pages);
         List.rev !pages)

(* Page indices of [slot] covered by any (gpa, len) interval. *)
let excluded_pages ~gpa ~size intervals =
  let excluded = Hashtbl.create 16 in
  List.iter
    (fun (base, len) ->
      if len > 0 && base < gpa + size && base + len > gpa then begin
        let lo = max base gpa and hi = min (base + len) (gpa + size) in
        let first = (lo - gpa) / page_size
        and last = (hi - 1 - gpa) / page_size in
        for p = first to last do
          Hashtbl.replace excluded p ()
        done
      end)
    intervals;
  excluded

(* Every discrepancy between two snapshots, as human-readable lines;
   [] means the guest state is byte-identical modulo excluded pages.
   Two captures of one slot on one buffer compare only the pages
   written since the earlier one, and skip those the guest wrote in
   between; any other pair compares every page. *)
let diff ~before ~after ~exclude =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let key_of s = (s.slot, s.gpa, s.size) in
  let bkeys = List.map key_of before.slots
  and akeys = List.map key_of after.slots in
  List.iter
    (fun ((slot, gpa, size) as k) ->
      if not (List.mem k akeys) then
        note "memslot %d (gpa 0x%x, %d bytes) vanished" slot gpa size)
    bkeys;
  List.iter
    (fun ((slot, gpa, size) as k) ->
      if not (List.mem k bkeys) then
        note "memslot %d (gpa 0x%x, %d bytes) leaked" slot gpa size)
    akeys;
  List.iter
    (fun b ->
      match List.find_opt (fun a -> key_of a = key_of b) after.slots with
      | None -> ()
      | Some a ->
          let excl = excluded_pages ~gpa:b.gpa ~size:b.size exclude in
          let check p =
            if
              (not (Hashtbl.mem excl p))
              && Mem.digest_at b.mark (b.first + p)
                 <> Mem.digest_at a.mark (a.first + p)
            then
              note "memslot %d page %d (gpa 0x%x) differs" b.slot p
                (b.gpa + (p * page_size))
          in
          let count = b.size / page_size in
          if Mem.marked b.mark == Mem.marked a.mark && b.first = a.first
          then begin
            Mem.iter_attributed b.mark ~until:a.mark ~first:b.first ~count
              (fun i -> Hashtbl.replace excl (i - b.first) ());
            Mem.iter_written b.mark a.mark ~first:b.first ~count (fun i ->
                check (i - b.first))
          end
          else
            for p = 0 to count - 1 do
              check p
            done)
    before.slots;
  List.iter
    (fun (idx, bd) ->
      match List.assoc_opt idx after.regs with
      | None -> note "vCPU %d vanished" idx
      | Some ad -> if ad <> bd then note "vCPU %d registers differ" idx)
    before.regs;
  List.rev !problems

let check ~before ~after ~exclude = diff ~before ~after ~exclude = []

(* One hex string summarizing the whole snapshot — what the flight
   recorder's replay-diff oracle compares between a live run and its
   replay. Folds every page digest at the capture and every register
   digest in slot order, so two snapshots digest equal iff the
   captured state is equal. *)
let digest t =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b (Printf.sprintf "%d:%x:%d;" s.slot s.gpa s.size);
      for p = 0 to (s.size / page_size) - 1 do
        Buffer.add_string b (Mem.digest_at s.mark (s.first + p))
      done)
    t.slots;
  List.iter
    (fun (idx, d) ->
      Buffer.add_string b (string_of_int idx);
      Buffer.add_string b d)
    t.regs;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))
