(* The rollback oracle: hash-based snapshots of guest state.

   [capture] digests guest physical memory page-by-page (through the
   simulated KVM's direct view — zero virtual-time cost, so snapshots
   never perturb schedules or benchmarks) plus every vCPU register
   file. Pages are hashed in place, and a page the guest never wrote
   costs a precomputed zero-page digest: guest RAM is sparse and an
   unmaterialised page is zero by construction (see [Hostos.Mem]).
   [diff] then proves a detached/aborted attach restored the guest
   byte-for-byte: memslot sets equal, every page digest equal outside
   the exclusion set, registers equal.

   The exclusion set is page-granular and comes from two sources the
   caller supplies: intervals the guest itself dirtied while VMSH was
   attached (ground truth from [Kvm.Vm.dirty_intervals], windowed with
   {!dirty_since}) and the journal's post-seal late-write intervals
   (device ring updates jointly owned with the guest that requested
   the I/O). *)

let page_size = 4096

type t = {
  slots : (int * int * int * string array) list;
      (* (slot, gpa, size, per-page digests), sorted by slot *)
  regs : (int * string) list; (* (vcpu index, digest of register file) *)
  dirty_seen : int; (* length of the VM's dirty-interval list at capture *)
}

let digest_regs regs = Digest.bytes (Kvm.Api.regs_to_bytes regs)

let capture vm =
  let slots =
    Kvm.Vm.memslots vm
    |> List.map (fun (s : Kvm.Vm.memslot) ->
           let pages = (s.size + page_size - 1) / page_size in
           let digests =
             Array.init pages (fun i ->
                 let off = i * page_size in
                 let len = min page_size (s.size - off) in
                 Kvm.Vm.digest_phys vm (s.gpa + off) len)
           in
           (s.slot, s.gpa, s.size, digests))
    |> List.sort compare
  in
  let regs =
    Kvm.Vm.vcpus vm
    |> List.map (fun v ->
           (Kvm.Vm.vcpu_index v, digest_regs (Kvm.Vm.vcpu_regs v)))
    |> List.sort compare
  in
  { slots; regs; dirty_seen = List.length (Kvm.Vm.dirty_intervals vm) }

(* Guest-write intervals accumulated since [snap] was captured. The
   VM's list is prepend-only, so the delta is its newest prefix. *)
let dirty_since vm snap =
  let all = Kvm.Vm.dirty_intervals vm in
  let fresh = List.length all - snap.dirty_seen in
  List.filteri (fun i _ -> i < fresh) all

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
   [] means the guest state is byte-identical modulo excluded pages. *)
let diff ~before ~after ~exclude =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let key_of (slot, gpa, size, _) = (slot, gpa, size) in
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
    (fun (slot, gpa, size, bpages) ->
      match
        List.find_opt (fun s -> key_of s = (slot, gpa, size)) after.slots
      with
      | None -> ()
      | Some (_, _, _, apages) ->
          let excl = excluded_pages ~gpa ~size exclude in
          Array.iteri
            (fun p bd ->
              if (not (Hashtbl.mem excl p)) && apages.(p) <> bd then
                note "memslot %d page %d (gpa 0x%x) differs" slot p
                  (gpa + (p * page_size)))
            bpages)
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
   replay. Folds every page digest and register digest in slot order,
   so two snapshots digest equal iff the captured state is equal. *)
let digest t =
  let b = Buffer.create 4096 in
  List.iter
    (fun (slot, gpa, size, pages) ->
      Buffer.add_string b (Printf.sprintf "%d:%x:%d;" slot gpa size);
      Array.iter (Buffer.add_string b) pages)
    t.slots;
  List.iter
    (fun (idx, d) ->
      Buffer.add_string b (string_of_int idx);
      Buffer.add_string b d)
    t.regs;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))
