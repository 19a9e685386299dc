(* Adversarial-guest engine. One engine = one hostile guest kernel of a
   given class, stepping at the attach path's yield points.

   Two ground rules keep the chaos matrix meaningful:

   - the engine only does what a real guest could do: writes to its own
     physical memory, its own page tables, its own virtqueue rings. All
     writes go through [Kvm.Vm.write_phys], so they are attributed
     exactly like any guest store and the snapshot oracle excludes
     them — the oracle keeps judging *vmsh's* rollback, not the
     adversary's vandalism;

   - every decision comes from a private splitmix64 stream (the same
     idiom as the fault plans), so a (seed, class, yield-count) triple
     replays the same attack byte-identically — hostile cells stay
     double-run reproducible and [.vmshtrace] artifacts stay honest. *)

module H = Hostos
module Vm = Kvm.Vm
module Vmm = Hypervisor.Vmm
module Guest = Linux_guest.Guest
module Queue = Virtio.Queue

type cls = Toctou_scan | Balloon | Desc_chaos | Mem_churn

let all = [ Toctou_scan; Balloon; Desc_chaos; Mem_churn ]

let name = function
  | Toctou_scan -> "toctou-scan"
  | Balloon -> "balloon"
  | Desc_chaos -> "desc-chaos"
  | Mem_churn -> "mem-churn"

let of_name s = List.find_opt (fun c -> name c = s) all

type t = {
  cls : cls;
  vmm : Vmm.t;
  vm : Vm.t;
  host : H.Host.t;
  budget : int;
  rng : H.Rng.t;
  mutable steps_done : int;
  mutable saved : (int * bytes) list;  (** Toctou: phys -> original bytes *)
  mutable unmapped : (int * int) list;  (** Balloon: pte slot -> original *)
  mutable arena : int;  (** Mem_churn scratch base; 0 = not yet allocated *)
}

(* A bounded adversary: a real hostile guest gets unbounded CPU, but an
   unbounded simulated one would make cell cost a function of how many
   yield points the victim path happens to cross. 96 actions is several
   times any attach's yield count. *)
let default_budget = 96

let create ~seed ~cls vmm =
  {
    cls;
    vmm;
    vm = Vmm.kvm_vm vmm;
    host = Vmm.host vmm;
    budget = default_budget;
    rng = H.Rng.create ~seed:((seed * 2) + 1);
    steps_done = 0;
    saved = [];
    unmapped = [];
    arena = 0;
  }

let cls t = t.cls

(* [next mod n], not [H.Rng.int]: a non-positive [n] raises as before *)
let draw t n = H.Rng.next t.rng mod n

let read_u16 t pa =
  let b = Vm.read_phys t.vm pa 2 in
  Char.code (Bytes.get b 0) lor (Char.code (Bytes.get b 1) lsl 8)

let write_u16 t pa v =
  let b = Bytes.create 2 in
  Bytes.set b 0 (Char.chr (v land 0xff));
  Bytes.set b 1 (Char.chr ((v lsr 8) land 0xff));
  Vm.write_phys t.vm pa b

let write_u32 t pa v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Vm.write_phys t.vm pa b

(* --- toctou-scan: corrupt the ksymtab the scanner just read --- *)

(* Mutate only the first stretch of each region: certainly live data
   (the table and strings start at the region base), so every corruption
   is one the scanner or the use-time revalidation can actually see. *)
let toctou_window = 0x800
let toctou_span = 16

let step_toctou t g =
  match (draw t 3, t.saved) with
  | 0, (pa, orig) :: rest ->
      (* restore the oldest corruption: some schedules present a healed
         table to the rescan, covering the corrupt-then-restore race *)
      Vm.write_phys t.vm pa orig;
      t.saved <- rest;
      "restore"
  | _ ->
      let regions = Guest.scanner_target_regions g in
      let pbase, _, len = List.nth regions (draw t (List.length regions)) in
      let off = draw t (min len toctou_window - toctou_span) in
      let pa = pbase + off in
      let orig = Vm.read_phys t.vm pa toctou_span in
      let garbage =
        Bytes.init toctou_span (fun _ -> Char.chr (draw t 256))
      in
      Vm.write_phys t.vm pa garbage;
      t.saved <- t.saved @ [ (pa, orig) ];
      "corrupt"

(* --- balloon: steal scanned pages through the guest page table --- *)

let page_size = 4096

(* Phys address of the 4 KiB PTE mapping [va], or None when a level is
   absent or the mapping is huge (we never split huge mappings — the
   kernel image is 4 KiB-mapped, so scanned pages always resolve). *)
let pte_slot t ~cr3 va =
  let idx l = (va lsr (12 + (9 * l))) land 0x1ff in
  let entry table l = Vm.read_phys_u64 t.vm (table + (8 * idx l)) in
  let next e = e land lnot 0xfff in
  let e3 = entry cr3 3 in
  if e3 land 1 = 0 then None
  else
    let e2 = entry (next e3) 2 in
    if e2 land 1 = 0 then None
    else
      let e1 = entry (next e2) 1 in
      if e1 land 1 = 0 || e1 land X86.Page_table.Flags.huge <> 0 then None
      else Some (next e1 + (8 * idx 0))

let step_balloon t g =
  match (draw t 2, t.unmapped) with
  | 0, (pte, orig) :: rest ->
      (* deflate: give a stolen page back *)
      Vm.write_phys_u64 t.vm pte orig;
      t.unmapped <- rest;
      "deflate"
  | _ -> (
      let regions = Guest.scanner_target_regions g in
      let _, vbase, len = List.nth regions (draw t (List.length regions)) in
      let va = vbase + (draw t (len / page_size) * page_size) in
      let cr3 =
        match Vm.vcpus t.vm with
        | v :: _ -> (Vm.vcpu_regs v).X86.Regs.cr3
        | [] -> 0
      in
      match pte_slot t ~cr3 va with
      | Some pte ->
          let e = Vm.read_phys_u64 t.vm pte in
          if e land 1 <> 0 then begin
            Vm.write_phys_u64 t.vm pte 0;
            t.unmapped <- t.unmapped @ [ (pte, e) ]
          end;
          "inflate"
      | None -> "inflate-absent")

(* --- desc-chaos: self-modifying virtqueue descriptors --- *)

(* Rewrites descriptors of vmsh-blk's queue under the device half: an
   out-of-guest-RAM address, a length far past the device's per-buffer
   bound, or a self-loop. A poisoned in-flight chain is exactly the
   "length mutated after validation" attack; a poisoned free descriptor
   is fully rewritten by the driver's next add (also realistic — the
   mutation raced an allocation). Ring *indices* are left alone: a
   guest corrupting those only deadlocks its own driver, which would
   make every cell measure the guest DoS-ing itself rather than vmsh's
   hardening. The forged-index paths are covered by unit tests where
   the test owns both ring halves. *)
let oob_addr = 0x7f_ffff_f000
let oversize_len = 1 lsl 21

let step_desc t g =
  match Guest.vmsh_blk g with
  | None -> "wait-probe"
  | Some blk ->
      let q = Virtio.Blk.Driver.queue blk in
      let qsz = Queue.Driver.qsz q in
      let desc, _avail, _used = Queue.Driver.rings q in
      let d = draw t qsz in
      let base = desc + (d * 16) in
      (match draw t 3 with
      | 0 ->
          Vm.write_phys_u64 t.vm base oob_addr;
          "desc-oob-addr"
      | 1 ->
          write_u32 t (base + 8) oversize_len;
          "desc-oversize-len"
      | _ ->
          (* self-loop: flags |= F_NEXT, next = self *)
          write_u16 t (base + 12) (read_u16 t (base + 12) lor 0x1);
          write_u16 t (base + 14) d;
          "desc-self-loop")

(* --- mem-churn: dirty-page bursts under memory pressure --- *)

let churn_pages = 16

let step_mem t g =
  if t.arena = 0 then begin
    t.arena <- Guest.alloc_pages g ~count:churn_pages;
    "arena"
  end
  else begin
    let page = t.arena + (draw t churn_pages * page_size) in
    let fill = Char.chr (draw t 256) in
    let b = Bytes.make page_size fill in
    Vm.write_phys t.vm page b;
    if draw t 4 = 0 then begin
      (* silent write: same bytes again — the overlay/journal paths
         must tell it apart from a diverging write *)
      Vm.write_phys t.vm page b;
      "churn-silent"
    end
    else "churn"
  end

let note t act =
  Observe.Metrics.incr
    (Observe.Metrics.counter
       (Observe.metrics t.host.H.Host.observe)
       "hostile.steps");
  Trace.Recorder.record t.host.H.Host.recorder ~kind:"hostile.step"
    ~args:
      [
        ("cls", Trace.S (name t.cls));
        ("n", Trace.I t.steps_done);
        ("act", Trace.S act);
      ]
    ()

let step t =
  if t.steps_done < t.budget then
    match Vmm.guest t.vmm with
    | None -> ()
    | Some g ->
        let act =
          match t.cls with
          | Toctou_scan -> step_toctou t g
          | Balloon -> step_balloon t g
          | Desc_chaos -> step_desc t g
          | Mem_churn -> step_mem t g
        in
        t.steps_done <- t.steps_done + 1;
        note t act
