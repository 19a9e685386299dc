module Syscall = Hostos.Syscall
module Layout = X86.Layout
module PT = X86.Page_table

type loaded = {
  va_base : int;
  gpa_base : int;
  entry_va : int;
  status_gpa : int;
  blob_va : int;
  saved_regs : X86.Regs.t;
}

let memslot_base_index = 61

(* The lowest id from [memslot_base_index] up that the VM's memslot dump
   leaves free. A second attach to a VM still attached thus takes a new
   slot: replacing the first one's would unback its library and the
   page-table pages it allocated. *)
let free_memslot slots =
  let rec go id =
    if List.exists (fun s -> s.Hyp_mem.slot = id) slots then go (id + 1) else id
  in
  go memslot_base_index

let pt_arena_pages = 16

let ( let* ) = Result.bind

let page_align n = (n + Layout.page_size - 1) land lnot (Layout.page_size - 1)

(* Undo entries for the mutations [load] performs in the hypervisor /
   guest. A failing undo raises so [Journal.replay] can report it as the
   rollback failure. *)
let record_undo mem ~what f =
  match Hyp_mem.journal mem with
  | Some j ->
      Journal.record j ~what (fun () ->
          match f () with Ok _ -> () | Error e -> Vmsh_error.fail e)
  | None -> ()

let load ~tracee ~mem ~analysis ~image ~layout =
  let region_len =
    page_align layout.Klib_builder.total_len + (pt_arena_pages * Layout.page_size)
  in
  (* guest-physical placement: top of the existing allocations, rounded
     up generously so nothing the hypervisor adds later collides *)
  let gpa_base = max (page_align (Hyp_mem.top_of_guest_phys mem)) 0x1000_0000 in
  (* 1. fresh memory in the hypervisor *)
  let* hva = Tracee.inject tracee ~nr:Syscall.Nr.mmap ~args:[| 0; region_len |] in
  record_undo mem ~what:"klib region mmap" (fun () ->
      Tracee.inject tracee ~nr:Syscall.Nr.munmap ~args:[| hva; region_len |]);
  (* Everything we write inside our own region needs no byte journal —
     the memslot-removal undo tears the whole range down. Only PTE links
     planted in pre-existing guest page-table pages get byte entries. *)
  (match Hyp_mem.journal mem with
  | Some j -> Journal.note_owned j ~gpa:gpa_base ~len:region_len
  | None -> ());
  (* 2. register it as a memslot *)
  let slot_index = free_memslot (Hyp_mem.slots mem) in
  let memslot_arg ~size =
    let b = Bytes.make Kvm.Api.memory_region_size '\000' in
    Bytes.set_int32_le b 0 (Int32.of_int slot_index);
    Bytes.set_int64_le b 8 (Int64.of_int gpa_base);
    Bytes.set_int64_le b 16 (Int64.of_int size);
    Bytes.set_int64_le b 24 (Int64.of_int hva);
    b
  in
  let* _ =
    Tracee.inject_ioctl tracee ~fd:(Tracee.vm_fd tracee)
      ~code:Kvm.Api.set_user_memory_region ~arg:(memslot_arg ~size:region_len)
      ()
  in
  Hyp_mem.add_slot mem
    { Hyp_mem.slot = slot_index; gpa = gpa_base; size = region_len; hva };
  record_undo mem ~what:"vmsh memslot" (fun () ->
      (* size 0 deletes the slot in KVM; then forget our remote view *)
      let r =
        Tracee.inject_ioctl tracee ~fd:(Tracee.vm_fd tracee)
          ~code:Kvm.Api.set_user_memory_region ~arg:(memslot_arg ~size:0) ()
      in
      Hyp_mem.remove_slot mem ~gpa:gpa_base;
      r);
  (* 3. link the image for its final virtual address *)
  let va_base =
    analysis.Symbol_analysis.kernel_base + analysis.Symbol_analysis.image_len
  in
  let* text, entry_va =
    match
      Elfkit.Elf.link image ~base:va_base
        ~resolve:(fun name -> Symbol_analysis.resolve analysis name)
    with
    | Ok v -> Ok v
    | Error e -> Error (Vmsh_error.Context ("linking guest library", Vmsh_error.Msg e))
  in
  (* 4. copy into the new guest-physical region *)
  Hyp_mem.write_phys mem ~gpa:gpa_base text;
  (* 5. map into guest virtual memory after the kernel image, using
     page-table pages from our own region's arena *)
  let* regs =
    match Tracee.get_vcpu_regs tracee (List.hd (Tracee.vcpus tracee)) with
    | Ok r -> Ok r
    | Error e -> Error (Vmsh_error.Context ("reading vCPU registers", e))
  in
  let arena_base = gpa_base + page_align layout.Klib_builder.total_len in
  let arena_next = ref arena_base in
  let alloc () =
    let pa = !arena_next in
    arena_next := pa + Layout.page_size;
    if !arena_next > gpa_base + region_len then
      Vmsh_error.fail (Vmsh_error.Msg "vmsh loader: page-table arena exhausted");
    Hyp_mem.write_phys mem ~gpa:pa (Bytes.make Layout.page_size '\000');
    pa
  in
  (match
     PT.map_range (Hyp_mem.pt_access mem) ~alloc ~root:regs.X86.Regs.cr3
       ~virt:va_base ~phys:gpa_base
       ~len:(page_align layout.Klib_builder.total_len)
       ~flags:PT.Flags.(present lor writable)
   with
  | () -> ()
  | exception Failure e -> Vmsh_error.fail (Vmsh_error.Msg e));
  (* 6. stash the interrupted context where the trampoline finds it *)
  let blob_gpa = gpa_base + layout.Klib_builder.blob_off in
  Hyp_mem.write_phys mem ~gpa:blob_gpa (Kvm.Api.regs_to_bytes regs);
  Ok
    {
      va_base;
      gpa_base;
      entry_va;
      status_gpa = gpa_base + layout.Klib_builder.status_off;
      blob_va = va_base + layout.Klib_builder.blob_off;
      saved_regs = regs;
    }

let redirect ~tracee ~mem loaded =
  let regs = X86.Regs.copy loaded.saved_regs in
  regs.X86.Regs.rip <- loaded.entry_va;
  regs.rdi <- loaded.blob_va;
  match Tracee.set_vcpu_regs tracee (List.hd (Tracee.vcpus tracee)) regs with
  | Ok () ->
      record_undo mem ~what:"vCPU redirect" (fun () ->
          Tracee.set_vcpu_regs tracee
            (List.hd (Tracee.vcpus tracee))
            loaded.saved_regs);
      Ok ()
  | Error e -> Error (Vmsh_error.Context ("redirecting vCPU", e))

let poll_status ~mem loaded = Hyp_mem.read_phys_u64 mem loaded.status_gpa
