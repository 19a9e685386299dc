module Host = Hostos.Host
module Ebpf = Hostos.Ebpf

let program_name = "vmsh_memslot_dump"

(* One 32-byte record per slot: id, gpa, size, hva. *)
let record_len = 32

let encode_slots slots =
  let fields =
    List.concat_map (fun (s : Hyp_mem.slot) -> [ s.slot; s.gpa; s.size; s.hva ]) slots
  in
  let b = Bytes.create (4 + (8 * List.length fields)) in
  Bytes.set_int32_le b 0 (Int32.of_int (List.length slots));
  List.iteri (fun k v -> Bytes.set_int64_le b (4 + (8 * k)) (Int64.of_int v)) fields;
  b

let decode_slots b =
  if Bytes.length b < 4 then None
  else
    let n = Int32.to_int (Bytes.get_int32_le b 0) in
    if n < 0 || Bytes.length b < 4 + (record_len * n) then None
    else
      Some
        (List.init n (fun i ->
             let field k =
               Int64.to_int (Bytes.get_int64_le b (4 + (record_len * i) + (8 * k)))
             in
             { Hyp_mem.slot = field 0; gpa = field 1; size = field 2; hva = field 3 }))

(* The "program": reads the memslot table from the kvm_vm_ioctl context
   and streams it into a perf buffer the attacher polls. [ring] plays
   the perf ring buffer; its insn_count reflects the small fixed-size
   loop of the real implementation. *)
let make_prog ring =
  {
    Ebpf.name = program_name;
    insn_count = 96;
    run =
      (fun ctx ->
        match ctx.Ebpf.kdata with
        | Kvm.Vm.Kvm_memslots slots ->
            let encoded = encode_slots slots in
            ctx.Ebpf.output <- Some encoded;
            ring := Some encoded
        | _ -> ());
  }

let discover tracee =
  let h = Tracee.host tracee in
  let vmsh = Tracee.vmsh_proc tracee in
  let ring = ref None in
  match Host.attach_ebpf h ~caller:vmsh ~hook:"kvm_vm_ioctl" (make_prog ring) with
  | Error e ->
      Error (Vmsh_error.Injection ("attaching eBPF program requires CAP_BPF", e))
  | Ok () ->
      (* Trigger: inject a harmless unknown VM ioctl — kvm_vm_ioctl (and
         so the hook) runs on entry regardless of the ioctl's result. *)
      ignore (Tracee.inject_ioctl tracee ~fd:(Tracee.vm_fd tracee) ~code:0xAE00 ());
      Host.detach_ebpf h ~hook:"kvm_vm_ioctl" ~name:program_name;
      (match !ring with
      | None -> Error (Vmsh_error.Msg "eBPF program produced no memslot dump")
      | Some b -> (
          match decode_slots b with
          | Some slots when slots <> [] -> Ok slots
          | Some _ -> Error (Vmsh_error.Msg "memslot dump is empty")
          | None -> Error (Vmsh_error.Msg "malformed memslot dump")))
