module KV = Linux_guest.Kernel_version
module Klib = Linux_guest.Klib
module Guest = Linux_guest.Guest

type layout = {
  text_len : int;
  status_off : int;
  blob_off : int;
  total_len : int;
}

let status_devices_ready = 1
let status_done = 2
let status_err_open = 0x83
let status_err_write = 0x84
let status_err_spawn = 0x85

type kind = Console | Blk | Net | Ninep

type device = {
  kind : kind;
  name : string;
  virtio_id : int;
  err_status : int;
  note : string;
}

let devices =
  [
    {
      kind = Console;
      name = "console";
      virtio_id = Virtio.Console.device_id;
      err_status = 0x81;
      note = "console device registration";
    };
    {
      kind = Blk;
      name = "blk";
      virtio_id = Virtio.Blk.device_id;
      err_status = 0x82;
      note = "block device registration";
    };
    {
      kind = Net;
      name = "net";
      virtio_id = Virtio.Net.device_id;
      err_status = 0x86;
      note = "net device registration";
    };
    {
      kind = Ninep;
      name = "9p";
      virtio_id = Virtio.Ninep.device_id;
      err_status = 0x87;
      note = "9p device registration";
    };
  ]

let device kind = List.find (fun d -> d.kind = kind) devices

type placement = { kind : kind; window : int; gsi : int }

let base_symbol = "__vmsh_lib"
let entry_symbol = "vmsh_entry"
let exec_path = "/dev/.vmsh-exec"

let required_imports =
  [
    "printk"; "register_virtio_mmio_dev"; "register_virtio_pci_dev";
    "filp_open"; "filp_close"; "kernel_write"; "kthread_create_on_node";
    "wake_up_process";
  ]

(* Data area assembled alongside the ops; returns offsets. *)
module Data = struct
  type t = { buf : Buffer.t; mutable relocs : (int * int) list }
  (* relocs: (offset within data, addend relative to image base) *)

  let create () = { buf = Buffer.create 256; relocs = [] }

  let align t n =
    while Buffer.length t.buf mod n <> 0 do
      Buffer.add_char t.buf '\000'
    done

  let add_bytes t b =
    align t 8;
    let off = Buffer.length t.buf in
    Buffer.add_bytes t.buf b;
    off

  let add_string t s = add_bytes t (Bytes.of_string (s ^ "\000"))

  let add_u64_slot t v =
    align t 8;
    let off = Buffer.length t.buf in
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    Buffer.add_bytes t.buf b;
    off

  (* record that the u64 at [field_off] must hold image_base + target *)
  let pointer_fixup t ~field_off ~target = t.relocs <- (field_off, target) :: t.relocs
end

let build ~version ~guest_program ~pci placements =
  let register_import =
    if pci then "register_virtio_pci_dev" else "register_virtio_mmio_dev"
  in
  let data = Data.create () in
  let msg_loading = Data.add_string data "vmsh: side-loaded library starting" in
  let msg_done = Data.add_string data "vmsh: guest overlay process spawned" in
  let path_off = Data.add_string data exec_path in
  let descs =
    List.map
      (fun (p : placement) ->
        let d = device p.kind in
        ( d.err_status,
          Data.add_bytes data
            (Guest.encode_virtio_desc
               ~version_tag:(KV.virtio_desc_version version)
               ~device_type:d.virtio_id ~mmio_base:p.window ~gsi:p.gsi) ))
      placements
  in
  let thread_struct =
    Data.add_bytes data
      (Guest.encode_thread_struct
         ~version_tag:(KV.thread_struct_version version)
         ~kind:1 ~arg:0)
  in
  (* thread_struct.arg (offset +8) must point at the exec path *)
  Data.pointer_fixup data ~field_off:(thread_struct + 8) ~target:path_off;
  let fd_slot = Data.add_u64_slot data 0 in
  let pos_slot = Data.add_u64_slot data 0 in
  let prog_off = Data.add_bytes data guest_program in
  let prog_len = Bytes.length guest_program in
  let data_bytes = Buffer.to_bytes data.Data.buf in

  (* --- assemble ops with symbolic pushes --- *)
  (* A push is either an immediate, an imported symbol address, or an
     image-base-relative data address. *)
  let ops : [ `Op of Klib.op | `Push_import of string | `Push_data of int ] list ref =
    ref []
  in
  let emit op = ops := `Op op :: !ops
  and push_imm v = ops := `Op (Klib.Push v) :: !ops
  and push_import s = ops := `Push_import s :: !ops
  and push_data off = ops := `Push_data off :: !ops in
  let pc () = List.length !ops in
  (* the status page's offset is only known once the ops are counted:
     status writes push a placeholder that the second pass patches *)
  let status_pushes = ref [] in
  let push_status () =
    status_pushes := pc () :: !status_pushes;
    push_data 0 (* patched later *)
  in
  let write_status code =
    push_status ();
    push_imm code;
    emit Klib.Write64
  in
  (* error stubs are emitted at the end; record (site, code) and patch *)
  let err_sites = ref [] in
  let jneg_err code =
    err_sites := (pc (), code) :: !err_sites;
    emit (Klib.Jneg 0 (* patched *))
  in

  emit Klib.Tramp;
  (* printk(loading) *)
  push_data msg_loading;
  push_import "printk";
  emit (Klib.Call 1);
  emit Klib.Drop;
  List.iter
    (fun (err_status, desc) ->
      push_data desc;
      push_import register_import;
      emit (Klib.Call 1);
      jneg_err err_status)
    descs;
  write_status status_devices_ready;
  (* fd = filp_open(path, O_CREAT|O_WRONLY, 0755) *)
  push_data path_off;
  push_imm (Guest.o_creat lor Guest.o_wronly);
  push_imm 0o755;
  push_import "filp_open";
  emit (Klib.Call 3);
  emit Klib.Dup;
  jneg_err status_err_open;
  (* store fd *)
  push_data fd_slot;
  emit Klib.Swap;
  emit Klib.Write64;
  (* kernel_write(fd, prog, len) with the version's ABI *)
  push_data fd_slot;
  emit Klib.Read64;
  (match KV.rw_abi version with
  | KV.Rw_old ->
      (* (fd, pos, buf, count) *)
      push_imm 0;
      push_data prog_off;
      push_imm prog_len
  | KV.Rw_new ->
      (* (fd, buf, count, pos_ptr) *)
      push_data prog_off;
      push_imm prog_len;
      push_data pos_slot);
  push_import "kernel_write";
  emit (Klib.Call 4);
  emit Klib.Dup;
  jneg_err status_err_write;
  emit Klib.Drop;
  (* filp_close(fd) *)
  push_data fd_slot;
  emit Klib.Read64;
  push_import "filp_close";
  emit (Klib.Call 1);
  emit Klib.Drop;
  (* spawn the guest program *)
  push_data thread_struct;
  push_import "kthread_create_on_node";
  emit (Klib.Call 1);
  emit Klib.Dup;
  jneg_err status_err_spawn;
  push_import "wake_up_process";
  emit (Klib.Call 1);
  jneg_err status_err_spawn;
  write_status status_done;
  push_data msg_done;
  push_import "printk";
  emit (Klib.Call 1);
  emit Klib.Drop;
  emit Klib.Ret;
  (* error stubs: one per distinct code *)
  let codes = List.sort_uniq compare (List.map snd !err_sites) in
  let stub_pc =
    List.map
      (fun code ->
        let at = pc () in
        write_status code;
        emit Klib.Ret;
        (code, at))
      codes
  in
  (* resolve: materialize op list *)
  let op_list = List.rev !ops in
  let op_count = List.length op_list in
  let ops_len = op_count * Klib.op_size in
  let data_off = ((ops_len + 15) / 16) * 16 in
  let text_len = data_off + Bytes.length data_bytes in
  let status_off = ((text_len + 4095) / 4096) * 4096 in
  let blob_off = status_off + 0x100 in
  let total_len = status_off + 4096 in
  (* second pass: patch err sites and status pushes, build final ops +
     relocations *)
  let err_sites = !err_sites and status_pushes = !status_pushes in
  let relocs = ref [] in
  let final_ops =
    List.mapi
      (fun i item ->
        match item with
        | `Op (Klib.Jneg _) when List.mem_assoc i err_sites ->
            let code = List.assoc i err_sites in
            Klib.Jneg (List.assoc code stub_pc)
        | `Op op -> op
        | `Push_import s ->
            relocs :=
              {
                Elfkit.Elf.rel_offset = Klib.operand_offset i;
                rel_symbol = s;
                rel_addend = 0;
              }
              :: !relocs;
            Klib.Push 0
        | `Push_data off ->
            let target =
              if List.mem i status_pushes then status_off else data_off + off
            in
            relocs :=
              {
                Elfkit.Elf.rel_offset = Klib.operand_offset i;
                rel_symbol = base_symbol;
                rel_addend = target;
              }
              :: !relocs;
            Klib.Push 0)
      op_list
  in
  (* data pointer fixups *)
  List.iter
    (fun (field_off, target) ->
      relocs :=
        {
          Elfkit.Elf.rel_offset = data_off + field_off;
          rel_symbol = base_symbol;
          rel_addend = data_off + target;
        }
        :: !relocs)
    data.Data.relocs;
  let text = Bytes.make text_len '\000' in
  Bytes.blit (Klib.encode final_ops) 0 text 0 ops_len;
  Bytes.blit data_bytes 0 text data_off (Bytes.length data_bytes);
  let image =
    {
      Elfkit.Elf.text;
      symbols =
        [
          { Elfkit.Elf.sym_name = base_symbol; sym_value = Some 0 };
          { sym_name = entry_symbol; sym_value = Some 0 };
        ]
        @ List.map
            (fun s -> { Elfkit.Elf.sym_name = s; sym_value = None })
            required_imports;
      relocs = List.rev !relocs;
      entry = 0;
    }
  in
  (image, { text_len; status_off; blob_off; total_len })
