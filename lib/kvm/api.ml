module Mem = Hostos.Mem

let create_vm = 0xAE01
let create_vcpu = 0xAE41
let set_user_memory_region = 0x4020AE46
let run = 0xAE80
let get_regs = 0x8090AE81
let set_regs = 0x4090AE82
let irqfd = 0x4020AE76
let ioeventfd = 0x4040AE79
let set_ioregion = 0x4028AEE0
let set_gsi_routing = 0x4008AE6A
let get_vcpu_mmap_size = 0xAE04

let name code =
  if code = create_vm then "KVM_CREATE_VM"
  else if code = create_vcpu then "KVM_CREATE_VCPU"
  else if code = set_user_memory_region then "KVM_SET_USER_MEMORY_REGION"
  else if code = run then "KVM_RUN"
  else if code = get_regs then "KVM_GET_REGS"
  else if code = set_regs then "KVM_SET_REGS"
  else if code = irqfd then "KVM_IRQFD"
  else if code = ioeventfd then "KVM_IOEVENTFD"
  else if code = set_ioregion then "KVM_SET_IOREGION"
  else if code = set_gsi_routing then "KVM_SET_GSI_ROUTING"
  else if code = get_vcpu_mmap_size then "KVM_GET_VCPU_MMAP_SIZE"
  else Printf.sprintf "KVM_0x%X" code

let user_mem_slots = 509

let exit_hlt = 5
let exit_mmio = 6
let exit_shutdown = 8

(* Struct access goes through a process address space: a struct is a
   pointer-sized argument to ioctl, resolved in the caller's memory. *)
let field_mem aspace ptr =
  match Mem.Addr_space.resolve aspace ptr with
  | Some (m, off) -> (m, off)
  | None -> invalid_arg (Printf.sprintf "Api: struct pointer 0x%x unmapped" ptr)

type memory_region = {
  slot : int;
  flags : int;
  guest_phys_addr : int;
  memory_size : int;
  userspace_addr : int;
}

let memory_region_size = 32

let write_memory_region aspace ~ptr r =
  let m, off = field_mem aspace ptr in
  Mem.write_u32 m off r.slot;
  Mem.write_u32 m (off + 4) r.flags;
  Mem.write_u64 m (off + 8) r.guest_phys_addr;
  Mem.write_u64 m (off + 16) r.memory_size;
  Mem.write_u64 m (off + 24) r.userspace_addr

let read_memory_region aspace ~ptr =
  let m, off = field_mem aspace ptr in
  {
    slot = Mem.read_u32 m off;
    flags = Mem.read_u32 m (off + 4);
    guest_phys_addr = Mem.read_u64 m (off + 8);
    memory_size = Mem.read_u64 m (off + 16);
    userspace_addr = Mem.read_u64 m (off + 24);
  }

let regs_size = 19 * 8

let reg_fields (r : X86.Regs.t) =
  [|
    r.rax; r.rbx; r.rcx; r.rdx; r.rsi; r.rdi; r.rbp; r.rsp; r.r8; r.r9;
    r.r10; r.r11; r.r12; r.r13; r.r14; r.r15; r.rip; r.rflags; r.cr3;
  |]

let write_regs aspace ~ptr regs =
  let m, off = field_mem aspace ptr in
  Array.iteri (fun i v -> Mem.write_u64 m (off + (8 * i)) v) (reg_fields regs)

let read_regs aspace ~ptr =
  let m, off = field_mem aspace ptr in
  let f i = Mem.read_u64 m (off + (8 * i)) in
  {
    X86.Regs.rax = f 0; rbx = f 1; rcx = f 2; rdx = f 3; rsi = f 4;
    rdi = f 5; rbp = f 6; rsp = f 7; r8 = f 8; r9 = f 9; r10 = f 10;
    r11 = f 11; r12 = f 12; r13 = f 13; r14 = f 14; r15 = f 15;
    rip = f 16; rflags = f 17; cr3 = f 18;
  }

let regs_to_bytes regs =
  let b = Bytes.create regs_size in
  Array.iteri
    (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v))
    (reg_fields regs);
  b

let regs_of_bytes b =
  let f i = Int64.to_int (Bytes.get_int64_le b (8 * i)) in
  {
    X86.Regs.rax = f 0; rbx = f 1; rcx = f 2; rdx = f 3; rsi = f 4;
    rdi = f 5; rbp = f 6; rsp = f 7; r8 = f 8; r9 = f 9; r10 = f 10;
    r11 = f 11; r12 = f 12; r13 = f 13; r14 = f 14; r15 = f 15;
    rip = f 16; rflags = f 17; cr3 = f 18;
  }

type irqfd_req = { irqfd_fd : int; gsi : int; irqfd_flags : int }

let irqfd_req_size = 16

let write_irqfd_req aspace ~ptr r =
  let m, off = field_mem aspace ptr in
  Mem.write_u32 m off r.irqfd_fd;
  Mem.write_u32 m (off + 4) r.gsi;
  Mem.write_u32 m (off + 8) r.irqfd_flags

let read_irqfd_req aspace ~ptr =
  let m, off = field_mem aspace ptr in
  {
    irqfd_fd = Mem.read_u32 m off;
    gsi = Mem.read_u32 m (off + 4);
    irqfd_flags = Mem.read_u32 m (off + 8);
  }

type ioeventfd_req = {
  datamatch : int;
  ioev_addr : int;
  ioev_len : int;
  ioev_fd : int;
  ioev_flags : int;
}

let write_ioeventfd_req aspace ~ptr r =
  let m, off = field_mem aspace ptr in
  Mem.write_u64 m off r.datamatch;
  Mem.write_u64 m (off + 8) r.ioev_addr;
  Mem.write_u32 m (off + 16) r.ioev_len;
  Mem.write_u32 m (off + 20) r.ioev_fd;
  Mem.write_u32 m (off + 24) r.ioev_flags

let read_ioeventfd_req aspace ~ptr =
  let m, off = field_mem aspace ptr in
  {
    datamatch = Mem.read_u64 m off;
    ioev_addr = Mem.read_u64 m (off + 8);
    ioev_len = Mem.read_u32 m (off + 16);
    ioev_fd = Mem.read_u32 m (off + 20);
    ioev_flags = Mem.read_u32 m (off + 24);
  }

type ioregion_req = {
  region_gpa : int;
  region_size : int;
  region_rfd : int;
  region_wfd : int;
  region_flags : int;
}

let ioregion_req_size = 32

let read_ioregion_req aspace ~ptr =
  let m, off = field_mem aspace ptr in
  {
    region_gpa = Mem.read_u64 m off;
    region_size = Mem.read_u64 m (off + 8);
    region_rfd = Mem.read_u32 m (off + 16);
    region_wfd = Mem.read_u32 m (off + 20);
    region_flags = Mem.read_u32 m (off + 24);
  }

type msi_route = { route_gsi : int; msi_addr : int; msi_data : int }

let msi_route_size = 16

let write_msi_route aspace ~ptr r =
  let m, off = field_mem aspace ptr in
  Mem.write_u32 m off r.route_gsi;
  Mem.write_u64 m (off + 4) r.msi_addr;
  Mem.write_u32 m (off + 12) r.msi_data

let read_msi_route aspace ~ptr =
  let m, off = field_mem aspace ptr in
  {
    route_gsi = Mem.read_u32 m off;
    msi_addr = Mem.read_u64 m (off + 4);
    msi_data = Mem.read_u32 m (off + 12);
  }

let run_page_size = 4096

type exit_info =
  | Exit_hlt
  | Exit_mmio of { phys_addr : int; len : int; is_write : bool; data : bytes }
  | Exit_shutdown
  | Exit_other of int

let write_exit page info =
  match info with
  | Exit_hlt -> Mem.write_u32 page 0 exit_hlt
  | Exit_shutdown -> Mem.write_u32 page 0 exit_shutdown
  | Exit_other r -> Mem.write_u32 page 0 r
  | Exit_mmio { phys_addr; len; is_write; data } ->
      Mem.write_u32 page 0 exit_mmio;
      Mem.write_u64 page 8 phys_addr;
      Mem.write_u32 page 16 len;
      Mem.write_u32 page 20 (if is_write then 1 else 0);
      Mem.fill page 24 8 '\000';
      Mem.write_bytes page 24 (Bytes.sub data 0 (min 8 (Bytes.length data)))

let exit_size = 32

let u32_at b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let decode_exit b =
  let reason = u32_at b 0 in
  if reason = exit_hlt then Exit_hlt
  else if reason = exit_shutdown then Exit_shutdown
  else if reason = exit_mmio then
    let len = u32_at b 16 in
    Exit_mmio
      {
        phys_addr = Int64.to_int (Bytes.get_int64_le b 8);
        len;
        is_write = u32_at b 20 = 1;
        data = Bytes.sub b 24 (min 8 len);
      }
  else Exit_other reason

let write_mmio_response page data =
  Mem.fill page 24 8 '\000';
  Mem.write_bytes page 24 (Bytes.sub data 0 (min 8 (Bytes.length data)))

let read_mmio_response page ~len = Mem.read_bytes page 24 (min 8 len)

type ioregion_msg =
  | Ioreg_read of { offset : int; len : int }
  | Ioreg_write of { offset : int; data : bytes }

let ioregion_frame = 32

let encode_ioregion_msg msg =
  let b = Bytes.make ioregion_frame '\000' in
  (match msg with
  | Ioreg_read { offset; len } ->
      Bytes.set_uint8 b 0 0;
      Bytes.set_int64_le b 8 (Int64.of_int offset);
      Bytes.set_int32_le b 16 (Int32.of_int len)
  | Ioreg_write { offset; data } ->
      Bytes.set_uint8 b 0 1;
      Bytes.set_int64_le b 8 (Int64.of_int offset);
      Bytes.set_int32_le b 16 (Int32.of_int (Bytes.length data));
      Bytes.blit data 0 b 20 (min 8 (Bytes.length data)));
  b

let decode_ioregion_msg b =
  if Bytes.length b < ioregion_frame then None
  else
    let offset = Int64.to_int (Bytes.get_int64_le b 8) in
    let len = Int32.to_int (Bytes.get_int32_le b 16) in
    match Bytes.get_uint8 b 0 with
    | 0 -> Some (Ioreg_read { offset; len })
    | 1 -> Some (Ioreg_write { offset; data = Bytes.sub b 20 (min 8 len) })
    | _ -> None

let encode_ioregion_resp data =
  let b = Bytes.make ioregion_frame '\000' in
  Bytes.set_uint8 b 0 2;
  Bytes.set_int32_le b 4 (Int32.of_int (Bytes.length data));
  Bytes.blit data 0 b 8 (min 8 (Bytes.length data));
  b

let decode_ioregion_resp b =
  if Bytes.length b < ioregion_frame || Bytes.get_uint8 b 0 <> 2 then None
  else
    let len = Int32.to_int (Bytes.get_int32_le b 4) in
    Some (Bytes.sub b 8 (min 8 len))
