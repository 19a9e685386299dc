module Mem = Hostos.Mem
module Proc = Hostos.Proc
module Fd = Hostos.Fd
module Clock = Hostos.Clock
module Host = Hostos.Host
module Errno = Hostos.Errno
module Syscall = Hostos.Syscall
module Api = Kvm.Api
module Vm = Kvm.Vm
module Gmem = Virtio.Gmem
module Layout = X86.Layout
module Guest = Linux_guest.Guest

exception Stuck of string

type dev_slot = {
  base : int;  (** register window (BAR0 under PCI) *)
  cfg : (int * bytes) option;  (** PCI config window, if any *)
  regs : Virtio.Mmio.Device.t;
  mutable queue_halves : Virtio.Queue.Device.t option array;
  gsi : int;
  mutable irqfd : Fd.t option;
  ioeventfd : Fd.t option;
  process : t -> dev_slot -> unit;
}

and t = {
  h : Host.t;
  profx : Profile.t;
  p : Proc.t;
  io_thread : Proc.thread;
  vm : Vm.t;
  vm_fd : Fd.t;
  vcpu_fds : Fd.t list;
  ram_hva : int;
  ram_size : int;
  scratch : int;  (** hva of a page for ioctl structs *)
  databuf : int;  (** hva of a 256 KiB bounce buffer for disk IO *)
  diskb : Blockdev.Backend.t;
  disk_fd : Fd.t;
  mutable devices : dev_slot list;
  mutable guest_t : Guest.t option;
  mutable is_shutdown : bool;
}

let host t = t.h
let proc t = t.p
let pid t = t.p.Proc.pid
let profile t = t.profx
let kvm_vm t = t.vm
let disk t = t.diskb
let guest t = t.guest_t

let guest_exn t =
  match t.guest_t with
  | Some g -> g
  | None -> invalid_arg "Vmm.guest_exn: not booted"

let crashed t = t.is_shutdown

let main_thread t = Proc.main_thread t.p

let sys t th ~nr ~args = Syscall.call t.h t.p th ~nr ~args

(* Device view of guest RAM: resolve gpa through the VMM's own mapping,
   charging memory-copy cost. *)
let vmm_gmem t =
  {
    Gmem.read_into =
      (fun ~addr buf ~off ~len ->
        Clock.copy_bytes t.h.Host.clock len;
        Mem.Addr_space.read_into t.p.Proc.aspace (t.ram_hva + addr) buf off len);
    write_from =
      (fun ~addr buf ~off ~len ->
        Clock.copy_bytes t.h.Host.clock len;
        (* device completions serve guest-initiated requests: write them
           as the guest's, so the rollback oracle blames the guest, not
           VMSH *)
        Vm.write_phys_from t.vm addr buf ~off ~len);
  }

(* --- the block device iothread --- *)

let create_queue t slot qi =
  match slot.queue_halves.(qi) with
  | Some q -> Some q
  | None ->
      let qs = Virtio.Mmio.Device.queue slot.regs qi in
      if not qs.Virtio.Mmio.Device.ready then None
      else begin
        let q =
          Virtio.Queue.Device.create (vmm_gmem t) ~qsz:qs.Virtio.Mmio.Device.num
            ~desc:qs.Virtio.Mmio.Device.desc ~avail:qs.Virtio.Mmio.Device.avail
            ~used:qs.Virtio.Mmio.Device.used
        in
        slot.queue_halves.(qi) <- Some q;
        Some q
      end

let signal_completion t slot =
  Virtio.Mmio.Device.assert_irq slot.regs;
  match slot.irqfd with
  | Some fd ->
      (* the iothread signals the irqfd with a write syscall *)
      Mem.Addr_space.write_u64 t.p.Proc.aspace t.scratch 1;
      ignore
        (sys t t.io_thread ~nr:Syscall.Nr.write ~args:[| fd.Fd.num; t.scratch; 8 |])
  | None ->
      (* MSI-X style direct injection (Cloud Hypervisor) *)
      Vm.signal_gsi t.vm ~gsi:slot.gsi

let drain_eventfd t slot =
  match slot.ioeventfd with
  | Some fd ->
      ignore
        (sys t t.io_thread ~nr:Syscall.Nr.read ~args:[| fd.Fd.num; t.scratch; 8 |])
  | None -> ()

(* Disk backend routed through pread64/pwrite64 syscalls of the
   iothread, with a bounce buffer in VMM memory (QEMU's aio path). A
   failed read yields zeros. *)
let syscall_blk_backend t =
  let sector_size = Virtio.Blk.sector_size in
  let disk = Blockdev.Backend.dev t.diskb in
  let io nr ~sector ~len =
    sys t t.io_thread ~nr
      ~args:[| t.disk_fd.Fd.num; t.databuf; len; sector * sector_size |]
  in
  {
    Virtio.Blk.Device.capacity_sectors =
      Blockdev.Dev.size_bytes disk / sector_size;
    read_into =
      (fun ~sector buf ~len ->
        let got = max 0 (io Syscall.Nr.pread64 ~sector ~len) in
        Mem.Addr_space.read_into t.p.Proc.aspace t.databuf buf 0 got;
        Bytes.fill buf got (len - got) '\000');
    write_from =
      (fun ~sector buf ~len ->
        Mem.Addr_space.write_from t.p.Proc.aspace t.databuf buf 0 len;
        ignore (io Syscall.Nr.pwrite64 ~sector ~len));
    flush = (fun () -> disk.Blockdev.Dev.flush ());
    discard =
      (fun ~sector ~len ->
        let bs = Blockdev.Dev.block_size in
        disk.Blockdev.Dev.trim (sector * sector_size / bs) (len / bs));
  }

let process_blk blk t slot =
  drain_eventfd t slot;
  match create_queue t slot 0 with
  | None -> ()
  | Some q ->
      let n = Virtio.Blk.Device.process q (vmm_gmem t) blk in
      if n > 0 then signal_completion t slot

(* --- the 9p device --- *)

let process_ninep root t slot =
  drain_eventfd t slot;
  match create_queue t slot 0 with
  | None -> ()
  | Some q ->
      let n =
        Virtio.Ninep.Device.process q (vmm_gmem t)
          (Virtio.Ninep.Device.backend_of_simplefs ~clock:t.h.Host.clock root)
      in
      if n > 0 then signal_completion t slot

(* --- setup --- *)

let ioctl_or_fail t th ~fd ~code ~arg ~what =
  let ret = sys t th ~nr:Syscall.Nr.ioctl ~args:[| fd; code; arg |] in
  if ret < 0 then
    failwith (Printf.sprintf "%s: %s failed (%d)" t.profx.Profile.prof_name what ret);
  ret

let add_device t ~slot_index ~regs ~process ~want_irqfd =
  let th = main_thread t in
  let pci = not t.profx.Profile.mmio_transport in
  let stride = Layout.virtio_mmio_stride in
  (* MMIO: one register window per slot. PCI (Cloud Hypervisor): a
     config window followed by the register BAR, per slot. *)
  let base =
    if pci then Layout.hyp_pci_base + (slot_index * 2 * stride) + stride
    else Layout.virtio_mmio_base + (slot_index * stride)
  in
  let gsi = 16 + slot_index in
  (* an MSI-X-only irqchip needs an MSI route before the irqfd *)
  (if pci then begin
     Kvm.Api.write_msi_route t.p.Proc.aspace ~ptr:t.scratch
       { Kvm.Api.route_gsi = gsi; msi_addr = 0xfee0_0000; msi_data = gsi };
     ignore
       (sys t th ~nr:Syscall.Nr.ioctl
          ~args:[| t.vm_fd.Fd.num; Kvm.Api.set_gsi_routing; t.scratch |])
   end);
  (* doorbell: ioeventfd on the QUEUE_NOTIFY register *)
  let ioev_num = sys t th ~nr:Syscall.Nr.eventfd2 ~args:[||] in
  let ioeventfd = Result.to_option (Proc.fd t.p ioev_num) in
  Api.write_ioeventfd_req t.p.Proc.aspace ~ptr:t.scratch
    {
      Api.datamatch = 0;
      ioev_addr = base + Virtio.Mmio.reg_queue_notify;
      ioev_len = 4;
      ioev_fd = ioev_num;
      ioev_flags = 0;
    };
  ignore
    (ioctl_or_fail t th ~fd:t.vm_fd.Fd.num ~code:Api.ioeventfd ~arg:t.scratch
       ~what:"KVM_IOEVENTFD");
  (* completion: irqfd if the VM's irqchip supports plain GSIs *)
  let irqfd =
    if not want_irqfd then None
    else begin
      let ev_num = sys t th ~nr:Syscall.Nr.eventfd2 ~args:[||] in
      Api.write_irqfd_req t.p.Proc.aspace ~ptr:t.scratch
        { Api.irqfd_fd = ev_num; gsi; irqfd_flags = 0 };
      let ret =
        sys t th ~nr:Syscall.Nr.ioctl
          ~args:[| t.vm_fd.Fd.num; Api.irqfd; t.scratch |]
      in
      if ret < 0 then None else Result.to_option (Proc.fd t.p ev_num)
    end
  in
  let cfg =
    if not pci then None
    else
      let device_type =
        (* recover the virtio type from the register machine's identity *)
        let b = Virtio.Mmio.Device.read regs ~off:Virtio.Mmio.reg_device_id ~len:4 in
        Int32.to_int (Bytes.get_int32_le b 0)
      in
      Some
        ( base - stride,
          Virtio.Pci.Config.encode ~device_type ~bar0:base ~msix_gsi:gsi )
  in
  let slot =
    {
      base;
      cfg;
      regs;
      queue_halves = Array.make 4 None;
      gsi;
      irqfd;
      ioeventfd;
      process;
    }
  in
  (match ioeventfd with
  | Some fd -> Vm.add_eventfd_waiter t.vm ~fd (fun () -> slot.process t slot)
  | None -> ());
  Virtio.Mmio.Device.set_notify regs (fun ~queue:_ -> slot.process t slot);
  t.devices <- t.devices @ [ slot ]

type fork_source = {
  fs_ram : bytes;
  fs_ram_digests : Mem.page_digests;
  fs_databuf : bytes;
}

let create h ~profile:profx ~disk:diskb ?(ram_mb = 64) ?(vcpus = 1)
    ?(disable_seccomp = false) ?ninep_root ?fork () =
  let p = Host.spawn h ~name:profx.Profile.process_name ~uid:1000 () in
  (* A fork maps guest RAM and the bounce buffer as CoW overlays over
     the baseline's frozen regions instead of allocating private
     zeroed pages — the linked-clone analogue of mmapping the baseline
     file MAP_PRIVATE. The mmap syscalls below then pick these up. *)
  (match fork with
  | None -> ()
  | Some f ->
      let ram_size = ram_mb * 1024 * 1024 in
      if Bytes.length f.fs_ram <> ram_size then
        invalid_arg
          (Printf.sprintf
             "Vmm.create: baseline RAM is %d bytes but the VM wants %d"
             (Bytes.length f.fs_ram) ram_size);
      if Bytes.length f.fs_databuf <> 256 * 1024 then
        invalid_arg "Vmm.create: baseline bounce buffer is not 256 KiB";
      p.Proc.mmap_backing <-
        Some
          (fun len ->
            if len = Bytes.length f.fs_ram then
              Mem.cow ~digests:f.fs_ram_digests f.fs_ram
            else if len = Bytes.length f.fs_databuf then Mem.cow f.fs_databuf
            else Mem.create len));
  let io_thread = Proc.add_thread p ~name:"iothread" in
  let th = Proc.main_thread p in
  let kvm_fd = Vm.dev_kvm h p in
  let vmfd_num =
    Syscall.call h p th ~nr:Syscall.Nr.ioctl
      ~args:[| kvm_fd.Fd.num; Api.create_vm; 0 |]
  in
  if vmfd_num < 0 then failwith "KVM_CREATE_VM failed";
  let vm_fd =
    match Proc.fd p vmfd_num with Ok f -> f | Error _ -> assert false
  in
  let vm = Option.get (Vm.vm_of_fd vm_fd) in
  if not profx.Profile.mmio_transport then Vm.set_gsi_irqfd_support vm false;
  (* scratch page, bounce buffer and guest RAM *)
  let scratch = Syscall.call h p th ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  let databuf =
    Syscall.call h p th ~nr:Syscall.Nr.mmap ~args:[| 0; 256 * 1024 |]
  in
  let ram_size = ram_mb * 1024 * 1024 in
  let ram_hva = Syscall.call h p th ~nr:Syscall.Nr.mmap ~args:[| 0; ram_size |] in
  p.Proc.mmap_backing <- None;
  Api.write_memory_region p.Proc.aspace ~ptr:scratch
    {
      Api.slot = 0;
      flags = 0;
      guest_phys_addr = 0;
      memory_size = ram_size;
      userspace_addr = ram_hva;
    };
  let ret =
    Syscall.call h p th ~nr:Syscall.Nr.ioctl
      ~args:[| vmfd_num; Api.set_user_memory_region; scratch |]
  in
  if ret < 0 then failwith "KVM_SET_USER_MEMORY_REGION failed";
  let vcpu_fds =
    List.init vcpus (fun i ->
        let n =
          Syscall.call h p th ~nr:Syscall.Nr.ioctl
            ~args:[| vmfd_num; Api.create_vcpu; i |]
        in
        match Proc.fd p n with Ok f -> f | Error _ -> assert false)
  in
  let disk_fd =
    Proc.install_fd p (fun ~num ->
        Fd.make ~num ~ops:(Blockdev.Backend.fd_ops diskb)
          ~label:"/var/lib/images/disk.img" ())
  in
  let t =
    {
      h;
      profx;
      p;
      io_thread;
      vm;
      vm_fd;
      vcpu_fds;
      ram_hva;
      ram_size;
      scratch;
      databuf;
      diskb;
      disk_fd;
      devices = [];
      guest_t = None;
      is_shutdown = false;
    }
  in
  (* the boot disk at slot 0 (MMIO transport, or virtio-pci for Cloud
     Hypervisor) *)
  begin
    let capacity =
      Blockdev.Dev.size_bytes (Blockdev.Backend.dev diskb)
      / Virtio.Blk.sector_size
    in
    let regs =
      Virtio.Mmio.Device.create ~device_id:Virtio.Blk.device_id ~num_queues:1
        ~config:(Virtio.Blk.Device.config ~capacity_sectors:capacity)
        ()
    in
    add_device t ~slot_index:0 ~regs
      ~process:(process_blk (Virtio.Blk.Device.create (syscall_blk_backend t)))
      ~want_irqfd:true;
    match (profx.Profile.has_ninep, ninep_root) with
    | true, Some root ->
        let regs9 =
          Virtio.Mmio.Device.create ~device_id:Virtio.Ninep.device_id
            ~num_queues:1 ~config:(Bytes.make 8 '\000') ()
        in
        add_device t ~slot_index:2 ~regs:regs9 ~process:(process_ninep root)
          ~want_irqfd:true
    | _ -> ()
  end;
  (* Firecracker applies its per-thread filters only after setup, right
     before entering the run loop — which is why they catch VMSH's
     injected syscalls but not the VMM's own initialisation. The vCPU
     (main) thread gets the tight filter; the API/io thread keeps the
     laxer management filter. *)
  (if profx.Profile.seccomp = Profile.Per_thread_filters && not disable_seccomp
   then
     List.iter
       (fun thr ->
         thr.Proc.seccomp <-
           Some
             (if thr == io_thread then Profile.seccomp_api_filter
              else Profile.seccomp_filter))
       p.Proc.threads);
  t

(* --- the exit loop --- *)

let handle_mmio_exit t ~phys_addr ~len ~is_write ~data =
  let dev =
    List.find_opt
      (fun d ->
        phys_addr >= d.base && phys_addr < d.base + Layout.virtio_mmio_stride)
      t.devices
  in
  let cfg_dev =
    List.find_opt
      (fun d ->
        match d.cfg with
        | Some (cbase, _) ->
            phys_addr >= cbase && phys_addr < cbase + Layout.virtio_mmio_stride
        | None -> false)
      t.devices
  in
  let vcpu =
    match Vm.vcpus t.vm with v :: _ -> v | [] -> assert false
  in
  match (dev, cfg_dev) with
  | Some d, _ ->
      let off = phys_addr - d.base in
      if is_write then Virtio.Mmio.Device.write d.regs ~off data
      else
        let resp = Virtio.Mmio.Device.read d.regs ~off ~len in
        Api.write_mmio_response (Vm.vcpu_run_page vcpu) resp
  | None, Some d ->
      (* PCI config space access *)
      if not is_write then begin
        let cbase, header = Option.get d.cfg in
        let off = phys_addr - cbase in
        let resp =
          Bytes.init len (fun i ->
              if off + i < Bytes.length header then Bytes.get header (off + i)
              else '\xff')
        in
        Api.write_mmio_response (Vm.vcpu_run_page vcpu) resp
      end
  | None, None ->
      (* unassigned MMIO: reads return zero, writes are dropped *)
      if not is_write then
        Api.write_mmio_response (Vm.vcpu_run_page vcpu) (Bytes.make len '\000')

let run_until_idle ?(max_exits = 2_000_000) t =
  let th = main_thread t in
  let vcpu_fd = List.hd t.vcpu_fds in
  let rec loop exits hlt_streak =
    if exits > max_exits then
      raise (Stuck (Printf.sprintf "%s: exit budget exhausted" t.profx.Profile.prof_name));
    match Vm.run_vcpu t.h t.p th ~vcpu_fd with
    | Api.Exit_hlt ->
        if Vm.has_runnable t.vm then
          if hlt_streak > 10_000 then
            raise
              (Stuck
                 (Printf.sprintf
                    "%s: guest makes no progress despite runnable work"
                    t.profx.Profile.prof_name))
          else loop (exits + 1) (hlt_streak + 1)
        else ()
    | Api.Exit_mmio { phys_addr; len; is_write; data } ->
        handle_mmio_exit t ~phys_addr ~len ~is_write ~data;
        loop (exits + 1) 0
    | Api.Exit_shutdown -> t.is_shutdown <- true
    | Api.Exit_other _ -> loop (exits + 1) 0
  in
  loop 0 0

let boot ?boot_rng ?prebuilt_image t ~version =
  let rng =
    match boot_rng with
    | Some r -> r
    | None -> Hostos.Rng.split t.h.Host.rng
  in
  let g = Guest.boot ~vm:t.vm ~version ~rng ?prebuilt_image () in
  t.guest_t <- Some g;
  run_until_idle t;
  g

(* Freeze the regions a fork shares: called on a baked baseline VM at
   the attach-ready point, before anything attaches. *)
let freeze_fork_state t =
  let mem_at what hva =
    match Mem.Addr_space.resolve t.p.Proc.aspace hva with
    | Some (m, 0) -> m
    | _ -> invalid_arg ("Vmm.freeze_fork_state: cannot resolve " ^ what)
  in
  let ram = Mem.freeze (mem_at "guest RAM" t.ram_hva) in
  {
    fs_ram = ram;
    fs_ram_digests = Mem.page_digests ram;
    fs_databuf = Mem.freeze (mem_at "bounce buffer" t.databuf);
  }

let run_task t ~name thunk =
  Vm.enqueue_task t.vm ~name thunk;
  run_until_idle t

let in_guest t f =
  let result = ref None in
  run_task t ~name:"in-guest" (fun () -> result := Some (f ()));
  match !result with
  | Some v -> v
  | None -> failwith "Vmm.in_guest: guest context never completed"
