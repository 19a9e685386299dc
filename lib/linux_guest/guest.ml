module Mem = Hostos.Mem
module Clock = Hostos.Clock
module Rng = Hostos.Rng
module Errno = Hostos.Errno
module Layout = X86.Layout
module PT = X86.Page_table
module Vm = Kvm.Vm
module Sfs = Blockdev.Simplefs

(* Fixed physical layout (guest-physical addresses). *)
let pt_arena_start = 0x10_0000
let pt_arena_pages = 768
let kernel_phys = 0x40_0000
let image_pad = 0x20_0000

(* Fixed offsets inside the kernel image. The analyzer never learns
   these; it must rediscover the sections by scanning. *)
let buildid_off = 0x200
let idle_off = 0x800
let kfun_base_off = 0x1000
let kfun_stride = 0x40
let text_size = 0x10_0000
let banner_off = 0x10_0100
let strings_off = 0x11_0000
let table_off = 0x12_0000
let image_size = 0x14_0000

let o_creat = 0x40
let o_wronly = 0x1

type kfile = { kpath : string; mutable kpos : int }

type t = {
  vmh : Vm.t;
  ver : Kernel_version.t;
  rng : Rng.t;
  clock : Clock.t;
  ram_size : int;
  pt_root : int;
  mutable pt_next : int;
  mutable phys_brk : int;
  kvirt : int;
  mutable exports_list : (string * int) list;
  kfun_tbl : (int, string * (args:int list -> int)) Hashtbl.t;
  idle : int;
  vfs_t : Vfs.t;
  root_ns_id : int;
  cache : Page_cache.t;
  mutable proc_list : Gproc.t list;
  mutable next_gpid : int;
  mutable dmesg_rev : string list;
  mutable crash : string option;
  mutable klib_running : bool;
  mutable boot_blk_drv : Virtio.Blk.Driver.t option;
  mutable boot_ninep_drv : Virtio.Ninep.Driver.t option;
  mutable boot_rootfs : Sfs.t option;
  mutable vmsh_blk_drv : Virtio.Blk.Driver.t option;
  mutable vmsh_console_drv : Virtio.Console.Driver.t option;
  mutable vmsh_net_drv : Virtio.Net.Driver.t option;
  mutable vmsh_ninep_drv : Virtio.Ninep.Driver.t option;
  kfiles : (int, kfile) Hashtbl.t;
  mutable next_kfd : int;
  mutable pending_threads : (int * int * int) list;
      (** (handle, kind, arg) created but not woken *)
}

let vm t = t.vmh

(* The guest structures the attach scanner reads (ksymtab strings and
   table) — ground truth a hostile guest running inside this kernel
   would know and mutate to race the scan. *)
let scanner_target_regions t =
  [
    (kernel_phys + strings_off, t.kvirt + strings_off, table_off - strings_off);
    (kernel_phys + table_off, t.kvirt + table_off, image_size - table_off);
  ]
let kernel_image t = Vm.read_phys t.vmh kernel_phys image_size
let observe_of t = (Vm.host t.vmh).Hostos.Host.observe
let version t = t.ver
let kernel_virt t = t.kvirt
let page_cache t = t.cache
let crashed t = t.crash
let dmesg t = List.rev t.dmesg_rev
let printk t s = t.dmesg_rev <- s :: t.dmesg_rev
let vfs t = t.vfs_t
let root_ns t = t.root_ns_id
let rootfs t = t.boot_rootfs
let procs t = t.proc_list
let find_proc t ~gpid = List.find_opt (fun p -> p.Gproc.gpid = gpid) t.proc_list
let exports t = t.exports_list

let boot_blk_exn t =
  match t.boot_blk_drv with
  | Some d -> d
  | None -> invalid_arg "Guest.boot_blk_exn: no boot block device"

let boot_ninep t = t.boot_ninep_drv
let vmsh_blk t = t.vmsh_blk_drv
let vmsh_console t = t.vmsh_console_drv
let vmsh_net t = t.vmsh_net_drv
let vmsh_ninep t = t.vmsh_ninep_drv

let init_proc t =
  match t.proc_list with
  | p :: _ -> p
  | [] -> invalid_arg "Guest.init_proc: no processes"

(* --- memory services --- *)

let alloc_pages t ~count =
  let pa = t.phys_brk in
  t.phys_brk <- pa + (count * Layout.page_size);
  if t.phys_brk > t.ram_size then failwith "guest: out of physical memory";
  pa

let pt_alloc t () =
  let pa = t.pt_next in
  t.pt_next <- pa + Layout.page_size;
  if t.pt_next > pt_arena_start + (pt_arena_pages * Layout.page_size) then
    failwith "guest: page-table arena exhausted";
  pa

let cr3 t =
  match Vm.vcpus t.vmh with
  | v :: _ -> (Vm.vcpu_regs v).X86.Regs.cr3
  | [] -> t.pt_root

let translate t va = PT.translate (Vm.pt_access t.vmh) ~root:(cr3 t) va

let vread t ~va ~len =
  let out = Bytes.create len in
  let rec go va dst remaining =
    if remaining > 0 then begin
      let page_rem = Layout.page_size - (va land (Layout.page_size - 1)) in
      let chunk = min remaining page_rem in
      match translate t va with
      | None -> failwith (Printf.sprintf "guest vread: 0x%x unmapped" va)
      | Some pa ->
          Bytes.blit (Vm.read_phys t.vmh pa chunk) 0 out dst chunk;
          go (va + chunk) (dst + chunk) (remaining - chunk)
    end
  in
  go va 0 len;
  out

let vwrite t ~va b =
  let rec go va src remaining =
    if remaining > 0 then begin
      let page_rem = Layout.page_size - (va land (Layout.page_size - 1)) in
      let chunk = min remaining page_rem in
      match translate t va with
      | None -> failwith (Printf.sprintf "guest vwrite: 0x%x unmapped" va)
      | Some pa ->
          Vm.write_phys t.vmh pa (Bytes.sub b src chunk);
          go (va + chunk) (src + chunk) (remaining - chunk)
    end
  in
  go va 0 (Bytes.length b)

let vread_cstr t ~va ~max =
  let rec scan acc va remaining =
    if remaining = 0 then String.concat "" (List.rev acc)
    else
      let b = vread t ~va ~len:1 in
      if Bytes.get b 0 = '\000' then String.concat "" (List.rev acc)
      else scan (Bytes.to_string b :: acc) (va + 1) (remaining - 1)
  in
  scan [] va max

(* --- processes --- *)

let spawn_proc t ~name ?(uid = 0) ?mnt_ns ?(cgroup = "/") ?caps ?apparmor () =
  let gpid = t.next_gpid in
  t.next_gpid <- gpid + 1;
  let p =
    Gproc.make ~gpid ~name ~uid
      ~mnt_ns:(Option.value mnt_ns ~default:t.root_ns_id)
      ~cgroup ?caps ?apparmor ()
  in
  t.proc_list <- t.proc_list @ [ p ];
  p

let file_read t ~ns path = Vfs.read_file t.vfs_t ~ns path
let file_write t ~ns path data = Vfs.write_file t.vfs_t ~ns path data

let run_as t ~proc ~name thunk =
  Vm.enqueue_task t.vmh ~name:(Printf.sprintf "%s(pid %d)" name proc.Gproc.gpid)
    thunk

let spawn_container t ~name ~image =
  let ns = Vfs.new_namespace t.vfs_t ~from:t.root_ns_id in
  (* the container sees its image files through an overlay dir in its
     own namespace; we approximate by writing them into the root fs
     under a container-private prefix and binding that as the ns root *)
  (match t.boot_rootfs with
  | Some fs ->
      List.iter
        (fun (path, content) ->
          let cpath = "/containers/" ^ name ^ path in
          let rec ensure prefix = function
            | [] | [ _ ] -> ()
            | d :: rest ->
                let dir = prefix ^ "/" ^ d in
                (match Sfs.mkdir fs dir with Ok _ | Error _ -> ());
                ensure dir rest
          in
          ensure "" (String.split_on_char '/' cpath |> List.filter (( <> ) ""));
          ignore (Sfs.write_file fs cpath (Bytes.of_string content)))
        image
  | None -> ());
  spawn_proc t ~name ~uid:0 ~mnt_ns:ns
    ~cgroup:(Printf.sprintf "/sys/fs/cgroup/system.slice/docker-%s.scope" name)
    ~caps:Gproc.container_caps
    ~apparmor:("docker-default-" ^ name) ()

(* Interpreters by the first line of the programs they run: written only
   while modules initialise, so no session can add to it. *)
let interpreters : (string, bytes -> (t -> Gproc.t -> unit) option) Hashtbl.t =
  Hashtbl.create 1

let register_interpreter ~magic interp = Hashtbl.replace interpreters magic interp

(* --- struct codecs (shared with the library builder) --- *)

let encode_virtio_desc ~version_tag ~device_type ~mmio_base ~gsi =
  let len = if version_tag >= 2 then 24 else 16 in
  let b = Bytes.make len '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int version_tag);
  Bytes.set_int32_le b 4 (Int32.of_int device_type);
  Bytes.set_int64_le b 8 (Int64.of_int mmio_base);
  if version_tag >= 2 then begin
    Bytes.set_int32_le b 16 (Int32.of_int gsi);
    Bytes.set_int32_le b 20 0l
  end;
  b

let encode_thread_struct ~version_tag ~kind ~arg =
  let len = if version_tag >= 2 then 24 else 16 in
  let b = Bytes.make len '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int version_tag);
  Bytes.set_int32_le b 4 (Int32.of_int kind);
  Bytes.set_int64_le b 8 (Int64.of_int arg);
  b

(* --- virtio driver probing (guest code; performs effects) --- *)

let mmio_access base =
  {
    Virtio.Mmio.mread =
      (fun ~off ~len ->
        Effect.perform (Vm.Mmio (Vm.Mmio_read { addr = base + off; len })));
    mwrite =
      (fun ~off b ->
        ignore
          (Effect.perform (Vm.Mmio (Vm.Mmio_write { addr = base + off; data = b }))));
  }

let probe_device t ~base ~expect ~init =
  let access = mmio_access base in
  let magic =
    let b = access.Virtio.Mmio.mread ~off:Virtio.Mmio.reg_magic ~len:4 in
    Int32.to_int (Bytes.get_int32_le b 0) land 0xffffffff
  in
  if magic <> Virtio.Mmio.magic_value then Error "no device"
  else
    init ~gmem:(Virtio.Gmem.of_vm t.vmh) ~access
      ~alloc:(fun ~size ->
        alloc_pages t ~count:((size + Layout.page_size - 1) / Layout.page_size))
  |> fun r ->
  ignore expect;
  r

(* --- kernel function implementations --- *)

let neg_errno e = -Errno.to_code e

(* Shared by the MMIO and PCI register kfuns: probe [base] as
   [device_type], stash the driver and attach its metrics. [via] only
   colours the printk lines. *)
let register_device_at t ~device_type ~base ~via =
  let registered what =
    printk t (Printf.sprintf "%s: virtio%s device registered" what via);
    0
  in
  let failed what e =
    printk t (Printf.sprintf "%s: probe failed: %s" what e);
    neg_errno Errno.ENODEV
  in
  let probe name init store =
    match
      probe_device t ~base ~expect:device_type
        ~init:(init ~obs:(observe_of t) ~name)
    with
    | Ok drv ->
        store drv;
        registered name
    | Error e -> failed name e
  in
  if device_type = Virtio.Blk.device_id then
    probe "vmsh-blk" Virtio.Blk.Driver.init (fun d -> t.vmsh_blk_drv <- Some d)
  else if device_type = Virtio.Console.device_id then
    probe "vmsh-console" Virtio.Console.Driver.init (fun d ->
        t.vmsh_console_drv <- Some d)
  else if device_type = Virtio.Net.device_id then
    probe "vmsh-net" Virtio.Net.Driver.init (fun d -> t.vmsh_net_drv <- Some d)
  else if device_type = Virtio.Ninep.device_id then
    probe "vmsh-9p" Virtio.Ninep.Driver.init (fun d ->
        t.vmsh_ninep_drv <- Some d)
  else neg_errno Errno.ENODEV

(* Shared by the MMIO and PCI register kfuns: read the descriptor at the
   one argument, refuse a version tag this kernel does not expect, and
   hand its device type and base (a register window or a PCI config
   window) to [register]. Faults reading guest memory fail with EFAULT. *)
let with_virtio_desc t ~bus register ~args =
  match args with
  | [ desc_va ] -> (
      try
        let tag =
          Int32.to_int (Bytes.get_int32_le (vread t ~va:desc_va ~len:4) 0)
        in
        let expected = Kernel_version.virtio_desc_version t.ver in
        if tag <> expected then begin
          printk t
            (Printf.sprintf
               "%s: bad device descriptor version %d (kernel expects %d)" bus
               tag expected);
          neg_errno Errno.EINVAL
        end
        else
          let hdr = vread t ~va:desc_va ~len:16 in
          register
            ~device_type:(Int32.to_int (Bytes.get_int32_le hdr 4) land 0xffffffff)
            ~base:(Int64.to_int (Bytes.get_int64_le hdr 8))
      with Failure msg ->
        printk t (bus ^ ": fault reading descriptor: " ^ msg);
        neg_errno Errno.EFAULT)
  | _ -> neg_errno Errno.EINVAL

let install_kfuns t =
  let reg name impl va = Hashtbl.replace t.kfun_tbl va (name, impl) in
  let funs : (string * (args:int list -> int)) list =
    [
      ( "printk",
        fun ~args ->
          match args with
          | [ str_va ] ->
              (try printk t (vread_cstr t ~va:str_va ~max:256) with _ -> ());
              0
          | _ -> neg_errno Errno.EINVAL );
      ( "register_virtio_mmio_dev",
        with_virtio_desc t ~bus:"virtio_mmio" (fun ~device_type ~base ->
            register_device_at t ~device_type ~base ~via:"") );
      ( "register_virtio_pci_dev",
        with_virtio_desc t ~bus:"virtio_pci" (fun ~device_type:_ ~base ->
            (* walk the PCI config space of the device *)
            let cfg_read ~off ~len =
              Effect.perform (Vm.Mmio (Vm.Mmio_read { addr = base + off; len }))
            in
            match Virtio.Pci.Config.probe ~read:cfg_read with
            | None ->
                printk t "virtio_pci: no virtio device in config space";
                neg_errno Errno.ENODEV
            | Some cfg ->
                register_device_at t
                  ~device_type:cfg.Virtio.Pci.Config.device_type
                  ~base:cfg.Virtio.Pci.Config.bar0 ~via:"-pci (MSI-X)") );
      ( "unregister_virtio_mmio_dev",
        fun ~args ->
          match args with
          | [ device_type ] ->
              if device_type = Virtio.Blk.device_id then t.vmsh_blk_drv <- None
              else if device_type = Virtio.Console.device_id then
                t.vmsh_console_drv <- None
              else if device_type = Virtio.Net.device_id then
                t.vmsh_net_drv <- None
              else if device_type = Virtio.Ninep.device_id then
                t.vmsh_ninep_drv <- None;
              0
          | _ -> neg_errno Errno.EINVAL );
      ( "filp_open",
        fun ~args ->
          match args with
          | [ path_va; flags; _mode ] -> (
              match
                (try Some (vread_cstr t ~va:path_va ~max:256) with _ -> None)
              with
              | None -> neg_errno Errno.EFAULT
              | Some path ->
                  let exists = Vfs.exists t.vfs_t ~ns:t.root_ns_id path in
                  if (not exists) && flags land o_creat = 0 then
                    neg_errno Errno.ENOENT
                  else begin
                    (if not exists then
                       match Vfs.write_file t.vfs_t ~ns:t.root_ns_id path Bytes.empty with
                       | Ok () -> ()
                       | Error _ -> ());
                    let fd = t.next_kfd in
                    t.next_kfd <- fd + 1;
                    Hashtbl.replace t.kfiles fd { kpath = path; kpos = 0 };
                    fd
                  end)
          | _ -> neg_errno Errno.EINVAL );
      ( "filp_close",
        fun ~args ->
          match args with
          | [ fd ] ->
              if Hashtbl.mem t.kfiles fd then begin
                Hashtbl.remove t.kfiles fd;
                0
              end
              else neg_errno Errno.EBADF
          | _ -> neg_errno Errno.EINVAL );
      ( "kernel_read",
        fun ~args ->
          let do_read ~fd ~buf_va ~count ~pos =
            match Hashtbl.find_opt t.kfiles fd with
            | None -> neg_errno Errno.EBADF
            | Some f -> (
                match
                  Vfs.read_at t.vfs_t ~ns:t.root_ns_id f.kpath ~off:pos ~len:count
                with
                | Error e -> neg_errno e
                | Ok data -> (
                    try
                      vwrite t ~va:buf_va data;
                      f.kpos <- pos + Bytes.length data;
                      Bytes.length data
                    with Failure _ -> neg_errno Errno.EFAULT))
          in
          match (Kernel_version.rw_abi t.ver, args) with
          | Kernel_version.Rw_old, [ fd; pos; buf_va; count ] ->
              if count < 0 || count > 0x100_0000 then neg_errno Errno.EINVAL
              else do_read ~fd ~buf_va ~count ~pos
          | Kernel_version.Rw_new, [ fd; buf_va; count; pos_va ] -> (
              if count < 0 || count > 0x100_0000 then neg_errno Errno.EINVAL
              else
                try
                  let pos =
                    Int64.to_int (Bytes.get_int64_le (vread t ~va:pos_va ~len:8) 0)
                  in
                  let n = do_read ~fd ~buf_va ~count ~pos in
                  if n >= 0 then begin
                    let b = Bytes.create 8 in
                    Bytes.set_int64_le b 0 (Int64.of_int (pos + n));
                    vwrite t ~va:pos_va b
                  end;
                  n
                with Failure _ -> neg_errno Errno.EFAULT)
          | _ -> neg_errno Errno.EINVAL );
      ( "kernel_write",
        fun ~args ->
          let do_write ~fd ~buf_va ~count ~pos =
            match Hashtbl.find_opt t.kfiles fd with
            | None -> neg_errno Errno.EBADF
            | Some f -> (
                match (try Some (vread t ~va:buf_va ~len:count) with _ -> None) with
                | None -> neg_errno Errno.EFAULT
                | Some data -> (
                    match
                      Vfs.write_at t.vfs_t ~ns:t.root_ns_id f.kpath ~off:pos data
                    with
                    | Error e -> neg_errno e
                    | Ok n ->
                        f.kpos <- pos + n;
                        n))
          in
          match (Kernel_version.rw_abi t.ver, args) with
          | Kernel_version.Rw_old, [ fd; pos; buf_va; count ] ->
              if count < 0 || count > 0x100_0000 then neg_errno Errno.EINVAL
              else do_write ~fd ~buf_va ~count ~pos
          | Kernel_version.Rw_new, [ fd; buf_va; count; pos_va ] -> (
              if count < 0 || count > 0x100_0000 then neg_errno Errno.EINVAL
              else
                try
                  let pos =
                    Int64.to_int (Bytes.get_int64_le (vread t ~va:pos_va ~len:8) 0)
                  in
                  let n = do_write ~fd ~buf_va ~count ~pos in
                  if n >= 0 then begin
                    let b = Bytes.create 8 in
                    Bytes.set_int64_le b 0 (Int64.of_int (pos + n));
                    vwrite t ~va:pos_va b
                  end;
                  n
                with Failure _ -> neg_errno Errno.EFAULT)
          | _ -> neg_errno Errno.EINVAL );
      ( "kthread_create_on_node",
        fun ~args ->
          match args with
          | [ struct_va ] -> (
              try
                let b = vread t ~va:struct_va ~len:16 in
                let tag = Int32.to_int (Bytes.get_int32_le b 0) in
                let expected = Kernel_version.thread_struct_version t.ver in
                if tag <> expected then begin
                  printk t
                    (Printf.sprintf
                       "kthread: bad create-struct version %d (kernel expects %d)"
                       tag expected);
                  neg_errno Errno.EINVAL
                end
                else begin
                  let kind = Int32.to_int (Bytes.get_int32_le b 4) in
                  let arg = Int64.to_int (Bytes.get_int64_le b 8) in
                  let handle = 0x1000 + List.length t.pending_threads in
                  t.pending_threads <- (handle, kind, arg) :: t.pending_threads;
                  handle
                end
              with Failure _ -> neg_errno Errno.EFAULT)
          | _ -> neg_errno Errno.EINVAL );
      ( "wake_up_process",
        fun ~args ->
          match args with
          | [ handle ] -> (
              match List.assoc_opt handle (List.map (fun (h, k, a) -> (h, (k, a))) t.pending_threads) with
              | None -> neg_errno Errno.ESRCH
              | Some (kind, arg) ->
                  t.pending_threads <-
                    List.filter (fun (h, _, _) -> h <> handle) t.pending_threads;
                  if kind = 1 then begin
                    (* exec the file at the path string [arg] points to *)
                    match
                      (try Some (vread_cstr t ~va:arg ~max:256) with _ -> None)
                    with
                    | None -> neg_errno Errno.EFAULT
                    | Some path -> (
                        match Vfs.read_file t.vfs_t ~ns:t.root_ns_id path with
                        | Error e ->
                            printk t ("exec: cannot read " ^ path);
                            neg_errno e
                        | Ok content -> (
                            let magic =
                              List.hd (String.split_on_char '\n' (Bytes.to_string content))
                            in
                            match
                              Option.bind (Hashtbl.find_opt interpreters magic) (fun f ->
                                  f content)
                            with
                            | None ->
                                printk t ("exec: unknown binary " ^ path);
                                neg_errno Errno.ENOENT
                            | Some closure ->
                                let p = spawn_proc t ~name:path () in
                                run_as t ~proc:p ~name:"exec" (fun () ->
                                    closure t p);
                                p.Gproc.gpid))
                  end
                  else 0)
          | _ -> neg_errno Errno.EINVAL );
      ( "kernel_clone",
        fun ~args ->
          match args with
          | [ _flags ] ->
              let p = spawn_proc t ~name:"kthread" () in
              p.Gproc.gpid
          | _ -> neg_errno Errno.EINVAL );
      ( "do_exit",
        fun ~args ->
          match args with
          | [ gpid ] ->
              (match find_proc t ~gpid with
              | Some p -> p.Gproc.alive <- false
              | None -> ());
              0
          | _ -> 0 );
      ("schedule", fun ~args:_ -> 0);
    ]
  in
  List.mapi
    (fun i (name, impl) ->
      let va = t.kvirt + kfun_base_off + (i * kfun_stride) in
      reg name impl va;
      { Ksymtab.name; va })
    funs

(* --- boot --- *)

(* The kernel image's sections other than its noise text, as (image
   offset, bytes) in write order; each later section overwrites what
   the earlier ones left. *)
let image_sections t ~syms =
  (* build-id note: identifies the kernel *build*, not this boot — the
     per-VM rng noise differs across VMs of the same build, so the id
     is derived from the version banner alone (as a distro kernel's
     NT_GNU_BUILD_ID is fixed per package) *)
  let banner = Kernel_version.banner t.ver in
  let bid = "VMSHBID0" ^ Digest.to_hex (Digest.string banner) in
  (* a zero window around each symbol section, so the scanner sees
     clean boundaries (real sections are padded with zeros too) *)
  let padded b =
    let p = Bytes.make (Bytes.length b + 128) '\000' in
    Bytes.blit b 0 p 64 (Bytes.length b);
    p
  in
  let strings, name_offsets = Ksymtab.build_strings syms in
  if Bytes.length strings > table_off - strings_off then
    failwith "guest image: strings section overflow";
  let table =
    Ksymtab.build_table
      (Kernel_version.ksymtab_layout t.ver)
      ~syms
      ~strings_va:(t.kvirt + strings_off)
      ~table_va:(t.kvirt + table_off)
      ~name_offsets
  in
  if table_off + Bytes.length table + 64 > image_size then
    failwith "guest image: table section overflow";
  [
    (idle_off, Bytes.of_string "\xf4\xeb\xfd" (* hlt; jmp *));
    (buildid_off, Bytes.of_string bid);
    (banner_off, Bytes.of_string (banner ^ "\000"));
    (strings_off - 64, padded strings);
    (table_off - 64, padded table);
  ]

(* Encode the image into guest RAM: deterministic noise text, generated
   page by page on first access (a session whose analysis hits the
   build-id cache reads only a handful of the image's pages), then the
   sections written over it. *)
let install_image t ~syms =
  let noise = Rng.split t.rng in
  Vm.generate_phys t.vmh kernel_phys ~len:image_size (Rng.fill_bytes_at noise);
  List.iter
    (fun (off, b) -> Vm.write_phys t.vmh (kernel_phys + off) b)
    (image_sections t ~syms)

let decode_regs_blob b (regs : X86.Regs.t) =
  let f i = Int64.to_int (Bytes.get_int64_le b (8 * i)) in
  regs.rax <- f 0;
  regs.rbx <- f 1;
  regs.rcx <- f 2;
  regs.rdx <- f 3;
  regs.rsi <- f 4;
  regs.rdi <- f 5;
  regs.rbp <- f 6;
  regs.rsp <- f 7;
  regs.r8 <- f 8;
  regs.r9 <- f 9;
  regs.r10 <- f 10;
  regs.r11 <- f 11;
  regs.r12 <- f 12;
  regs.r13 <- f 13;
  regs.r14 <- f 14;
  regs.r15 <- f 15;
  regs.rip <- f 16;
  regs.rflags <- f 17;
  regs.cr3 <- f 18

let run_klib t (regs : X86.Regs.t) () =
  t.klib_running <- true;
  let entry = regs.X86.Regs.rip in
  let saved_blob_va = regs.rdi in
  let env =
    {
      Klib.read = (fun ~va ~len -> vread t ~va ~len);
      write = (fun ~va b -> vwrite t ~va b);
      call =
        (fun ~addr ~args ->
          match Hashtbl.find_opt t.kfun_tbl addr with
          | Some (_, impl) -> impl ~args
          | None ->
              raise
                (Klib.Fault
                   (Printf.sprintf
                      "call to 0x%x: not a kernel function (bad relocation?)"
                      addr)));
      restore_regs =
        (fun () ->
          let b = vread t ~va:saved_blob_va ~len:(19 * 8) in
          decode_regs_blob b regs;
          t.klib_running <- false);
    }
  in
  try Klib.execute env ~entry
  with Klib.Fault msg | Failure msg ->
    t.crash <- Some msg;
    printk t ("BUG: unable to handle side-loaded code: " ^ msg);
    regs.rip <- t.idle;
    t.klib_running <- false

let in_kernel t rip = rip >= t.kvirt && rip < t.kvirt + image_pad

let install_runtime t =
  Vm.set_runtime t.vmh
    {
      Vm.on_irq = (fun ~gsi:_ -> () (* parked predicates re-poll used rings *));
      resolve_rip =
        (fun regs ->
          let rip = regs.X86.Regs.rip in
          if t.klib_running || rip = 0 || in_kernel t rip then None
          else if t.crash <> None then None
          else Some (run_klib t regs));
    }

let mount_root_from t drv =
  let raw = Virtio.Blk.Driver.to_blockdev drv in
  let bulk ~first ~count =
    Virtio.Blk.Driver.read drv
      ~sector:(first * Virtio.Blk.sectors_per_block)
      ~len:(count * Layout.page_size)
  in
  let cached = Page_cache.wrap ~bulk_read:bulk t.cache ~dev_id:0 raw in
  match Sfs.mount cached with
  | Ok fs ->
      t.boot_rootfs <- Some fs;
      Vfs.mount t.vfs_t ~ns:t.root_ns_id ~at:"/" ~source:"/dev/vda"
        (Vfs.Simple fs);
      printk t "VFS: mounted root (simplefs) readwrite on /dev/vda"
  | Error _ -> printk t "VFS: no valid root file system on /dev/vda"

(* Cloud-Hypervisor-style guests find their disk behind a PCI config
   space rather than an MMIO window. *)
let probe_pci_boot_blk t =
  let cfg_base = Layout.hyp_pci_base in
  let cfg_read ~off ~len =
    Effect.perform (Vm.Mmio (Vm.Mmio_read { addr = cfg_base + off; len }))
  in
  match Virtio.Pci.Config.probe ~read:cfg_read with
  | Some cfg when cfg.Virtio.Pci.Config.device_type = Virtio.Blk.device_id -> (
      match
        probe_device t ~base:cfg.Virtio.Pci.Config.bar0
          ~expect:Virtio.Blk.device_id
          ~init:(Virtio.Blk.Driver.init ~obs:(observe_of t) ~name:"guest-blk")
      with
      | Ok drv ->
          t.boot_blk_drv <- Some drv;
          printk t "virtio-pci: block device at 0000:00:00.0";
          mount_root_from t drv
      | Error e -> printk t ("virtio-pci: probe failed: " ^ e))
  | Some _ | None -> printk t "virtio_mmio: no block device at slot 0"

let mount_boot_devices t =
  (* Probe the hypervisor-emulated devices at the standard window. *)
  (match
     probe_device t ~base:Layout.virtio_mmio_base ~expect:Virtio.Blk.device_id
       ~init:(Virtio.Blk.Driver.init ~obs:(observe_of t) ~name:"guest-blk")
   with
  | Ok drv ->
      t.boot_blk_drv <- Some drv;
      mount_root_from t drv
  | Error _ -> probe_pci_boot_blk t);
  (match
     probe_device t
       ~base:(Layout.virtio_mmio_base + (2 * Layout.virtio_mmio_stride))
       ~expect:Virtio.Ninep.device_id
       ~init:(Virtio.Ninep.Driver.init ~obs:(observe_of t) ~name:"guest-9p")
   with
  | Ok drv ->
      t.boot_ninep_drv <- Some drv;
      printk t "9p: host file sharing mounted on /host"
  | Error _ -> ());
  (* /proc view *)
  Vfs.mount t.vfs_t ~ns:t.root_ns_id ~at:"/proc" ~source:"proc"
    (Vfs.Pseudo
       (fun () ->
         List.concat_map
           (fun p ->
             if p.Gproc.alive then
               [
                 ( string_of_int p.Gproc.gpid ^ "/comm", p.Gproc.pname );
                 ( string_of_int p.Gproc.gpid ^ "/cgroup", p.Gproc.cgroup );
               ]
             else [])
           t.proc_list))

let boot ~vm:vmh ~version:ver ~rng ?(cache_blocks = 4096) ?prebuilt_image () =
  let host = Vm.host vmh in
  let clock = host.Hostos.Host.clock in
  let ram_size =
    match Vm.memslots vmh with
    | [] -> invalid_arg "Guest.boot: VM has no memory slots"
    | slots -> (
        match List.find_opt (fun s -> s.Vm.gpa = 0) slots with
        | Some s -> s.Vm.size
        | None -> invalid_arg "Guest.boot: no RAM at guest-physical 0")
  in
  let slot = Rng.int rng Layout.kaslr_slots in
  let kvirt = Layout.kaslr_base + (slot * Layout.kaslr_align) in
  let vfs_t, root_ns_id = Vfs.create () in
  let t =
    {
      vmh;
      ver;
      rng = Rng.split rng;
      clock;
      ram_size;
      pt_root = pt_arena_start;
      pt_next = pt_arena_start + Layout.page_size;
      phys_brk = kernel_phys + image_pad;
      kvirt;
      exports_list = [];
      kfun_tbl = Hashtbl.create 64;
      idle = kvirt + idle_off;
      vfs_t;
      root_ns_id;
      cache = Page_cache.create ~clock ~capacity_blocks:cache_blocks;
      proc_list = [];
      next_gpid = 1;
      dmesg_rev = [];
      crash = None;
      klib_running = false;
      boot_blk_drv = None;
      boot_ninep_drv = None;
      boot_rootfs = None;
      vmsh_blk_drv = None;
      vmsh_console_drv = None;
      vmsh_net_drv = None;
      vmsh_ninep_drv = None;
      kfiles = Hashtbl.create 16;
      next_kfd = 3;
      pending_threads = [];
    }
  in
  (* kernel functions + exported symbols *)
  let kfun_syms = install_kfuns t in
  let banner_sym =
    { Ksymtab.name = "linux_banner"; va = kvirt + banner_off }
  in
  let noise =
    Ksymtab.noise_symbols t.rng ~version:ver ~count:180 ~text_va:kvirt
      ~text_size
  in
  let all_syms =
    let arr = Array.of_list (kfun_syms @ [ banner_sym ] @ noise) in
    Rng.shuffle t.rng arr;
    Array.to_list arr
  in
  t.exports_list <- List.map (fun s -> (s.Ksymtab.name, s.Ksymtab.va)) all_syms;
  (* encode the image into guest physical memory. A forked VM's RAM is
     a CoW view of its baseline's, which cannot generate pages, so it
     writes the baseline's prebuilt image instead; the [Rng.split]
     install_image would have drawn still advances [t.rng] so every
     later draw stays aligned with the baseline's boot. *)
  (match prebuilt_image with
  | Some img ->
      ignore (Rng.split t.rng : Rng.t);
      Vm.write_phys vmh kernel_phys img
  | None -> install_image t ~syms:all_syms);
  (* page tables: zero root, direct map, kernel mapping. A forked VM's
     RAM view falls through to the frozen baseline, whose arena holds
     the *final* boot tables — and the mapper reads entries before
     writing them, so a replay would graft its fresh allocations onto
     the baseline's future tree and corrupt it. Make the whole arena
     read as empty first: zero pages over already-zero baseline pages
     are absorbed silently by the CoW layer, and the few real PT pages
     diverge only until the mapper rebuilds them byte-identically. *)
  (match prebuilt_image with
  | Some _ ->
      Vm.write_phys vmh pt_arena_start
        (Bytes.make (pt_arena_pages * Layout.page_size) '\000')
  | None -> Vm.write_phys vmh t.pt_root (Bytes.make Layout.page_size '\000'));
  let acc = Vm.pt_access vmh in
  let alloc = pt_alloc t in
  let flags = PT.Flags.(present lor writable) in
  PT.map_range acc ~alloc ~root:t.pt_root ~virt:Layout.direct_map_base ~phys:0
    ~len:ram_size ~flags;
  PT.map_range acc ~alloc ~root:t.pt_root ~virt:kvirt ~phys:kernel_phys
    ~len:image_pad ~flags;
  (* vCPU 0 state *)
  (match Vm.vcpus vmh with
  | v :: _ ->
      let regs = Vm.vcpu_regs v in
      regs.X86.Regs.cr3 <- t.pt_root;
      regs.rip <- t.idle;
      regs.rsp <- Layout.phys_to_direct (alloc_pages t ~count:4) + (4 * 4096)
  | [] -> invalid_arg "Guest.boot: VM has no vCPUs");
  install_runtime t;
  (* pid 1 *)
  ignore (spawn_proc t ~name:"init" ());
  printk t (Kernel_version.banner ver);
  printk t
    (Printf.sprintf "KASLR: kernel image at slot %d (v%s)" slot
       (Kernel_version.to_string ver));
  Vm.enqueue_task vmh ~name:"guest-init" (fun () -> mount_boot_devices t);
  t
