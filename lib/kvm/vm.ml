module Mem = Hostos.Mem
module Proc = Hostos.Proc
module Fd = Hostos.Fd
module Clock = Hostos.Clock
module Host = Hostos.Host
module Errno = Hostos.Errno
module Syscall = Hostos.Syscall

type memslot = { slot : int; gpa : int; size : int; hva : int }

type mmio_request =
  | Mmio_read of { addr : int; len : int }
  | Mmio_write of { addr : int; data : bytes }

type _ Effect.t +=
  | Mmio : mmio_request -> bytes Effect.t
  | Yield_until : (unit -> bool) -> unit Effect.t

type runtime = {
  on_irq : gsi:int -> unit;
  resolve_rip : X86.Regs.t -> (unit -> unit) option;
}

(* Outcome of running one guest slice to its own end under the effect
   handler: the slice finished (or parked itself), or it triggered a
   genuine exit that must be delivered to the hypervisor. *)
type slice_outcome = Done | Exited

type parked = {
  pred : unit -> bool;
  k : (unit, slice_outcome) Effect.Deep.continuation;
}

type islot = { s : memslot; backing : Mem.t; boff : int }

type ioregion = { base : int; rlen : int; rfd : Fd.t; wfd : Fd.t }

type t = {
  host : Host.t;
  owner : Proc.t;
  mutable islots : islot list;
  mutable vcpu_list : vcpu list;
  mutable rt : runtime option;
  tasks : (string * (unit -> unit)) Queue.t;
  mutable parked : parked list;
  irqfds : (int, Fd.t) Hashtbl.t;
  msi_routes : (int, int * int) Hashtbl.t;  (** gsi -> (msi addr, data) *)
  mutable pending_gsi : int list;
  mutable ioeventfds : (int * int option * Fd.t) list;
  mutable eventfd_waiters : (Fd.t * (unit -> unit)) list;
  mutable missed_notifies : (int * Fd.t) list;
      (** doorbell writes whose eventfd signal was dropped (fault
          injection); re-kicked by [deliver_irqs] *)
  mutable ioregions : ioregion list;
  mutable ioregion_pumps : (int * (unit -> unit)) list;
  mutable next_pump_id : int;
  mutable current : vcpu option;
  mutable gsi_irqfd_supported : bool;
}

and vcpu = {
  index : int;
  vm : t;
  vregs : X86.Regs.t;
  run_page : Mem.t;
  exit_buf : bytes;  (* the run page's exit, read back on each KVM_RUN *)
  mutable pending_mmio : (bytes, slice_outcome) Effect.Deep.continuation option;
}

type Hostos.Ebpf.kdata += Kvm_memslots of memslot list
type Fd.kind += Kvm_dev | Kvm_vm of t | Kvm_vcpu of vcpu

exception Guest_error of string

let host t = t.host
let owner t = t.owner

(* Flight-recorder + per-exit-class profiling, both always-on: the
   recorder is pure observation and the stage counters register
   identically in every run, so neither perturbs determinism. *)
let flight t ~kind args =
  Trace.Recorder.record t.host.Host.recorder ~kind ~args ()

let stage_exit t cls =
  Observe.Metrics.incr
    (Observe.Metrics.counter
       (Observe.metrics t.host.Host.observe)
       ("stage.exit." ^ cls))
let set_runtime t rt = t.rt <- Some rt
let enqueue_task t ~name thunk = Queue.push (name, thunk) t.tasks
let has_work t = not (Queue.is_empty t.tasks) || t.parked <> []

let has_runnable t =
  (not (Queue.is_empty t.tasks))
  || t.pending_gsi <> []
  || Hashtbl.fold
       (fun _ fd acc ->
         acc || match Fd.eventfd_count fd with Some n -> n > 0 | None -> false)
       t.irqfds false
  || t.missed_notifies <> []
  (* a parked context whose predicate already holds can also run *)
  || List.exists (fun p -> p.pred ()) t.parked
let memslots t = List.map (fun i -> i.s) t.islots
let vcpus t = t.vcpu_list
let vcpu_index v = v.index
let vcpu_regs v = v.vregs
let vcpu_run_page v = v.run_page

(* --- guest physical memory --- *)

let find_slot t pa =
  List.find_opt (fun i -> pa >= i.s.gpa && pa < i.s.gpa + i.s.size) t.islots

let resolve_phys t pa =
  match find_slot t pa with
  | Some i -> (i.backing, i.boff + (pa - i.s.gpa))
  | None ->
      raise (Guest_error (Printf.sprintf "physical address 0x%x unbacked" pa))

let is_ram t pa = find_slot t pa <> None

let read_phys_into t pa buf ~off ~len =
  let m, moff = resolve_phys t pa in
  Mem.read_into m moff buf off len

let read_phys t pa len =
  let b = Bytes.create len in
  read_phys_into t pa b ~off:0 ~len;
  b

let memslot_backing t (s : memslot) =
  match List.find_opt (fun i -> i.s = s) t.islots with
  | Some i -> (i.backing, i.boff)
  | None -> invalid_arg (Printf.sprintf "Vm.memslot_backing: no slot %d" s.slot)

(* Guest writes are attributed in the backing's write log, which is how
   the rollback oracle tells the guest's own writes from VMSH's. *)
let write_phys_from t pa buf ~off ~len =
  let m, moff = resolve_phys t pa in
  Mem.attribute m moff len;
  Mem.write_from m moff buf off len

let write_phys t pa b = write_phys_from t pa b ~off:0 ~len:(Bytes.length b)

let generate_phys t pa ~len f =
  let m, moff = resolve_phys t pa in
  Mem.attribute m moff len;
  Mem.generate m ~off:moff ~len f

let read_phys_u64 t pa =
  let m, off = resolve_phys t pa in
  Mem.read_u64 m off

let write_phys_u64 t pa v =
  let m, off = resolve_phys t pa in
  Mem.attribute m off 8;
  Mem.write_u64 m off v

let pt_access t =
  { X86.Page_table.read_u64 = read_phys_u64 t; write_u64 = write_phys_u64 t }

(* --- interrupts and notification --- *)

let set_gsi_irqfd_support t v = t.gsi_irqfd_supported <- v

let signal_gsi t ~gsi =
  if not (List.mem gsi t.pending_gsi) then
    t.pending_gsi <- t.pending_gsi @ [ gsi ]

let add_eventfd_waiter t ~fd waiter =
  t.eventfd_waiters <- t.eventfd_waiters @ [ (fd, waiter) ]

let add_ioregion_pump t pump =
  let id = t.next_pump_id in
  t.next_pump_id <- id + 1;
  t.ioregion_pumps <- t.ioregion_pumps @ [ (id, pump) ];
  id

let remove_ioregion_pump t id =
  t.ioregion_pumps <- List.filter (fun (i, _) -> i <> id) t.ioregion_pumps

let remove_msi_route t ~gsi = Hashtbl.remove t.msi_routes gsi

(* A dropped doorbell signal leaves the iothread unaware that the ring
   has work. Real device backends recover by re-kicking pending queues
   from a timer/poll path; our equivalent is the scheduler loop, which
   re-delivers every recorded missed notify before normal irq
   processing. *)
let rekick_missed_notifies t =
  match t.missed_notifies with
  | [] -> ()
  | missed ->
      t.missed_notifies <- [];
      let obs = t.host.Host.observe in
      let clock = t.host.Host.clock in
      let rekicks =
        Observe.Metrics.counter (Observe.metrics obs) "recovery.notify_rekick"
      in
      List.iter
        (fun (addr, fd) ->
          Observe.Metrics.incr rekicks;
          flight t ~kind:"kvm.notify_rekick" [ ("addr", Trace.I addr) ];
          Fd.eventfd_signal fd;
          List.iter
            (fun (wfd, waiter) ->
              if wfd == fd then begin
                Clock.context_switch clock;
                waiter ()
              end)
            t.eventfd_waiters)
        missed

let deliver_irqs t =
  rekick_missed_notifies t;
  match t.rt with
  | None -> ()
  | Some rt ->
      let direct = t.pending_gsi in
      t.pending_gsi <- [];
      List.iter
        (fun gsi ->
          Clock.irq_injection t.host.Host.clock;
          flight t ~kind:"kvm.irq"
            [ ("gsi", Trace.I gsi); ("source", Trace.S "direct") ];
          rt.on_irq ~gsi)
        direct;
      Hashtbl.iter
        (fun gsi fd ->
          match Fd.eventfd_count fd with
          | Some n when n > 0 ->
              ignore (fd.Fd.ops.read ~len:8);
              Clock.irq_injection t.host.Host.clock;
              flight t ~kind:"kvm.irq"
                [ ("gsi", Trace.I gsi); ("source", Trace.S "irqfd") ];
              rt.on_irq ~gsi
          | _ -> ())
        t.irqfds

(* --- MMIO routing inside KVM_RUN --- *)

type route = Inline of bytes | Needs_exit

let mmio_addr = function
  | Mmio_read { addr; _ } -> addr
  | Mmio_write { addr; _ } -> addr

let route_mmio t req =
  let clock = t.host.Host.clock in
  let addr = mmio_addr req in
  match
    List.find_opt (fun r -> addr >= r.base && addr < r.base + r.rlen) t.ioregions
  with
  | Some region -> (
      (* ioregionfd: the exit is handled in-kernel by forwarding a frame
         over the registered socket; the hypervisor never wakes up. *)
      Clock.vmexit clock;
      stage_exit t "ioregionfd";
      flight t ~kind:"kvm.exit.ioregionfd"
        [
          ("addr", Trace.I addr);
          ( "kind",
            Trace.S
              (match req with Mmio_read _ -> "read" | Mmio_write _ -> "write")
          );
        ];
      let msg =
        match req with
        | Mmio_read { addr; len } ->
            Api.Ioreg_read { offset = addr - region.base; len }
        | Mmio_write { addr; data } ->
            Api.Ioreg_write { offset = addr - region.base; data }
      in
      Clock.socket_msg clock;
      (match region.wfd.Fd.ops.write (Api.encode_ioregion_msg msg) with
      | Ok _ -> ()
      | Error e ->
          raise (Guest_error ("ioregionfd write: " ^ Hostos.Errno.show e)));
      Clock.context_switch clock;
      List.iter (fun (_, pump) -> pump ()) t.ioregion_pumps;
      Clock.socket_msg clock;
      Clock.context_switch clock;
      match req with
      | Mmio_write _ ->
          (* drain the ack if the service posted one *)
          ignore (region.rfd.Fd.ops.read ~len:32);
          Inline Bytes.empty
      | Mmio_read { len; _ } -> (
          match region.rfd.Fd.ops.read ~len:32 with
          | Ok frame -> (
              match Api.decode_ioregion_resp frame with
              | Some data -> Inline (Bytes.sub data 0 (min len (Bytes.length data)))
              | None -> raise (Guest_error "ioregionfd: bad response frame"))
          | Error _ -> raise (Guest_error "ioregionfd: no response")))
  | None -> (
      match req with
      | Mmio_write { addr; data } -> (
          let matches (a, dm, _) =
            a = addr
            &&
            match dm with
            | None -> true
            | Some v ->
                Bytes.length data >= 4
                && Int32.to_int (Bytes.get_int32_le data 0) land 0xffffffff = v
          in
          match List.find_opt matches t.ioeventfds with
          | Some (_, _, fd)
            when Faults.fire t.host.Host.faults Faults.Notify_drop ->
              (* The exit happened but the wakeup is lost in flight; the
                 guest proceeds while the iothread sleeps until the
                 scheduler's re-kick path finds the missed notify. *)
              Clock.vmexit clock;
              stage_exit t "ioeventfd";
              flight t ~kind:"kvm.notify_drop" [ ("addr", Trace.I addr) ];
              t.missed_notifies <- t.missed_notifies @ [ (addr, fd) ];
              Inline Bytes.empty
          | Some (_, _, fd) ->
              (* ioeventfd: lightweight in-kernel exit; the iothread is
                 woken to process the queue. *)
              Clock.vmexit clock;
              stage_exit t "ioeventfd";
              flight t ~kind:"kvm.kick" [ ("addr", Trace.I addr) ];
              Fd.eventfd_signal fd;
              List.iter
                (fun (wfd, waiter) ->
                  if wfd == fd then begin
                    Clock.context_switch clock;
                    waiter ()
                  end)
                t.eventfd_waiters;
              Inline Bytes.empty
          | None -> Needs_exit)
      | Mmio_read _ -> Needs_exit)

let current_vcpu t =
  match t.current with
  | Some v -> v
  | None -> raise (Guest_error "guest code ran outside KVM_RUN")

let effect_handler t =
  let open Effect.Deep in
  {
    retc = (fun () -> Done);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Mmio req ->
            Some
              (fun (k : (a, slice_outcome) continuation) ->
                match route_mmio t req with
                | Inline data -> continue k data
                | Needs_exit ->
                    let vcpu = current_vcpu t in
                    let phys_addr = mmio_addr req in
                    let len, is_write, data =
                      match req with
                      | Mmio_read { len; _ } -> (len, false, Bytes.empty)
                      | Mmio_write { data; _ } ->
                          (Bytes.length data, true, data)
                    in
                    Api.write_exit vcpu.run_page
                      (Api.Exit_mmio { phys_addr; len; is_write; data });
                    vcpu.pending_mmio <- Some k;
                    Clock.mmio_exit t.host.Host.clock;
                    stage_exit t "mmio-userspace";
                    flight t ~kind:"kvm.exit.mmio"
                      [
                        ("addr", Trace.I phys_addr);
                        ("len", Trace.I len);
                        ("is_write", Trace.I (Bool.to_int is_write));
                      ];
                    Exited)
        | Yield_until pred ->
            Some
              (fun (k : (a, slice_outcome) continuation) ->
                if pred () then continue k ()
                else begin
                  t.parked <- t.parked @ [ { pred; k } ];
                  Done
                end)
        | _ -> None);
  }

let run_slice t thunk = Effect.Deep.match_with thunk () (effect_handler t)

let pop_ready_parked t =
  let rec go acc = function
    | [] -> None
    | p :: rest ->
        if p.pred () then begin
          t.parked <- List.rev_append acc rest;
          Some p
        end
        else go (p :: acc) rest
  in
  go [] t.parked

let rec scheduler_loop t vcpu =
  deliver_irqs t;
  match pop_ready_parked t with
  | Some p -> (
      match Effect.Deep.continue p.k () with
      | Done -> scheduler_loop t vcpu
      | Exited -> ())
  | None -> (
      let rip_thunk =
        match t.rt with Some rt -> rt.resolve_rip vcpu.vregs | None -> None
      in
      match rip_thunk with
      | Some thunk -> (
          match run_slice t thunk with
          | Done -> scheduler_loop t vcpu
          | Exited -> ())
      | None -> (
          match Queue.take_opt t.tasks with
          | Some (_, thunk) -> (
              match run_slice t thunk with
              | Done -> scheduler_loop t vcpu
              | Exited -> ())
          | None ->
              Clock.vmexit_userspace t.host.Host.clock;
              Api.write_exit vcpu.run_page Api.Exit_hlt))

let do_run t vcpu =
  t.current <- Some vcpu;
  let resumed =
    match vcpu.pending_mmio with
    | Some k ->
        vcpu.pending_mmio <- None;
        let data = Api.read_mmio_response vcpu.run_page ~len:8 in
        Effect.Deep.continue k data
    | None -> Done
  in
  (match resumed with Done -> scheduler_loop t vcpu | Exited -> ());
  t.current <- None

(* --- fd / ioctl surface --- *)

let vm_of_fd fd = match fd.Fd.kind with Kvm_vm vm -> Some vm | _ -> None
let vcpu_of_fd fd = match fd.Fd.kind with Kvm_vcpu v -> Some v | _ -> None

let vcpu_ioctl vcpu ~code ~arg : int Errno.result =
  let t = vcpu.vm in
  if code = Api.run then begin
    do_run t vcpu;
    Ok 0
  end
  else if code = Api.get_regs then begin
    match Api.write_regs t.owner.Proc.aspace ~ptr:arg vcpu.vregs with
    | () -> Ok 0
    | exception Invalid_argument _ -> Error Errno.EFAULT
  end
  else if code = Api.set_regs then begin
    match Api.read_regs t.owner.Proc.aspace ~ptr:arg with
    | regs ->
        X86.Regs.restore vcpu.vregs ~from:regs;
        Ok 0
    | exception Invalid_argument _ -> Error Errno.EFAULT
  end
  else Error Errno.EINVAL

let make_vcpu t ~index =
  let run_page = Mem.create Api.run_page_size in
  let aspace = t.owner.Proc.aspace in
  let run_hva =
    Mem.Addr_space.find_free aspace ~hint:0x7f00_0000_0000 ~len:Api.run_page_size
  in
  Mem.Addr_space.map aspace
    {
      base = run_hva;
      len = Api.run_page_size;
      backing = run_page;
      backing_off = 0;
      tag = Printf.sprintf "kvm-vcpu-run:%d" index;
    };
  let vcpu =
    {
      index;
      vm = t;
      vregs = X86.Regs.zero ();
      run_page;
      exit_buf = Bytes.create Api.exit_size;
      pending_mmio = None;
    }
  in
  t.vcpu_list <- t.vcpu_list @ [ vcpu ];
  vcpu

let vm_ioctl t ~code ~arg : int Errno.result =
  (* The kvm_vm_ioctl kernel entry point: the attach point of VMSH's
     eBPF memslot-discovery program. *)
  flight t ~kind:"kvm.ioctl" [ ("code", Trace.I code) ];
  ignore
    (Host.fire_ebpf t.host ~hook:"kvm_vm_ioctl" ~args:[| code; arg |]
       (Kvm_memslots (memslots t)));
  if code = Api.create_vcpu then begin
    let index = arg in
    let vcpu = make_vcpu t ~index in
    let fd =
      Proc.install_fd t.owner (fun ~num ->
          Fd.make ~num ~kind:(Kvm_vcpu vcpu)
            ~ops:
              {
                Fd.default_ops with
                ioctl = (fun ~code ~arg -> vcpu_ioctl vcpu ~code ~arg);
              }
            ~label:(Printf.sprintf "anon_inode:kvm-vcpu:%d" index)
            ())
    in
    Ok fd.Fd.num
  end
  else if code = Api.set_user_memory_region then begin
    match Api.read_memory_region t.owner.Proc.aspace ~ptr:arg with
    | exception Invalid_argument _ -> Error Errno.EFAULT
    | r ->
        if r.Api.slot >= Api.user_mem_slots then Error Errno.EINVAL
        else if r.Api.memory_size = 0 then begin
          t.islots <- List.filter (fun i -> i.s.slot <> r.Api.slot) t.islots;
          Ok 0
        end
        else if
          (r.Api.guest_phys_addr lor r.Api.memory_size lor r.Api.userspace_addr)
          land (Mem.page_size - 1)
          <> 0
        then Error Errno.EINVAL
        else begin
          match Mem.Addr_space.resolve t.owner.Proc.aspace r.Api.userspace_addr with
          | None -> Error Errno.EFAULT
          | Some (backing, boff)
            when boff land (Mem.page_size - 1) <> 0
                 || boff + r.Api.memory_size > Mem.length backing ->
              (* the rollback oracle reads a slot through its backing's
                 write log, page for page: the slot must start on a
                 page of one mmapped buffer and end inside it *)
              Error Errno.EINVAL
          | Some (backing, boff) ->
              let s =
                {
                  slot = r.Api.slot;
                  gpa = r.Api.guest_phys_addr;
                  size = r.Api.memory_size;
                  hva = r.Api.userspace_addr;
                }
              in
              t.islots <-
                { s; backing; boff }
                :: List.filter (fun i -> i.s.slot <> s.slot) t.islots;
              Ok 0
        end
  end
  else if code = Api.set_gsi_routing then begin
    (* single-entry MSI routing update: after this, irqfds for the GSI
       are MSI-backed and work even on an MSI-X-only irqchip *)
    match Api.read_msi_route t.owner.Proc.aspace ~ptr:arg with
    | exception Invalid_argument _ -> Error Errno.EFAULT
    | r ->
        Hashtbl.replace t.msi_routes r.Api.route_gsi
          (r.Api.msi_addr, r.Api.msi_data);
        Ok 0
  end
  else if code = Api.irqfd then begin
    match Api.read_irqfd_req t.owner.Proc.aspace ~ptr:arg with
    | exception Invalid_argument _ -> Error Errno.EFAULT
    | r ->
        (* flags bit 0 = KVM_IRQFD_FLAG_DEASSIGN: drop the gsi route.
           Accepted regardless of fd state — deassign during teardown
           must work even when the eventfd is about to close. *)
        if r.Api.irqfd_flags land 1 = 1 then begin
          Hashtbl.remove t.irqfds r.Api.gsi;
          Ok 0
        end
        (* a plain-GSI irqfd needs a GSI-capable irqchip; an MSI-routed
           GSI works on any irqchip (Cloud Hypervisor's MSI-X-only one
           included) *)
        else if
          (not t.gsi_irqfd_supported)
          && not (Hashtbl.mem t.msi_routes r.Api.gsi)
        then Error Errno.EINVAL
        else (
          match Proc.fd t.owner r.Api.irqfd_fd with
          | Error e -> Error e
          | Ok fd -> (
              match fd.Fd.kind with
              | Fd.Eventfd _ ->
                  Hashtbl.replace t.irqfds r.Api.gsi fd;
                  Ok 0
              | _ -> Error Errno.EINVAL))
  end
  else if code = Api.ioeventfd then begin
    match Api.read_ioeventfd_req t.owner.Proc.aspace ~ptr:arg with
    | exception Invalid_argument _ -> Error Errno.EFAULT
    | r -> (
        match Proc.fd t.owner r.Api.ioev_fd with
        | Error e -> Error e
        | Ok fd ->
            (* flags bit 2 = KVM_IOEVENTFD_FLAG_DEASSIGN *)
            if r.Api.ioev_flags land 4 = 4 then begin
              t.ioeventfds <-
                List.filter
                  (fun (a, _, f) ->
                    not (a = r.Api.ioev_addr && f.Fd.num = fd.Fd.num))
                  t.ioeventfds;
              Ok 0
            end
            else begin
              let dm = if r.Api.ioev_flags land 1 = 1 then Some r.Api.datamatch else None in
              t.ioeventfds <- (r.Api.ioev_addr, dm, fd) :: t.ioeventfds;
              Ok 0
            end)
  end
  else if code = Api.set_ioregion then begin
    match Api.read_ioregion_req t.owner.Proc.aspace ~ptr:arg with
    | exception Invalid_argument _ -> Error Errno.EFAULT
    | r ->
        (* flags bit 0 = detach: unregister the region at this base
           (before its sockets close, so no fd validation here) *)
        if r.Api.region_flags land 1 = 1 then begin
          t.ioregions <-
            List.filter (fun ir -> ir.base <> r.Api.region_gpa) t.ioregions;
          Ok 0
        end
        else (
        match (Proc.fd t.owner r.Api.region_rfd, Proc.fd t.owner r.Api.region_wfd) with
        | Ok rfd, Ok wfd ->
            t.ioregions <-
              { base = r.Api.region_gpa; rlen = r.Api.region_size; rfd; wfd }
              :: t.ioregions;
            Ok 0
        | _ -> Error Errno.EBADF)
  end
  else Error Errno.EINVAL

let create_vm host owner =
  {
    host;
    owner;
    islots = [];
    vcpu_list = [];
    rt = None;
    tasks = Queue.create ();
    parked = [];
    irqfds = Hashtbl.create 8;
    msi_routes = Hashtbl.create 8;
    pending_gsi = [];
    ioeventfds = [];
    eventfd_waiters = [];
    missed_notifies = [];
    ioregions = [];
    ioregion_pumps = [];
    next_pump_id = 0;
    current = None;
    gsi_irqfd_supported = true;
  }

let dev_kvm host proc =
  Proc.install_fd proc (fun ~num ->
      Fd.make ~num ~kind:Kvm_dev
        ~ops:
          {
            Fd.default_ops with
            ioctl =
              (fun ~code ~arg:_ ->
                if code = Api.get_vcpu_mmap_size then Ok Api.run_page_size
                else if code = Api.create_vm then begin
                  let vm = create_vm host proc in
                  let fd =
                    Proc.install_fd proc (fun ~num ->
                        Fd.make ~num ~kind:(Kvm_vm vm)
                          ~ops:
                            {
                              Fd.default_ops with
                              ioctl = (fun ~code ~arg -> vm_ioctl vm ~code ~arg);
                            }
                          ~label:"anon_inode:kvm-vm" ())
                  in
                  Ok fd.Fd.num
                end
                else Error Errno.EINVAL);
          }
        ~label:"/dev/kvm" ())

let run_vcpu host proc thread ~vcpu_fd =
  (* fleet interleave point: one KVM_RUN per scheduler slice *)
  Sched.yield ();
  let ret =
    Syscall.call host proc thread ~nr:Syscall.Nr.ioctl
      ~args:[| vcpu_fd.Fd.num; Api.run; 0 |]
  in
  match vcpu_of_fd vcpu_fd with
  | None -> invalid_arg "Vm.run_vcpu: not a vcpu fd"
  | Some vcpu ->
      if ret < 0 then Api.Exit_other ret
      else begin
        Mem.read_into vcpu.run_page 0 vcpu.exit_buf 0 Api.exit_size;
        Api.decode_exit vcpu.exit_buf
      end
