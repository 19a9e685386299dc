module Host = Hostos.Host
module Proc = Hostos.Proc
module Fd = Hostos.Fd
module Syscall = Hostos.Syscall
module Layout = X86.Layout
module KV = Linux_guest.Kernel_version
module E = Vmsh_error

type net_attachment = { fabric : Net.Fabric.t; port : Net.Link.port }

module Config = struct
  type t = {
    transport : Devices.transport;
    copy_mode : Hyp_mem.copy_mode;
    container_pid : int option;
    command : string option;
    seccomp_heuristic : bool;
    pci : bool;
    net : net_attachment option;
    faults : Faults.t option;
    symbol_cache : Symbol_analysis.Cache.t option;
  }

  let make () =
    {
      transport = Devices.Ioregionfd;
      copy_mode = Hyp_mem.Bulk;
      container_pid = None;
      command = None;
      seccomp_heuristic = false;
      pci = false;
      net = None;
      faults = None;
      symbol_cache = None;
    }

  let with_transport transport t = { t with transport }
  let with_copy_mode copy_mode t = { t with copy_mode }
  let with_container_pid pid t = { t with container_pid = Some pid }
  let with_command cmd t = { t with command = Some cmd }
  let with_seccomp_heuristic seccomp_heuristic t = { t with seccomp_heuristic }
  let with_pci pci t = { t with pci }
  let with_net net t = { t with net = Some net }
  let with_faults plan t = { t with faults = Some plan }
  let with_symbol_cache cache t = { t with symbol_cache = Some cache }
  let transport t = t.transport
  let copy_mode t = t.copy_mode
  let container_pid t = t.container_pid
  let command t = t.command
  let seccomp_heuristic t = t.seccomp_heuristic
  let pci t = t.pci
  let net t = t.net
  let faults t = t.faults
  let symbol_cache t = t.symbol_cache

  let validate t =
    if t.pci && t.transport = Devices.Wrap_syscall then
      Error
        "the PCI transport needs ioregionfd doorbells (wrap_syscall \
         intercepts KVM_RUN exits that MSI-X-only irqchips route \
         differently)"
    else if
      match t.net with
      | Some { fabric; port } -> Net.Link.fabric_of_port port != fabric
      | None -> false
    then Error "net attachment: the port is not cabled on the supplied fabric"
    else if (match t.container_pid with Some p -> p <= 0 | None -> false) then
      Error "container_pid must be positive"
    else if t.command = Some "" then Error "command must be non-empty"
    else Ok t
end

type session = {
  cfg : Config.t;
  vmsh : Proc.t;
  tracee : Tracee.t;
  mem : Hyp_mem.t;
  devs : Devices.t;
  anal : Symbol_analysis.analysis;
  loaded : Loader.loaded;
  pump : unit -> unit;
  journal : Journal.t;
      (** sealed on success; replayed by {!detach} to restore the guest *)
}

let vmsh_process s = s.vmsh
let devices s = s.devs
let config s = s.cfg
let analysis s = s.anal
let status s = Loader.poll_status ~mem:s.mem s.loaded
let journal s = Some s.journal

let ( let* ) = Result.bind

(* Journal plumbing: [jrec] records an undo whose failure matters (the
   closure returns a result; failures surface as [Rollback_failed]);
   undos that cannot fail go to [Journal.record] directly. *)
let jrec j ~what undo =
  Journal.record j ~what (fun () ->
      match undo () with Ok _ -> () | Error e -> E.fail e)

(* Virtual-time watchdog budgets. Generously above what any fault-free
   phase spends, so they only fire when the guest or the handshake
   hangs — turning a would-be unbounded wait into abort → rollback. *)
let ready_deadline_ns = 1_000_000_000.
let handshake_deadline_ns = 1_000_000_000.

(* The watchdog counter registers lazily, on first fire: runs that never
   trip a deadline stay byte-identical. *)
let deadline_error obs ~what ~elapsed_ns =
  Observe.Metrics.incr
    (Observe.Metrics.counter (Observe.metrics obs) "watchdog.fired");
  E.Context (what, E.Deadline_exceeded (int_of_float elapsed_ns))

(* The twelve kernel interfaces VMSH relies on (paper §5). *)
let required_symbols =
  [
    "printk"; "register_virtio_mmio_dev"; "unregister_virtio_mmio_dev";
    "filp_open"; "filp_close"; "kernel_read"; "kernel_write";
    "kthread_create_on_node"; "wake_up_process"; "kernel_clone"; "do_exit";
    "schedule";
  ]

let missing_symbols anal =
  List.filter (fun s -> Symbol_analysis.resolve anal s = None) required_symbols

(* Use-time TOCTOU check: the scanned kernel structures are only
   trusted at the moment the loader patches the guest, and by then a
   hostile guest may have rewritten them. Re-validate against the
   scan's witness; on a mismatch, grant the guest one benefit of the
   doubt (it may have legitimately modified and settled its ksymtab —
   e.g. a module load) with a single cache-bypassing rescan. A second
   mismatch is misbehavior: abort, roll back, never patch through lying
   metadata. The recovery counter and trace event register lazily, so a
   well-behaved run stays byte-identical. *)
let revalidated_analysis host mem ~cr3 anal =
  match Symbol_analysis.revalidate ~names:required_symbols mem ~cr3 anal with
  | Ok () -> Ok anal
  | Error first -> (
      Observe.Metrics.incr
        (Observe.Metrics.counter
           (Observe.metrics host.Host.observe)
           "recovery.toctou_rescan");
      Trace.Recorder.record host.Host.recorder ~kind:"hostile.rescan"
        ~args:[ ("reason", Trace.S first) ]
        ();
      match Symbol_analysis.analyze mem ~cr3 with
      | Error m ->
          Error
            (E.Guest_misbehavior
               (Printf.sprintf "%s; rescan found no kernel (%s)" first m))
      | Ok anal' -> (
          match missing_symbols anal' with
          | _ :: _ as missing ->
              Error
                (E.Guest_misbehavior
                   (Printf.sprintf "%s; rescan lost required symbols: %s" first
                      (String.concat ", " missing)))
          | [] -> (
              match
                Symbol_analysis.revalidate ~names:required_symbols mem ~cr3
                  anal'
              with
              | Ok () -> Ok anal'
              | Error second ->
                  Error
                    (E.Guest_misbehavior
                       (Printf.sprintf
                          "scanned kernel structures keep mutating under the \
                           scanner: %s"
                          second)))))

(* Install an MSI route for [gsi] (the PCI transport's interrupt path:
   MSI-X-only irqchips accept irqfds only for MSI-routed GSIs). *)
let install_msi_route tracee ~gsi =
  let arg = Bytes.make Kvm.Api.msi_route_size '\000' in
  Bytes.set_int32_le arg 0 (Int32.of_int gsi);
  Bytes.set_int64_le arg 4 0xfee0_0000L;
  Bytes.set_int32_le arg 12 (Int32.of_int (0x4000 lor gsi));
  match
    Tracee.inject_ioctl tracee ~fd:(Tracee.vm_fd tracee)
      ~code:Kvm.Api.set_gsi_routing ~arg ()
  with
  | Ok _ -> Ok ()
  | Error e -> Error (E.Context ("KVM_SET_GSI_ROUTING", e))

(* Create an eventfd inside the hypervisor, register it as an irqfd for
   [gsi], and return the tracee-side descriptor number. The undo
   deassigns the irqfd (flags bit 0) and closes the remote eventfd. *)
let make_remote_irqfd tracee ~j ~gsi =
  let* ev = Tracee.inject tracee ~nr:Syscall.Nr.eventfd2 ~args:[||] in
  jrec j ~what:(Printf.sprintf "remote eventfd (gsi %d)" gsi) (fun () ->
      Tracee.inject tracee ~nr:Syscall.Nr.close ~args:[| ev |]);
  let arg = Bytes.make Kvm.Api.irqfd_req_size '\000' in
  Bytes.set_int32_le arg 0 (Int32.of_int ev);
  Bytes.set_int32_le arg 4 (Int32.of_int gsi);
  let* _ =
    match
      Tracee.inject_ioctl tracee ~fd:(Tracee.vm_fd tracee) ~code:Kvm.Api.irqfd
        ~arg ()
    with
    | Ok r -> Ok r
    | Error _ ->
        Error
          (E.Unsupported
             "KVM_IRQFD rejected: this hypervisor's VM has no GSI-capable \
              irqchip (PCIe MSI-X only) — MMIO transport unsupported (retry \
              with the VirtIO-over-PCI transport)")
  in
  jrec j ~what:(Printf.sprintf "irqfd gsi %d" gsi) (fun () ->
      let arg = Bytes.make Kvm.Api.irqfd_req_size '\000' in
      Bytes.set_int32_le arg 0 (Int32.of_int ev);
      Bytes.set_int32_le arg 4 (Int32.of_int gsi);
      Bytes.set_int32_le arg 8 1l (* KVM_IRQFD_FLAG_DEASSIGN *);
      Tracee.inject_ioctl tracee ~fd:(Tracee.vm_fd tracee) ~code:Kvm.Api.irqfd
        ~arg ());
  Ok ev

let rec result_map f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = result_map f rest in
      Ok (y :: ys)

(* An injected UNIX-socket connection from the tracee back into the
   VMSH process: bind, connect-back, accept. Each descriptor it creates
   gets an undo entry, so an aborted attach leaks no fds on either
   side. *)
let connect_tracee_back host vmsh tracee ~j ~path =
  let* listener =
    match Host.unix_bind host vmsh ~path with
    | Ok fd -> Ok fd
    | Error e -> Error (E.substrate ("bind " ^ path) e)
  in
  jrec j ~what:("unix listener " ^ path) (fun () ->
      Host.unix_unbind host ~path;
      Result.map_error
        (fun e -> E.substrate "close listener" e)
        (Proc.close_fd vmsh listener.Fd.num));
  let* remote_sock =
    Tracee.connect_back tracee ~path ~on_socket:(fun sock ->
        jrec j ~what:"tracee control socket" (fun () ->
            Tracee.inject tracee ~nr:Syscall.Nr.close ~args:[| sock |]))
  in
  let* local_sock =
    match Host.unix_accept host vmsh ~listener with
    | Ok fd -> Ok fd
    | Error e -> Error (E.substrate "accept" e)
  in
  jrec j ~what:"local control socket" (fun () ->
      Result.map_error
        (fun e -> E.substrate "close socket" e)
        (Proc.close_fd vmsh local_sock.Fd.num));
  Ok (listener, local_sock, remote_sock)

(* Pull tracee descriptors into the VMSH process over an injected
   UNIX-socket connection with SCM_RIGHTS. The receive loop runs under
   the device-handshake watchdog: a peer that stops sending aborts the
   attach (and rolls back) instead of spinning forever. *)
let retrieve_fds host vmsh tracee remote_fds ~j ~path =
  let* _listener, local_sock, remote_sock =
    connect_tracee_back host vmsh tracee ~j ~path
  in
  let* () = Tracee.send_fds_back tracee ~sock_fd:remote_sock remote_fds in
  let clock = host.Host.clock in
  let start = Hostos.Clock.now_ns clock in
  let rec recv n acc =
    if n = 0 then Ok (List.rev acc)
    else
      let elapsed = Hostos.Clock.now_ns clock -. start in
      if elapsed > handshake_deadline_ns then
        Error
          (deadline_error host.Host.observe ~what:"device handshake"
             ~elapsed_ns:elapsed)
      else
        match Host.recv_fd host vmsh ~sock:local_sock with
        | Ok fd ->
            jrec j ~what:(Printf.sprintf "received irqfd %d" fd.Fd.num)
              (fun () ->
                Result.map_error
                  (fun e -> E.substrate "close irqfd" e)
                  (Proc.close_fd vmsh fd.Fd.num));
            recv (n - 1) (fd :: acc)
        | Error e -> Error (E.substrate "recv_fd" e)
  in
  let* fds = recv (List.length remote_fds) [] in
  Ok (fds, local_sock, remote_sock)

(* The simulated-KVM VM object behind the tracee's vm fd (the
   simulation's stand-in for in-kernel state only ioctls can reach). *)
let vm_of_tracee host tracee ~hypervisor_pid =
  let hyp = Host.proc_exn host ~pid:hypervisor_pid in
  match Proc.fd hyp (Tracee.vm_fd tracee) with
  | Ok fd -> (
      match Kvm.Vm.vm_of_fd fd with
      | Some vm -> Ok vm
      | None -> Error (E.Msg "vm fd does not denote a VM"))
  | Error e -> Error (E.substrate "vm fd lookup" e)

let setup_ioregionfd host vmsh tracee devs ~j ~hypervisor_pid =
  let path =
    Printf.sprintf "/run/vmsh-ioregion-%d-%d.sock" hypervisor_pid
      vmsh.Proc.pid
  in
  let* _listener, local_sock, remote_sock =
    connect_tracee_back host vmsh tracee ~j ~path
  in
  let region_base, region_len = Devices.region devs in
  let ioregion_arg ~flags =
    let arg = Bytes.make Kvm.Api.ioregion_req_size '\000' in
    Bytes.set_int64_le arg 0 (Int64.of_int region_base);
    Bytes.set_int64_le arg 8 (Int64.of_int region_len);
    Bytes.set_int32_le arg 16 (Int32.of_int remote_sock);
    Bytes.set_int32_le arg 20 (Int32.of_int remote_sock);
    Bytes.set_int32_le arg 24 (Int32.of_int flags);
    arg
  in
  let* _ =
    match
      Tracee.inject_ioctl tracee ~fd:(Tracee.vm_fd tracee)
        ~code:Kvm.Api.set_ioregion ~arg:(ioregion_arg ~flags:0) ()
    with
    | Ok r -> Ok r
    | Error e -> Error (E.Context ("KVM_SET_IOREGION", e))
  in
  jrec j ~what:"ioregion registration" (fun () ->
      Tracee.inject_ioctl tracee ~fd:(Tracee.vm_fd tracee)
        ~code:Kvm.Api.set_ioregion
        ~arg:(ioregion_arg ~flags:1 (* detach *))
        ());
  (* Scheduling seam of the simulation: register the service callback
     that stands for "the VMSH process wakes up when its socket becomes
     readable" (see DESIGN.md). *)
  let* vm = vm_of_tracee host tracee ~hypervisor_pid in
  let pump_id =
    Kvm.Vm.add_ioregion_pump vm (Devices.ioregion_pump devs ~sock:local_sock)
  in
  Journal.record j ~what:"ioregion pump" (fun () ->
      Kvm.Vm.remove_ioregion_pump vm pump_id);
  Ok ()

(* Poll the library's status word until the overlay reports ready,
   under the guest-ready watchdog: a guest that never flips the word —
   or burns unbounded virtual time getting there — aborts the attach. *)
let wait_ready ~mem ~loaded ~pump =
  let host = Hyp_mem.host mem in
  let clock = host.Host.clock in
  let start = Hostos.Clock.now_ns clock in
  let rec go tries =
    (* fleet interleave point (and crash point): each status poll is
       one scheduler slice *)
    Faults.yield_tick host.Host.faults;
    Sched.yield ();
    let elapsed = Hostos.Clock.now_ns clock -. start in
    if elapsed > ready_deadline_ns then
      Error
        (deadline_error host.Host.observe ~what:"guest-ready poll"
           ~elapsed_ns:elapsed)
    else
      let s = Loader.poll_status ~mem loaded in
      if s = Klib_builder.status_done then Ok ()
      else if s >= 0x80 then Error (E.Guest_error s)
      else if tries = 0 then Error (E.Timeout s)
      else begin
        pump ();
        go (tries - 1)
      end
  in
  go 16

(* The one teardown behind {!detach} and every abort: replay the
   journal, then drop ptrace. The replay unwinds in reverse mutation
   order: vCPU redirect and guest bytes first, then the memslot and its
   mmap, then device registrations and irqfd/ioregionfd wiring, sockets
   and fds, the scratch page last. Ptrace goes after all of them, since
   every injected undo still needs the tracee stopped, and it goes even
   when an undo failed: a half-restored guest with a dangling tracer
   would be strictly worse, and no later attach could trace it. Last,
   the vmsh helper is reaped ({!Host.reap}). *)
let teardown host j ~origin ~vmsh tracee =
  Trace.Recorder.record host.Host.recorder ~kind:"journal.rollback"
    ~args:
      [ ("entries", Trace.I (Journal.length j)); ("origin", Trace.S origin) ]
    ();
  let replayed = Journal.replay ~metrics:(Observe.metrics host.Host.observe) j in
  Option.iter Tracee.detach tracee;
  Host.reap host vmsh;
  Result.map_error (fun re -> E.Rollback_failed re) replayed

let attach host ~hypervisor_pid ~fs_image ?config ~pump () =
  let cfg = match config with Some c -> c | None -> Config.make () in
  let obs = host.Host.observe in
  let attach_t0 = Hostos.Clock.now_ns host.Host.clock in
  Trace.Recorder.record host.Host.recorder ~kind:"attach.begin"
    ~args:[ ("hypervisor_pid", Trace.I hypervisor_pid) ]
    ();
  Observe.span obs ~name:"attach"
    ~attrs:
      [
        ("transport", Trace.S (Devices.show_transport (Config.transport cfg)));
        ("hypervisor_pid", Trace.I hypervisor_pid);
      ]
  @@ fun () ->
  (* The attach is a transaction: [jref]'s journal collects an undo
     entry for every guest/hypervisor mutation below (and [Hyp_mem]
     adds byte entries for guest-memory writes once [memr] is set). Any
     abort — error, escaped exception, or a swept crash point — replays
     the journal and reaps [jref]'s vmsh helper before returning. *)
  let jref = ref None in
  let memr = ref None in
  let tracer = ref None in
  let result =
    try
    let* cfg =
      match Config.validate cfg with
      | Ok c -> Ok c
      | Error m -> Error (E.Invalid_config m)
    in
    (match Config.faults cfg with
    | Some plan -> Host.arm_faults host plan
    | None -> ());
    let j = Journal.create () in
    (* VMSH starts with the privileges it needs for discovery and drops
       them afterwards (paper §4.5). *)
    let vmsh =
      Host.spawn host ~name:"vmsh" ~uid:1000
        ~caps:[ Proc.CAP_BPF; Proc.CAP_SYS_PTRACE ] ()
    in
    jref := Some (j, vmsh);
    let* tracee =
      Tracee.attach
        ~seccomp_heuristic:(Config.seccomp_heuristic cfg)
        host ~vmsh ~pid:hypervisor_pid
    in
    tracer := Some tracee;
    (* recorded first, so it replays last: every other injected undo
       still needs the scratch page for its ioctl arguments *)
    jrec j ~what:"scratch mmap" (fun () ->
        Tracee.inject tracee ~nr:Syscall.Nr.munmap
          ~args:[| Tracee.scratch tracee; 8192 |]);
    Faults.yield_tick host.Host.faults;
    Sched.yield ();
    let* slots =
      Tracee.phase host "memslot-dump" (fun () -> Memslot_discovery.discover tracee)
    in
    (* discovery is done: give up CAP_BPF & co. *)
    Proc.drop_cap vmsh Proc.CAP_BPF;
    Proc.drop_cap vmsh Proc.CAP_SYS_ADMIN;
    let mem =
      Hyp_mem.create host ~vmsh ~hypervisor_pid ~slots
        ~mode:(Config.copy_mode cfg) ()
    in
    Hyp_mem.set_journal mem (Some j);
    memr := Some mem;
    let* regs =
      Tracee.phase host "register-read" (fun () ->
          match Tracee.get_vcpu_regs tracee (List.hd (Tracee.vcpus tracee)) with
          | Ok r -> Ok r
          | Error e -> Error (E.Context ("KVM_GET_REGS injection", e)))
    in
    Faults.yield_tick host.Host.faults;
    Sched.yield ();
    let* anal =
      Tracee.phase host "symbol-analysis" (fun () ->
          Result.map_error
            (fun m -> E.Msg m)
            (Symbol_analysis.analyze ?cache:(Config.symbol_cache cfg) mem
               ~cr3:regs.X86.Regs.cr3))
    in
    let* () =
      let missing = missing_symbols anal in
      if missing = [] then Ok ()
      else
        Error
          (E.Msg
             ("guest kernel does not export required symbols: "
             ^ String.concat ", " missing))
    in
    Faults.yield_tick host.Host.faults;
    Sched.yield ();
    let* devs =
      Tracee.phase host "device-setup" @@ fun () ->
      (* interrupt plumbing; the PCI transport routes the GSIs as MSIs
         first, so the irqfds work on MSI-X-only irqchips *)
      let gsis =
        Devices.gsi_plan
          (List.map
             (fun (d : Klib_builder.device) -> d.kind)
             Klib_builder.devices)
      in
      let* () =
        if Config.pci cfg then
          let* vm = vm_of_tracee host tracee ~hypervisor_pid in
          let rec route = function
            | [] -> Ok ()
            | (_, gsi) :: rest ->
                let* () = install_msi_route tracee ~gsi in
                (* KVM_SET_GSI_ROUTING has no removal encoding; the undo
                   drops the route from the simulated irqchip directly *)
                Journal.record j ~what:(Printf.sprintf "MSI route gsi %d" gsi)
                  (fun () -> Kvm.Vm.remove_msi_route vm ~gsi);
                route rest
          in
          route gsis
        else Ok ()
      in
      let* remote_evs =
        result_map (fun (_, gsi) -> make_remote_irqfd tracee ~j ~gsi) gsis
      in
      let* fds, _ctl_local, _ctl_remote =
        retrieve_fds host vmsh tracee remote_evs ~j
          ~path:
            (Printf.sprintf "/run/vmsh-%d-%d.sock" hypervisor_pid vmsh.Proc.pid)
      in
      let* () =
        if List.length fds = List.length gsis then Ok ()
        else Error (E.Msg "fd passing returned the wrong number of descriptors")
      in
      let devs =
        Devices.create ~mem ~tracee ~image:fs_image ~pci:(Config.pci cfg)
          ?net:
            (Option.map
               (fun { fabric; port } -> (fabric, port))
               (Config.net cfg))
          ()
      in
      List.iter2
        (fun (d : Klib_builder.device) irqfd ->
          let h = Devices.register devs d.kind ~irqfd in
          Journal.record j ~what:(d.name ^ " device") (fun () ->
              Devices.unregister devs h))
        Klib_builder.devices fds;
      let* () =
        match Config.transport cfg with
        | Devices.Wrap_syscall ->
            Devices.install_wrap_syscall devs;
            Journal.record j ~what:"wrap_syscall hook" (fun () ->
                Devices.uninstall_wrap_syscall devs);
            Ok ()
        | Devices.Ioregionfd ->
            setup_ioregionfd host vmsh tracee devs ~j ~hypervisor_pid
      in
      Ok devs
    in
    Faults.yield_tick host.Host.faults;
    Sched.yield ();
    let* loaded, anal =
      Tracee.phase host "klib-sideload" @@ fun () ->
      (* the scan is stale by now if the guest raced it: re-check the
         witnessed structures before trusting any symbol address *)
      let* anal = revalidated_analysis host mem ~cr3:regs.X86.Regs.cr3 anal in
      (* guest program + kernel library *)
      let program =
        Overlay.program_bytes
          {
            Overlay.container_pid = Config.container_pid cfg;
            command = Config.command cfg;
          }
      in
      let image, layout =
        Klib_builder.build ~version:anal.Symbol_analysis.version
          ~guest_program:program ~pci:(Config.pci cfg)
          (List.map Devices.placement (Devices.handles devs))
      in
      let* loaded = Loader.load ~tracee ~mem ~analysis:anal ~image ~layout in
      let* () = Loader.redirect ~tracee ~mem loaded in
      pump ();
      let* () = wait_ready ~mem ~loaded ~pump in
      Ok (loaded, anal)
    in
    Ok { cfg; vmsh; tracee; mem; devs; anal; loaded; pump; journal = j }
    with
    (* A substrate failure that exhausted its bounded retries (or guest
       state the sideloader cannot parse) aborts the attach cleanly: the
       caller gets a diagnosable error, never an escaped exception. *)
    | Faults.Crash_point k ->
        Error (E.Attach_aborted (E.Crash_point k))
    | E.Error e -> Error (E.Attach_aborted e)
    | Failure msg -> Error (E.Attach_aborted (E.Msg msg))
    | Kvm.Vm.Guest_error msg -> Error (E.Attach_aborted (E.Guest_fault msg))
  in
  let total_ns () = Hostos.Clock.now_ns host.Host.clock -. attach_t0 in
  let observe_total () =
    Observe.Metrics.observe
      (Observe.Metrics.histogram (Observe.metrics obs) "stage.attach.total_ns")
      (total_ns ())
  in
  match result with
  | Ok s ->
      (* Commit: freeze the log. Steady-state device writes from here on
         are tracked only as oracle-exclusion intervals; [detach] replays
         the sealed log to restore the guest. *)
      Journal.seal s.journal;
      observe_total ();
      Trace.Recorder.record host.Host.recorder ~kind:"attach.commit"
        ~args:[ ("dur_ns", Trace.I (int_of_float (total_ns ()))) ]
        ();
      Observe.log obs Observe.Info "attach committed in %.0f virtual ns"
        (total_ns ());
      Ok s
  | Error err -> (
      (* Abort → rollback. Crash points are disarmed first (the rollback
         itself crosses yield points) and the journal is detached from
         the memory view so undo writes go through the raw path. *)
      Faults.set_abort_at_yield host.Host.faults None;
      (match !memr with Some m -> Hyp_mem.set_journal m None | None -> ());
      observe_total ();
      Observe.log obs Observe.Info "attach aborted: %s" (E.to_string err);
      match !jref with
      | None ->
          (* the config failed validation before the journal existed *)
          Trace.Recorder.record host.Host.recorder ~kind:"attach.abort"
            ~args:[ ("entries", Trace.I 0) ]
            ();
          Error err
      | Some (j, vmsh) ->
          let* () = teardown host j ~origin:"abort" ~vmsh !tracer in
          Error err)

let console_send s line =
  Devices.feed_console_input s.devs (Bytes.of_string (line ^ "\n"));
  s.pump ()

let console_recv s =
  s.pump ();
  let out = Bytes.to_string (Devices.read_console_output s.devs) in
  let keep = String.length out - String.length Shell.prompt in
  if String.ends_with ~suffix:Shell.prompt out then String.sub out 0 keep
  else out

let console_roundtrip s line =
  (* drain any pending output (e.g. the prompt) first *)
  ignore (console_recv s);
  console_send s line;
  console_recv s

(* Detach = the abort's teardown over the sealed journal. *)
let detach s =
  Hyp_mem.set_journal s.mem None;
  teardown (Hyp_mem.host s.mem) s.journal ~origin:"detach" ~vmsh:s.vmsh
    (Some s.tracee)
