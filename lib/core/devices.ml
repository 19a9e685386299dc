module Fd = Hostos.Fd
module Chan = Hostos.Chan
module Clock = Hostos.Clock
module Layout = X86.Layout
module Mmio = Virtio.Mmio
module Queue = Virtio.Queue
module Gmem = Virtio.Gmem

type transport = Wrap_syscall | Ioregionfd

let show_transport = function
  | Wrap_syscall -> "wrap_syscall"
  | Ioregionfd -> "ioregionfd"

type kind = Klib_builder.kind = Console | Blk | Net | Ninep

let kind_name kind = (Klib_builder.device kind).name

(* One registered device: its register window, interrupt route and
   queue state. Window base, config window and GSI all derive from the
   registration index — nothing is hard-coded per kind any more. *)
type handle = {
  kind : kind;
  regs : Mmio.Device.t;
  base : int;  (** register window (BAR0 under PCI) *)
  cfg_base : int option;  (** PCI config window *)
  cfg_header : bytes option;
  gsi : int;
  irqfd : Fd.t;
  mutable q0 : Queue.Device.t option;
  mutable q1 : Queue.Device.t option;
}

type t = {
  mem : Hyp_mem.t;
  tracee : Tracee.t;
  image : Blockdev.Backend.t;
  pci : bool;
  mutable handles : handle list;  (** registration order *)
  region_base : int;
  region_len : int;
  console_in : Chan.t;
  console_out : Chan.t;
  net : (Net.Fabric.t * Net.Link.port) option;
      (** the fabric port the NIC is cabled to, if any *)
  net_pending : bytes Stdlib.Queue.t;
      (** frames that arrived before the guest posted receive buffers *)
  ninep_fs : Blockdev.Simplefs.t option;
      (** the tools image mounted for the 9p server *)
  mac : int;
  mutable requests : int;
  clock : Clock.t;
  blk : Virtio.Blk.Device.t;
      (** the blk device over [image]: its backend and payload buffer *)
  mutable pump_stages : (string * (Observe.Metrics.counter * string)) list;
      (** each pump stage's counter and flight-event kind, resolved at
          its first pump *)
}

let gsi_base = 24
let max_devices = List.length Klib_builder.devices
let gsi_plan kinds = List.mapi (fun i k -> (k, gsi_base + i)) kinds
let handles t = t.handles

(* The window the kernel library drives: the PCI config space when the
   device sits behind the PCI transport, the raw register window
   otherwise. *)
let placement h =
  {
    Klib_builder.kind = h.kind;
    window = (match h.cfg_base with Some c -> c | None -> h.base);
    gsi = h.gsi;
  }

let region t = (t.region_base, t.region_len)
let stats_requests t = t.requests

(* Upper bound on a single descriptor buffer. No legitimate driver in
   this guest posts anything close to 1 MiB in one descriptor; a larger
   length is a hostile mutation (or garbage read through a torn
   pointer) and is quarantined before any process_vm call. *)
let max_desc_len = 1 lsl 20

(* Remote view of guest memory for the device-side queue halves. *)
let remote_gmem t =
  {
    Gmem.read_into =
      (fun ~addr buf ~off ~len ->
        Hyp_mem.read_phys_into t.mem ~gpa:addr buf ~off ~len);
    write_from =
      (fun ~addr buf ~off ~len ->
        Hyp_mem.write_phys_from t.mem ~gpa:addr buf ~off ~len);
  }

let ensure_queue t h slot =
  let getter, setter =
    if slot = 0 then ((fun () -> h.q0), fun q -> h.q0 <- q)
    else ((fun () -> h.q1), fun q -> h.q1 <- q)
  in
  match getter () with
  | Some q -> Some q
  | None ->
      let qs = Mmio.Device.queue h.regs slot in
      if not qs.Mmio.Device.ready then None
      else begin
        let host = Tracee.host t.tracee in
        let dev = kind_name h.kind in
        (* hostile-descriptor counters and events are lazily registered:
           a run with no quarantines keeps a byte-identical metrics
           registry and flight recording *)
        let bump name =
          Observe.Metrics.incr
            (Observe.Metrics.counter
               (Observe.metrics host.Hostos.Host.observe)
               name)
        in
        let q =
          Queue.Device.create
            ~torn:(fun () ->
              Faults.fire host.Hostos.Host.faults Faults.Desc_torn)
            ~on_requeue:(fun () -> bump "recovery.vq_requeue")
            ~validate:(fun b ->
              b.Queue.Device.len <= max_desc_len
              && Hyp_mem.backed t.mem ~gpa:b.Queue.Device.addr
                   ~len:b.Queue.Device.len)
            ~on_quarantine:(fun head ->
              bump (Printf.sprintf "vmsh-%s.quarantined" dev);
              Trace.Recorder.record host.Hostos.Host.recorder
                ~kind:"hostile.quarantine"
                ~args:[ ("dev", Trace.S dev); ("head", Trace.I head) ]
                ())
            ~on_ring_reset:(fun () ->
              bump (Printf.sprintf "vmsh-%s.ring_resets" dev);
              Trace.Recorder.record host.Hostos.Host.recorder
                ~kind:"hostile.ring_reset"
                ~args:[ ("dev", Trace.S dev) ]
                ())
            (remote_gmem t) ~qsz:qs.Mmio.Device.num ~desc:qs.Mmio.Device.desc
            ~avail:qs.Mmio.Device.avail ~used:qs.Mmio.Device.used
        in
        setter (Some q);
        Some q
      end

(* Signal an irqfd from the VMSH process: one write syscall. *)
let signal t fd =
  Clock.syscall t.clock;
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 1L;
  ignore (fd.Fd.ops.write b)

(* Raise the device's interrupt: set its status bit, signal its irqfd. *)
let interrupt t h =
  Mmio.Device.assert_irq h.regs;
  signal t h.irqfd

let host_observe t = (Tracee.host t.tracee).Hostos.Host.observe

let incr_counter t name ~by =
  Observe.Metrics.incr ~by
    (Observe.Metrics.counter (Observe.metrics (host_observe t)) name)

(* Virtqueue pump-stage instrumentation, always-on: every pump
   invocation bumps its stage.pump.<stage> counter and appends one
   flight-recorder event — pure observation, no virtual cost. *)
let pump_stage t name =
  let counter, kind =
    match List.assoc_opt name t.pump_stages with
    | Some h -> h
    | None ->
        let h =
          ( Observe.Metrics.counter
              (Observe.metrics (host_observe t))
              ("stage.pump." ^ name),
            "pump." ^ name )
        in
        t.pump_stages <- (name, h) :: t.pump_stages;
        h
  in
  Observe.Metrics.incr counter;
  Trace.Recorder.record (Tracee.host t.tracee).Hostos.Host.recorder ~kind ()

(* The image is served with synchronous, unpipelined file IO (the
   prototype's device is single-threaded), so each request pays the full
   device latency again instead of overlapping with its neighbours —
   the main reason vmsh-blk runs at about half of qemu-blk (§6.3C). *)
let blk_device ~clock ~obs image =
  let b =
    Virtio.Blk.Device.backend_of_blockdev
      (Blockdev.Dev.observe obs ~name:"vmsh-blk.backend"
         (Blockdev.Backend.dev image))
  in
  let sync_penalty len =
    Clock.context_switch clock;
    Clock.device_op clock ~blocks:(max 1 (len / Blockdev.Dev.block_size))
  in
  Virtio.Blk.Device.create
    {
      b with
      Virtio.Blk.Device.read_into =
        (fun ~sector buf ~len ->
          sync_penalty len;
          b.Virtio.Blk.Device.read_into ~sector buf ~len);
      write_from =
        (fun ~sector buf ~len ->
          sync_penalty len;
          b.Virtio.Blk.Device.write_from ~sector buf ~len);
    }

let process_blk t h =
  pump_stage t "blk";
  match ensure_queue t h 0 with
  | None -> ()
  | Some q ->
      let n = Virtio.Blk.Device.process q (remote_gmem t) t.blk in
      if n > 0 then begin
        t.requests <- t.requests + n;
        incr_counter t "vmsh-blk.requests" ~by:n;
        interrupt t h
      end

(* --- the network device --- *)

(* Deliver frames parked in [net_pending] into posted receive chains.
   Stops at the first frame the guest has no buffer for (frame order is
   preserved; nothing is dropped on the host side). *)
let try_feed_net_h t h =
  pump_stage t "net-rx";
  match ensure_queue t h 0 with
  | None -> ()
  | Some rxq ->
      let delivered = ref 0 in
      let rec go () =
        match Stdlib.Queue.peek_opt t.net_pending with
        | None -> ()
        | Some frame ->
            if Virtio.Net.Device.feed_rx rxq (remote_gmem t) frame then begin
              (* one recvmsg-and-copy into guest memory per frame *)
              Clock.socket_msg t.clock;
              ignore (Stdlib.Queue.pop t.net_pending);
              incr delivered;
              go ()
            end
      in
      go ();
      if !delivered > 0 then begin
        incr_counter t "vmsh-net.rx_frames" ~by:!delivered;
        interrupt t h
      end

let process_net_tx t h =
  pump_stage t "net-tx";
  match ensure_queue t h 1 with
  | None -> ()
  | Some txq ->
      let n =
        Virtio.Net.Device.process_tx txq (remote_gmem t) ~sink:(fun frame ->
            (* one sendmsg out of the VMSH process per frame *)
            Clock.socket_msg t.clock;
            match t.net with
            | Some (_, port) -> Net.Link.send port frame
            | None -> incr_counter t "vmsh-net.tx_unplugged" ~by:1)
      in
      if n > 0 then begin
        incr_counter t "vmsh-net.tx_frames" ~by:n;
        interrupt t h;
        (* The fabric runs inside the kick: frames propagate, peers
           respond, and responses land back in [net_pending] before the
           guest resumes — keeping the whole exchange deterministic. *)
        match t.net with
        | Some (fab, _) ->
            Net.Fabric.pump fab;
            try_feed_net_h t h
        | None -> ()
      end

(* --- the 9p device: the hypervisor's 9p server, over the tools image --- *)

let process_ninep t h =
  pump_stage t "ninep";
  match t.ninep_fs with
  | None -> ()
  | Some fs -> (
      match ensure_queue t h 0 with
      | None -> ()
      | Some q ->
          let n =
            Virtio.Ninep.Device.process q (remote_gmem t)
              (Virtio.Ninep.Device.backend_of_simplefs ~clock:t.clock fs)
          in
          if n > 0 then begin
            incr_counter t "vmsh-9p.requests" ~by:n;
            interrupt t h
          end)

let try_feed_console t h =
  pump_stage t "console-rx";
  match ensure_queue t h 0 with
  | None -> ()
  | Some rxq -> (
      match Chan.read t.console_in 4096 with
      | Ok pending when Bytes.length pending > 0 ->
          let delivered =
            Virtio.Console.Device.feed_rx rxq (remote_gmem t) pending
          in
          (* anything not delivered goes back to the front of the input *)
          if delivered < Bytes.length pending then
            ignore
              (Chan.write t.console_in
                 (Bytes.sub pending delivered (Bytes.length pending - delivered)));
          if delivered > 0 then interrupt t h
      | _ -> ())

let process_console_tx t h =
  pump_stage t "console-tx";
  match ensure_queue t h 1 with
  | None -> ()
  | Some txq ->
      let n =
        Virtio.Console.Device.process_tx txq (remote_gmem t) ~sink:(fun b ->
            ignore (Chan.write t.console_out b))
      in
      if n > 0 then interrupt t h

let default_mac = Net.Frame.make_mac ~vendor:0x0566 ~serial:1

let create ~mem ~tracee ~image ?(pci = false) ?net ?(mac = default_mac) () =
  let stride = Layout.virtio_mmio_stride in
  let region_base =
    if pci then Layout.vmsh_pci_base else Layout.vmsh_mmio_base
  in
  (* The region is sized for [max_devices] registrations up front: PCI
     puts the config windows in the first [max_devices] strides and the
     BARs after them; MMIO uses the strides directly. *)
  let region_len = (if pci then 2 * max_devices else max_devices) * stride in
  let host = Tracee.host tracee in
  {
    mem;
    tracee;
    image;
    pci;
    handles = [];
    region_base;
    region_len;
    console_in = Chan.create ~capacity:65536 ();
    console_out = Chan.create ~capacity:1048576 ();
    net;
    net_pending = Stdlib.Queue.create ();
    ninep_fs =
      (match Blockdev.Simplefs.mount (Blockdev.Backend.dev image) with
      | Ok fs -> Some fs
      | Error _ -> None);
    mac;
    requests = 0;
    pump_stages = [];
    clock = host.Hostos.Host.clock;
    blk =
      blk_device ~clock:host.Hostos.Host.clock ~obs:host.Hostos.Host.observe
        image;
  }

let make_regs t kind =
  let num_queues, config =
    match kind with
    | Console -> (2, Bytes.make 8 '\000')
    | Blk ->
        let capacity =
          Blockdev.Dev.size_bytes (Blockdev.Backend.dev t.image)
          / Virtio.Blk.sector_size
        in
        (1, Virtio.Blk.Device.config ~capacity_sectors:capacity)
    | Net -> (2, Virtio.Net.config ~mac:t.mac)
    | Ninep -> (1, Bytes.make 8 '\000')
  in
  Mmio.Device.create ~device_id:(Klib_builder.device kind).virtio_id
    ~num_queues ~config ()

let register t kind ~irqfd =
  let index = List.length t.handles in
  if index >= max_devices then
    invalid_arg "Devices.register: device region is full";
  if List.exists (fun h -> h.kind = kind) t.handles then
    invalid_arg
      (Printf.sprintf "Devices.register: %s already registered"
         (kind_name kind));
  let stride = Layout.virtio_mmio_stride in
  let base =
    t.region_base + ((if t.pci then max_devices + index else index) * stride)
  in
  let cfg_base = if t.pci then Some (t.region_base + (index * stride)) else None in
  let gsi = gsi_base + index in
  let cfg_header =
    if t.pci then
      Some
        (Virtio.Pci.Config.encode
           ~device_type:(Klib_builder.device kind).virtio_id ~bar0:base
           ~msix_gsi:gsi)
    else None
  in
  let h =
    {
      kind;
      regs = make_regs t kind;
      base;
      cfg_base;
      cfg_header;
      gsi;
      irqfd;
      q0 = None;
      q1 = None;
    }
  in
  t.handles <- t.handles @ [ h ];
  (match kind with
  | Console ->
      Mmio.Device.set_notify h.regs (fun ~queue ->
          if queue = 1 then process_console_tx t h else try_feed_console t h)
  | Blk -> Mmio.Device.set_notify h.regs (fun ~queue:_ -> process_blk t h)
  | Net ->
      Mmio.Device.set_notify h.regs (fun ~queue ->
          if queue = 1 then process_net_tx t h else try_feed_net_h t h);
      (* Cable the NIC to its fabric port: frames arriving from the
         network park in [net_pending] and are pushed into the guest's
         receive ring (with an interrupt) as buffers allow. *)
      (match t.net with
      | Some (_, port) ->
          Net.Link.set_handler port (fun frame ->
              Stdlib.Queue.add frame t.net_pending;
              try_feed_net_h t h)
      | None -> ())
  | Ninep -> Mmio.Device.set_notify h.regs (fun ~queue:_ -> process_ninep t h));
  h

(* Rollback of [register]: drop the handle and uncable any external
   plumbing it claimed. Replayed newest-first by the journal, so handles
   leave in reverse registration order and the index arithmetic in
   [register] stays consistent for a later re-attach. *)
let unregister t h =
  t.handles <- List.filter (fun h' -> h' != h) t.handles;
  match h.kind with
  | Net -> (
      match t.net with
      | Some (_, port) -> Net.Link.clear_handler port
      | None -> ())
  | Console | Blk | Ninep -> ()

let window_of t addr =
  List.find_map
    (fun h ->
      if addr >= h.base && addr < h.base + Layout.virtio_mmio_stride then
        Some (h.regs, addr - h.base)
      else None)
    t.handles

let config_of t addr =
  List.find_map
    (fun h ->
      match (h.cfg_base, h.cfg_header) with
      | Some base, Some header
        when addr >= base && addr < base + Layout.virtio_mmio_stride ->
          Some (base, header)
      | _ -> None)
    t.handles

let handle_mmio_read t ~addr ~len =
  match window_of t addr with
  | Some (regs, off) -> Some (Mmio.Device.read regs ~off ~len)
  | None -> (
      match config_of t addr with
      | Some (base, header) ->
          (* PCI config read: bytes from the header, 0xff beyond it (as
             unimplemented config space reads on real hardware) *)
          let off = addr - base in
          Some
            (Bytes.init len (fun i ->
                 if off + i < Bytes.length header then Bytes.get header (off + i)
                 else '\xff'))
      | None -> None)

let handle_mmio_write t ~addr ~data =
  match window_of t addr with
  | Some (regs, off) ->
      Mmio.Device.write regs ~off data;
      true
  | None -> (
      match config_of t addr with
      | Some _ -> true (* config writes (e.g. BAR probing) are absorbed *)
      | None -> false)

(* --- wrap_syscall transport --- *)

let install_wrap_syscall t =
  let vcpus = Tracee.vcpus t.tracee in
  Tracee.hook_syscalls t.tracee
    ~on_entry:(fun _ -> ())
    ~on_exit:(fun th ->
      let regs = th.Hostos.Proc.regs in
      let vcpu =
        if regs.X86.Regs.rsi = Kvm.Api.run then
          List.find_opt
            (fun v -> v.Tracee.fd_num = regs.X86.Regs.rdi)
            vcpus
        else None
      in
      match vcpu with
      | None -> Hostos.Proc.Deliver
      | Some v -> (
          (* read the kvm_run page remotely and look at the exit *)
          match
            Kvm.Api.decode_exit
              (Hyp_mem.read_hva t.mem ~hva:v.Tracee.run_hva
                 ~len:Kvm.Api.exit_size)
          with
          | Kvm.Api.Exit_mmio { phys_addr; len; is_write; data } -> (
              if is_write then
                if handle_mmio_write t ~addr:phys_addr ~data then
                  Hostos.Proc.Reenter
                else Hostos.Proc.Deliver
              else
                match handle_mmio_read t ~addr:phys_addr ~len with
                | Some resp ->
                    (* complete the MMIO read: place the data where KVM
                       picks it up on re-entry *)
                    let buf = Bytes.make 8 '\000' in
                    Bytes.blit resp 0 buf 0 (min 8 (Bytes.length resp));
                    Hyp_mem.write_hva t.mem ~hva:(v.Tracee.run_hva + 24) buf;
                    Hostos.Proc.Reenter
                | None -> Hostos.Proc.Deliver)
          | _ -> Hostos.Proc.Deliver))

let uninstall_wrap_syscall t = Tracee.unhook_syscalls t.tracee

(* --- ioregionfd transport --- *)

let ioregion_pump t ~sock () =
  let rec drain () =
    match sock.Fd.ops.read ~len:32 with
    | Error _ -> ()
    | Ok frame when Bytes.length frame = 0 -> ()
    | Ok frame ->
        (match Kvm.Api.decode_ioregion_msg frame with
        | Some (Kvm.Api.Ioreg_read { offset; len }) ->
            let addr = t.region_base + offset in
            let resp =
              match handle_mmio_read t ~addr ~len with
              | Some b -> b
              | None -> Bytes.make len '\000'
            in
            ignore (sock.Fd.ops.write (Kvm.Api.encode_ioregion_resp resp))
        | Some (Kvm.Api.Ioreg_write { offset; data }) ->
            let addr = t.region_base + offset in
            ignore (handle_mmio_write t ~addr ~data);
            ignore (sock.Fd.ops.write (Kvm.Api.encode_ioregion_resp Bytes.empty))
        | None -> ());
        drain ()
  in
  drain ()

(* --- console host side --- *)

let feed_console_input t b =
  ignore (Chan.write t.console_in b);
  match List.find_opt (fun h -> h.kind = Console) t.handles with
  | Some h -> try_feed_console t h
  | None -> ()

let read_console_output t =
  match Chan.read t.console_out 1048576 with
  | Ok b -> b
  | Error _ -> Bytes.empty
