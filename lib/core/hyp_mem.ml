module Host = Hostos.Host
module Proc = Hostos.Proc

type slot = { gpa : int; size : int; hva : int }
type copy_mode = Bulk | Chunked_4k | Peek_u64

type t = {
  host : Host.t;
  vmsh : Proc.t;
  pid : int;
  mutable slot_list : slot list;
  mutable cmode : copy_mode;
  mutable journal : Journal.t option;
}

let create host ~vmsh ~hypervisor_pid ~slots ?(mode = Bulk) () =
  { host; vmsh; pid = hypervisor_pid; slot_list = slots; cmode = mode;
    journal = None }

let host t = t.host
let slots t = t.slot_list
let add_slot t s = t.slot_list <- t.slot_list @ [ s ]
let remove_slot t ~gpa = t.slot_list <- List.filter (fun s -> s.gpa <> gpa) t.slot_list
let mode t = t.cmode
let set_mode t m = t.cmode <- m
let set_journal t j = t.journal <- j
let journal t = t.journal

(* Overlay occupancy of the hypervisor process backing this fabric: a
   forked VMM maps guest RAM as a CoW view over the shared baseline,
   and every VMSH write lands in the clone's private overlay through
   the same process_vm path — this is the attach-side measure of that
   private footprint (all zeros for a cold-booted hypervisor). *)
let overlay_stats t =
  match Host.find_proc t.host ~pid:t.pid with
  | None ->
      {
        Hostos.Mem.cs_pages_total = 0;
        cs_pages_copied = 0;
        cs_silent_writes = 0;
        cs_resident_bytes = 0;
      }
  | Some p -> Hostos.Mem.Addr_space.cow_totals p.Proc.aspace

let top_of_guest_phys t =
  List.fold_left (fun acc s -> max acc (s.gpa + s.size)) 0 t.slot_list

(* Pure bounds probe — the virtqueue bounds validator asks this for
   every descriptor buffer before any process_vm call is issued, so a
   hostile out-of-bounds address is quarantined instead of raised. *)
let backed t ~gpa ~len =
  len >= 0
  && gpa >= 0
  &&
  let rec go gpa len =
    len = 0
    ||
    match
      List.find_opt (fun s -> gpa >= s.gpa && gpa < s.gpa + s.size) t.slot_list
    with
    | None -> false
    | Some s ->
        let chunk = min (s.gpa + s.size - gpa) len in
        go (gpa + chunk) (len - chunk)
  in
  go gpa len

let fail_errno what e = Vmsh_error.fail (Vmsh_error.substrate ("Hyp_mem." ^ what) e)

(* All remote-memory traffic goes through the bounded-retry wrappers: a
   transient EFAULT (page mid-remap under the hypervisor) or EAGAIN is
   retried with virtual-time backoff; a persistent one still fails. *)
let vm_read t ~addr ~len =
  Retry.with_backoff t.host ~counter:"recovery.vm_rw_retry"
    ~should_retry:(function
      | Error (Hostos.Errno.EFAULT | Hostos.Errno.EAGAIN) -> true
      | _ -> false)
    (fun () -> Host.process_vm_read t.host ~caller:t.vmsh ~pid:t.pid ~addr ~len)

let vm_write t ~addr b =
  Retry.with_backoff t.host ~counter:"recovery.vm_rw_retry"
    ~should_retry:(function
      | Error (Hostos.Errno.EFAULT | Hostos.Errno.EAGAIN) -> true
      | _ -> false)
    (fun () -> Host.process_vm_write t.host ~caller:t.vmsh ~pid:t.pid ~addr b)

let vm_readv t ~iov =
  Retry.with_backoff t.host ~counter:"recovery.vm_rw_retry"
    ~should_retry:(function
      | Error (Hostos.Errno.EFAULT | Hostos.Errno.EAGAIN) -> true
      | _ -> false)
    (fun () -> Host.process_vm_readv t.host ~caller:t.vmsh ~pid:t.pid ~iov)

let vm_writev t ~iov =
  Retry.with_backoff t.host ~counter:"recovery.vm_rw_retry"
    ~should_retry:(function
      | Error (Hostos.Errno.EFAULT | Hostos.Errno.EAGAIN) -> true
      | _ -> false)
    (fun () -> Host.process_vm_writev t.host ~caller:t.vmsh ~pid:t.pid ~iov)

let read_hva t ~hva ~len =
  match t.cmode with
  | Bulk -> (
      match vm_read t ~addr:hva ~len with
      | Ok b -> b
      | Error e -> fail_errno "read_hva" e)
  | Chunked_4k ->
      let clock = t.host.Host.clock in
      let out = Bytes.create len in
      let rec go off =
        if off < len then begin
          let chunk = min 4096 (len - off) in
          (* bounce through a local buffer: the extra pread syscall and
             the extra memcpy of the unoptimised path *)
          Hostos.Clock.syscall clock;
          Hostos.Clock.copy_bytes clock chunk;
          (match vm_read t ~addr:(hva + off) ~len:chunk with
          | Ok b -> Bytes.blit b 0 out off chunk
          | Error e -> fail_errno "read_hva(chunked)" e);
          go (off + chunk)
        end
      in
      go 0;
      out
  | Peek_u64 ->
      let out = Bytes.create len in
      let rec go off =
        if off < len then begin
          let chunk = min 8 (len - off) in
          (match vm_read t ~addr:(hva + off) ~len:chunk with
          | Ok b -> Bytes.blit b 0 out off chunk
          | Error e -> fail_errno "read_hva(peek)" e);
          go (off + 8)
        end
      in
      go 0;
      out

let write_hva t ~hva b =
  match t.cmode with
  | Bulk -> (
      match vm_write t ~addr:hva b with
      | Ok () -> ()
      | Error e -> fail_errno "write_hva" e)
  | Chunked_4k ->
      let clock = t.host.Host.clock in
      let len = Bytes.length b in
      let rec go off =
        if off < len then begin
          let chunk = min 4096 (len - off) in
          Hostos.Clock.syscall clock;
          Hostos.Clock.copy_bytes clock chunk;
          (match vm_write t ~addr:(hva + off) (Bytes.sub b off chunk) with
          | Ok () -> ()
          | Error e -> fail_errno "write_hva(chunked)" e);
          go (off + chunk)
        end
      in
      go 0
  | Peek_u64 ->
      let len = Bytes.length b in
      let rec go off =
        if off < len then begin
          let chunk = min 8 (len - off) in
          (match vm_write t ~addr:(hva + off) (Bytes.sub b off chunk) with
          | Ok () -> ()
          | Error e -> fail_errno "write_hva(peek)" e);
          go (off + 8)
        end
      in
      go 0

(* Physical accesses may cross slot boundaries. [segments] resolves a
   gpa range to host-virtual (hva, len) pieces, merging pieces whose
   hva ranges happen to be contiguous so the Bulk path can hand the
   whole access to one vectored process_vm_readv/writev call. *)
let segments t ~what ~gpa ~len =
  let rec go gpa len acc =
    if len = 0 then List.rev acc
    else
      match
        List.find_opt
          (fun s -> gpa >= s.gpa && gpa < s.gpa + s.size)
          t.slot_list
      with
      | None ->
          Vmsh_error.fail
            (Vmsh_error.Msg (Printf.sprintf "Hyp_mem.%s: 0x%x unbacked" what gpa))
      | Some s ->
          let avail = s.gpa + s.size - gpa in
          let chunk = min avail len in
          let hva = s.hva + (gpa - s.gpa) in
          let acc =
            match acc with
            | (phva, plen) :: rest when phva + plen = hva ->
                (phva, plen + chunk) :: rest
            | _ -> (hva, chunk) :: acc
          in
          go (gpa + chunk) (len - chunk) acc
  in
  go gpa len []

let read_phys t ~gpa ~len =
  if len = 0 then Bytes.empty
  else
    let segs = segments t ~what:"read_phys" ~gpa ~len in
    let join = function
      | [ part ] -> part
      | parts -> Bytes.concat Bytes.empty parts
    in
    match t.cmode with
    | Bulk -> (
        (* one vectored syscall for the whole access, however many
           memslots back it *)
        match vm_readv t ~iov:segs with
        | Ok parts -> join parts
        | Error e -> fail_errno "read_phys" e)
    | _ -> join (List.map (fun (hva, len) -> read_hva t ~hva ~len) segs)

let write_phys_raw t ~gpa b =
  let len = Bytes.length b in
  if len > 0 then begin
    let segs = segments t ~what:"write_phys" ~gpa ~len in
    (* a single segment spanning the whole access needs no sub-buffer *)
    let piece off seg_len =
      if seg_len = len then b else Bytes.sub b off seg_len
    in
    match t.cmode with
    | Bulk -> (
        let _, iov =
          List.fold_left
            (fun (off, acc) (hva, len) ->
              (off + len, (hva, piece off len) :: acc))
            (0, []) segs
        in
        match vm_writev t ~iov:(List.rev iov) with
        | Ok () -> ()
        | Error e -> fail_errno "write_phys" e)
    | _ ->
        ignore
          (List.fold_left
             (fun off (hva, len) ->
               write_hva t ~hva (piece off len);
               off + len)
             0 segs)
  end

(* Journal hook: before overwriting guest-physical bytes, read and
   record the old content so rollback can restore them (PTE installs
   arrive here too, via [pt_access]'s write_u64). Writes wholly inside
   an overlay-owned range (the fresh vmsh memslot and its page-table
   arena) are exempt — removing the slot undoes them wholesale. After
   the journal seals (attach committed), steady-state device writes are
   only noted as late-write pages for the snapshot oracle. *)
let write_phys t ~gpa b =
  let len = Bytes.length b in
  (match t.journal with
  | Some j when len > 0 ->
      if Journal.sealed j then Journal.note_late_write j ~gpa ~len
      else if not (Journal.owns j ~gpa ~len) then begin
        let old = read_phys t ~gpa ~len in
        Journal.record j
          ~what:(Printf.sprintf "guest bytes 0x%x+%d" gpa len)
          (fun () -> write_phys_raw t ~gpa old)
      end
  | _ -> ());
  write_phys_raw t ~gpa b

let read_phys_u64 t gpa =
  Int64.to_int (Bytes.get_int64_le (read_phys t ~gpa ~len:8) 0)

let write_phys_u64 t gpa v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  write_phys t ~gpa b

let pt_access t =
  { X86.Page_table.read_u64 = read_phys_u64 t; write_u64 = write_phys_u64 t }

let read_virt t ~cr3 ~va ~len =
  let acc = pt_access t in
  let out = Bytes.create len in
  let page = X86.Layout.page_size in
  let rec go va dst remaining =
    if remaining = 0 then Some out
    else
      let page_rem = page - (va land (page - 1)) in
      let chunk = min remaining page_rem in
      match X86.Page_table.translate acc ~root:cr3 va with
      | None -> None
      | Some pa ->
          Bytes.blit (read_phys t ~gpa:pa ~len:chunk) 0 out dst chunk;
          go (va + chunk) (dst + chunk) (remaining - chunk)
  in
  go va 0 len
