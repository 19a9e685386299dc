module Host = Hostos.Host
module Proc = Hostos.Proc

type slot = Kvm.Vm.memslot = { slot : int; gpa : int; size : int; hva : int }
type copy_mode = Bulk | Chunked_4k | Peek_u64

type t = {
  host : Host.t;
  vmsh : Proc.t;
  pid : int;
  mutable slot_list : slot list;
  mutable cmode : copy_mode;
  mutable journal : Journal.t option;
  u64 : Bytes.t;  (** [read_phys_u64]'s buffer, reused by every call *)
}

let create host ~vmsh ~hypervisor_pid ~slots ?(mode = Bulk) () =
  { host; vmsh; pid = hypervisor_pid; slot_list = slots; cmode = mode;
    journal = None; u64 = Bytes.create 8 }

let host t = t.host
let slots t = t.slot_list
let add_slot t s = t.slot_list <- t.slot_list @ [ s ]
let remove_slot t ~gpa = t.slot_list <- List.filter (fun s -> s.gpa <> gpa) t.slot_list
let mode t = t.cmode
let set_mode t m = t.cmode <- m
let set_journal t j = t.journal <- j
let journal t = t.journal

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

let transient = function
  | Hostos.Errno.EFAULT | Hostos.Errno.EAGAIN -> true
  | _ -> false

(* All remote-memory traffic is one process_vm call each, [(addr,
   len)] then [more] against [buf] from [off], under bounded retry: a
   transient EFAULT (page mid-remap under the hypervisor) or EAGAIN is
   retried with virtual-time backoff; a persistent one still fails,
   named by [what]. The first attempt is made here, so a call that
   succeeds builds no retry closure. *)
let vm_rw t dir ~what ~addr ~len ~more buf ~off =
  match
    Host.remote_copy t.host dir ~caller:t.vmsh ~pid:t.pid ~addr ~len ~more buf
      ~off
  with
  | Ok () -> ()
  | Error e when not (transient e) -> fail_errno what e
  | first -> (
      let copy () =
        Host.remote_copy t.host dir ~caller:t.vmsh ~pid:t.pid ~addr ~len ~more
          buf ~off
      in
      match
        Retry.with_backoff t.host ~counter:"recovery.vm_rw_retry"
          ~should_retry:(function Error e -> transient e | Ok () -> false)
          copy first
      with
      | Ok () -> ()
      | Error e -> fail_errno what e)

(* [len] bytes at [hva] in pieces of [step]: Chunked_4k bounces each
   piece through a local buffer (the extra pread/pwrite syscall and the
   extra memcpy of the unoptimised path); Peek_u64 does not. *)
let rec pieces t dir ~what ~step ~bounce ~hva buf ~off ~len o =
  if o < len then begin
    let chunk = Int.min step (len - o) in
    if bounce then begin
      Hostos.Clock.syscall t.host.Host.clock;
      Hostos.Clock.copy_bytes t.host.Host.clock chunk
    end;
    vm_rw t dir ~what ~addr:(hva + o) ~len:chunk ~more:[] buf ~off:(off + o);
    pieces t dir ~what ~step ~bounce ~hva buf ~off ~len (o + step)
  end

let hva_what = function Host.Read -> "read_hva" | Host.Write -> "write_hva"

(* One hypervisor-virtual range in the current copy mode: Bulk is one
   call, named [bulk] if it fails; Chunked_4k is one call per 4 KiB,
   Peek_u64 one per 8 bytes. *)
let hva_rw t dir ~bulk ~hva buf ~off ~len =
  match t.cmode with
  | Bulk -> vm_rw t dir ~what:bulk ~addr:hva ~len ~more:[] buf ~off
  | Chunked_4k ->
      pieces t dir ~what:(hva_what dir ^ "(chunked)") ~step:4096 ~bounce:true
        ~hva buf ~off ~len 0
  | Peek_u64 ->
      pieces t dir ~what:(hva_what dir ^ "(peek)") ~step:8 ~bounce:false ~hva
        buf ~off ~len 0

let read_hva t ~hva ~len =
  let b = Bytes.create len in
  hva_rw t Host.Read ~bulk:(hva_what Host.Read) ~hva b ~off:0 ~len;
  b

let write_hva t ~hva b =
  hva_rw t Host.Write ~bulk:(hva_what Host.Write) ~hva b ~off:0
    ~len:(Bytes.length b)

(* Physical accesses may cross slot boundaries. [segments_from] resolves a
   gpa range to host-virtual (hva, len) pieces, merging pieces whose
   hva ranges happen to be contiguous so the Bulk path can hand the
   whole access to one vectored process_vm_readv/writev call. *)
let rec segments_from slots ~what ~gpa ~len acc = function
  | [] ->
      Vmsh_error.fail
        (Vmsh_error.Msg (Printf.sprintf "Hyp_mem.%s: 0x%x unbacked" what gpa))
  | s :: rest when gpa < s.gpa || gpa >= s.gpa + s.size ->
      segments_from slots ~what ~gpa ~len acc rest
  | s :: _ ->
      let chunk = Int.min (s.gpa + s.size - gpa) len in
      let hva = s.hva + (gpa - s.gpa) in
      let acc =
        match acc with
        | (phva, plen) :: rest when phva + plen = hva -> (phva, plen + chunk) :: rest
        | _ -> (hva, chunk) :: acc
      in
      if chunk = len then List.rev acc
      else
        segments_from slots ~what ~gpa:(gpa + chunk) ~len:(len - chunk) acc slots

(* The slot holding [gpa]; [Not_found] if none. *)
let rec slot_at gpa = function
  | [] -> raise_notrace Not_found
  | s :: rest -> if gpa >= s.gpa && gpa < s.gpa + s.size then s else slot_at gpa rest

(* A guest-physical range: a range inside one slot is one hypervisor-
   virtual range, resolved without a segment list. Otherwise Bulk
   issues one vectored syscall for the whole access, however many
   memslots back it, and the other modes copy segment by segment. *)
let phys_rw t dir ~what ~gpa buf ~off ~len =
  if len > 0 then
    match slot_at gpa t.slot_list with
    | s when gpa + len <= s.gpa + s.size ->
        hva_rw t dir ~bulk:what ~hva:(s.hva + (gpa - s.gpa)) buf ~off ~len
    | _ | (exception Not_found) -> (
        match segments_from t.slot_list ~what ~gpa ~len [] t.slot_list with
        | [] -> ()
        | (addr, len) :: more when t.cmode = Bulk ->
            vm_rw t dir ~what ~addr ~len ~more buf ~off
        | segs ->
            ignore
              (List.fold_left
                 (fun o (hva, len) ->
                   hva_rw t dir ~bulk:what ~hva buf ~off:o ~len;
                   o + len)
                 off segs))

let read_phys_into t ~gpa buf ~off ~len =
  phys_rw t Host.Read ~what:"read_phys" ~gpa buf ~off ~len

let read_phys t ~gpa ~len =
  let b = Bytes.create len in
  read_phys_into t ~gpa b ~off:0 ~len;
  b

let write_phys_raw t ~gpa buf ~off ~len =
  phys_rw t Host.Write ~what:"write_phys" ~gpa buf ~off ~len

(* Journal hook: before overwriting guest-physical bytes, read and
   record the old content so rollback can restore them (PTE installs
   arrive here too, via [pt_access]'s write_u64). Writes wholly inside
   an overlay-owned range (the fresh vmsh memslot and its page-table
   arena) are exempt — removing the slot undoes them wholesale. After
   the journal seals (attach committed), steady-state device writes are
   only noted as late-write pages for the snapshot oracle. *)
let write_phys_from t ~gpa buf ~off ~len =
  (match t.journal with
  | Some j when len > 0 ->
      if Journal.sealed j then Journal.note_late_write j ~gpa ~len
      else if not (Journal.owns j ~gpa ~len) then begin
        let old = read_phys t ~gpa ~len in
        Journal.record j
          ~what:(Printf.sprintf "guest bytes 0x%x+%d" gpa len)
          (fun () -> write_phys_raw t ~gpa old ~off:0 ~len)
      end
  | _ -> ());
  write_phys_raw t ~gpa buf ~off ~len

let write_phys t ~gpa b = write_phys_from t ~gpa b ~off:0 ~len:(Bytes.length b)

let read_phys_u64 t gpa =
  read_phys_into t ~gpa t.u64 ~off:0 ~len:8;
  Int64.to_int (Bytes.get_int64_le t.u64 0)

let write_phys_u64 t gpa v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  write_phys t ~gpa b

let pt_access t =
  { X86.Page_table.read_u64 = read_phys_u64 t; write_u64 = write_phys_u64 t }

let read_virt_into t ~cr3 ~va buf ~off ~len =
  let acc = pt_access t in
  let page = X86.Layout.page_size in
  let rec go va dst remaining =
    if remaining = 0 then true
    else
      let page_rem = page - (va land (page - 1)) in
      let chunk = Int.min remaining page_rem in
      match X86.Page_table.translate acc ~root:cr3 va with
      | None -> false
      | Some pa ->
          read_phys_into t ~gpa:pa buf ~off:dst ~len:chunk;
          go (va + chunk) (dst + chunk) (remaining - chunk)
  in
  go va off len

let read_virt t ~cr3 ~va ~len =
  let out = Bytes.create len in
  if read_virt_into t ~cr3 ~va out ~off:0 ~len then Some out else None
