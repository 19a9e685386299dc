(* Guest-mutation journal: the undo log that makes attach a
   transaction.

   Every side effect the attach pipeline performs on guest or
   hypervisor state — overwritten guest-physical bytes, PTE installs,
   vCPU register mutations, memslot additions, remote mmaps and fds,
   device/irqfd/ioregionfd wiring — is recorded as an undo entry on a
   per-session log. [Attach.detach] and every abort path call [replay],
   which runs the undo closures newest-first so the guest is restored
   byte-for-byte in the reverse of the mutation order (see DESIGN.md
   §4f for the mutation → undo → replay-order table).

   Two refinements keep the log small and the fault-free path cheap:

   - [note_owned] marks guest-physical ranges the overlay allocated for
     itself (the side-loaded library's memslot, its page-table arena).
     Writes wholly inside an owned range need no byte journal — the
     range is torn down wholesale by its own undo entry (memslot
     removal), so journaling its interior would only restore bytes into
     a region about to vanish.

   - [seal] freezes the log once the attach transaction commits.
     Steady-state device activity after a successful attach (virtqueue
     used-ring updates while the overlay serves requests) appends no
     undo entries; the pages those writes touch are collected as
     [late_writes] instead, which the snapshot oracle excludes
     alongside pages the guest itself wrote — in-flight ring updates
     are jointly owned with the guest that requested the I/O. A page
     set, so it stays as small as the pages the devices write, however
     long the session serves.

   Rollback counters ([rollback.replays], [rollback.entries]) are
   registered lazily at replay time, mirroring the recovery.* pattern:
   a run that never rolls back allocates no counters and stays
   byte-identical to a build without this module. *)

type entry = { what : string; undo : unit -> unit }

type t = {
  mutable entries : entry list; (* newest first = replay order *)
  mutable sealed : bool;
  mutable owned : (int * int) list; (* (gpa, len) overlay-owned ranges *)
  late_pages : (int, unit) Hashtbl.t; (* page gpas of post-seal writes *)
}

let create () =
  { entries = []; sealed = false; owned = []; late_pages = Hashtbl.create 16 }

let record t ~what undo =
  if not t.sealed then t.entries <- { what; undo } :: t.entries

let length t = List.length t.entries
let labels t = List.map (fun e -> e.what) t.entries

let seal t = t.sealed <- true
let sealed t = t.sealed

let note_owned t ~gpa ~len = t.owned <- (gpa, len) :: t.owned

let owns t ~gpa ~len =
  List.exists (fun (base, sz) -> gpa >= base && gpa + len <= base + sz) t.owned

let page_size = Hostos.Mem.page_size

let note_late_write t ~gpa ~len =
  if len > 0 then
    for p = gpa / page_size to (gpa + len - 1) / page_size do
      Hashtbl.replace t.late_pages (p * page_size) ()
    done

let late_writes t =
  Hashtbl.fold (fun gpa () acc -> (gpa, page_size) :: acc) t.late_pages []
  |> List.sort compare

(* Replay newest-first. A failing undo does not stop the replay — the
   remaining (older) entries still restore as much state as possible —
   but the first failure is reported so the caller can surface a
   [Rollback_failed]. The log is consumed either way; an entry must
   never be replayed twice. *)
let replay ?metrics t =
  let entries = t.entries in
  t.entries <- [];
  let first_err = ref None in
  List.iter
    (fun e ->
      try e.undo ()
      with exn ->
        if !first_err = None then
          let inner =
            match exn with
            | Vmsh_error.Error err -> err
            | exn -> Vmsh_error.Msg (Printexc.to_string exn)
          in
          first_err := Some (Vmsh_error.Context (e.what, inner)))
    entries;
  (match metrics with
  | Some m when entries <> [] ->
      Observe.Metrics.incr (Observe.Metrics.counter m "rollback.replays");
      Observe.Metrics.incr
        ~by:(List.length entries)
        (Observe.Metrics.counter m "rollback.entries")
  | _ -> ());
  match !first_err with None -> Ok () | Some e -> Error e
