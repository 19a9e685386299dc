(* Hypervisor-boundary flight recorder: bounded event ring + compact
   binary [.vmshtrace] codec + event-stream diff.

   Recording is pure observation. The recorder never reads the clock
   except through the [now] closure it was given (which does not
   advance it), never draws randomness, and allocates only inside its
   capacity-bounded ring — so it can stay always-on without perturbing
   the simulation, and identically-seeded runs serialize to
   byte-identical files. *)

type value = I of int | S of string

type event = {
  kind : string;
  ts : float;
  session : int;
  args : (string * value) list;
}

type file = {
  f_meta : (string * string) list;
  f_dropped : int;
  f_events : event list;
}

type phase = Boundary | Begin | End | Instant

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  (* One ring holds both record classes; [phs] tags each slot, and is
     allocated only when detail records are first switched on (until
     then every slot is a boundary record). Boundary counts
     ([boundary], [dropped]) are kept apart so that switching detail
     records on never changes what {!save} writes. [seq] counts every
     record ever written; [mark] is its value at the last
     [set_detail true].

     [buf] (and [phs], once allocated) start at [initial_slots] and
     double when full, up to [cap]; the ring wraps only at [cap]. So
     [start] stays 0 until the ring is [cap] long, and a host that
     records a few hundred events never allocates the whole ring. *)
  type t = {
    now : unit -> float;
    cap : int;
    mutable buf : event array;
    mutable phs : phase array;
    mutable start : int;
    mutable len : int;
    mutable seq : int;
    mutable boundary : int;
    mutable dropped : int;
    mutable on : bool;
    mutable detail : bool;
    mutable mark : int;
    mutable sess : int;
    mutable hdr : (string * string) list;
  }

  let default_capacity = 65536

  (* 256 slots is the largest array the minor heap takes. *)
  let initial_slots = 256
  let dummy = { kind = ""; ts = 0.0; session = 0; args = [] }

  let create ?(capacity = default_capacity) ~now () =
    let cap = max 1 capacity in
    {
      now;
      cap;
      buf = Array.make (min cap initial_slots) dummy;
      phs = [||];
      start = 0;
      len = 0;
      seq = 0;
      boundary = 0;
      dropped = 0;
      on = true;
      detail = false;
      mark = 0;
      sess = 0;
      hdr = [];
    }

  let now t = t.now ()
  let set_enabled t b = t.on <- b
  let detail t = t.detail

  let set_detail t b =
    if b then begin
      if Array.length t.phs = 0 then
        t.phs <- Array.make (Array.length t.buf) Boundary;
      t.mark <- t.seq
    end;
    t.detail <- b

  let set_session t s = t.sess <- s
  let session t = t.sess

  let set_meta t k v =
    if List.mem_assoc k t.hdr then
      t.hdr <- List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) t.hdr
    else t.hdr <- t.hdr @ [ (k, v) ]

  let meta t = t.hdr

  let phase_at t i = if Array.length t.phs = 0 then Boundary else t.phs.(i)

  (* Double the slots (at most to [cap]); only called while the ring
     has not wrapped, so its records are the prefix [0, len). *)
  let grow t =
    let n = min t.cap (2 * Array.length t.buf) in
    let buf = Array.make n dummy in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf;
    if Array.length t.phs > 0 then begin
      let phs = Array.make n Boundary in
      Array.blit t.phs 0 phs 0 t.len;
      t.phs <- phs
    end

  let push t ph e =
    let i =
      if t.len < t.cap then begin
        if t.len = Array.length t.buf then grow t;
        t.len <- t.len + 1;
        t.len - 1
      end
      else begin
        if phase_at t t.start = Boundary then t.dropped <- t.dropped + 1;
        let i = t.start in
        t.start <- (t.start + 1) mod t.cap;
        i
      end
    in
    t.buf.(i) <- e;
    if Array.length t.phs > 0 then t.phs.(i) <- ph;
    t.seq <- t.seq + 1

  let record t ?(phase = Boundary) ~kind ?(args = []) () =
    if (match phase with Boundary -> t.on | Begin | End | Instant -> t.detail)
    then begin
      if phase = Boundary then t.boundary <- t.boundary + 1;
      push t phase { kind; ts = t.now (); session = t.sess; args }
    end

  (* Ring slots [from, len), oldest first. *)
  let slots t ~from f =
    let acc = ref [] in
    for i = t.len - 1 downto from do
      let j = (t.start + i) mod t.cap in
      match f (phase_at t j) t.buf.(j) with Some x -> acc := x :: !acc | None -> ()
    done;
    !acc

  let events t =
    slots t ~from:0 (fun ph e -> if ph = Boundary then Some e else None)

  let stream t =
    slots t ~from:(max 0 (t.mark - (t.seq - t.len))) (fun ph e -> Some (ph, e))

  let stream_dropped t = max 0 (t.seq - t.len - t.mark)
  let total t = t.boundary
  let dropped t = t.dropped
end

(* ------------------------------------------------------------------ *)
(* Mutation-safe accessors & causality metadata                        *)
(* ------------------------------------------------------------------ *)

(* The trace-mutation fuzzer (lib/fuzz) edits events without knowing
   their layout; these accessors keep every edit well-typed so a mutant
   still round-trips through the codec. *)

let int_arg e k =
  match List.assoc_opt k e.args with Some (I i) -> Some i | _ -> None

let str_arg e k =
  match List.assoc_opt k e.args with Some (S s) -> Some s | _ -> None

let with_int_arg e k v =
  if List.mem_assoc k e.args then
    {
      e with
      args =
        List.map (fun (k', v') -> if k' = k then (k', I v) else (k', v')) e.args;
    }
  else { e with args = e.args @ [ (k, I v) ] }

let with_ts e ts = { e with ts }
let with_session e session = { e with session }

(* Causality metadata: which event pairs a mutator may legally swap.
   Lifecycle events anchor a session's transaction window — everything
   else in the session is causally ordered against them — and two
   same-kind events in one session form a FIFO (descriptor completions,
   injected syscalls, pump rounds) whose order carries meaning. Events
   of different sessions are concurrent by construction (each session
   owns its machine) and always commute. *)

let lifecycle e =
  match e.kind with
  | "attach.begin" | "attach.commit" | "attach.abort" | "journal.rollback" ->
      true
  | _ -> false

let commutes a b =
  a.session <> b.session
  || ((not (lifecycle a)) && (not (lifecycle b)) && a.kind <> b.kind)

(* ------------------------------------------------------------------ *)
(* Binary codec                                                        *)
(* ------------------------------------------------------------------ *)

let magic = "VMSHTRC1"

(* The corpus cache key: coverage accumulated under one codec version
   must not seed a fuzzer reading another. *)
let codec_version = magic

let add_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let add_u32 b v =
  add_u16 b (v land 0xffff);
  add_u16 b ((v lsr 16) land 0xffff)

let add_i64 b (v : int64) =
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let add_str32 b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* Strings (kinds, arg names, string arg values) are interned in a
   table built in first-appearance order, which is deterministic. *)
let encode ~meta ?(dropped = 0) events =
  let table = Hashtbl.create 64 in
  let order = ref [] in
  let nstr = ref 0 in
  let intern s =
    match Hashtbl.find_opt table s with
    | Some i -> i
    | None ->
        let i = !nstr in
        Hashtbl.add table s i;
        order := s :: !order;
        incr nstr;
        i
  in
  (* First pass: build the table. *)
  List.iter
    (fun e ->
      ignore (intern e.kind);
      List.iter
        (fun (k, v) ->
          ignore (intern k);
          match v with S s -> ignore (intern s) | I _ -> ())
        e.args)
    events;
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_u32 b (List.length meta);
  List.iter
    (fun (k, v) ->
      add_str32 b k;
      add_str32 b v)
    meta;
  add_u32 b dropped;
  add_u32 b !nstr;
  List.iter (fun s -> add_str32 b s) (List.rev !order);
  add_u32 b (List.length events);
  List.iter
    (fun e ->
      add_u32 b (Hashtbl.find table e.kind);
      add_u32 b e.session;
      add_i64 b (Int64.bits_of_float e.ts);
      add_u16 b (List.length e.args);
      List.iter
        (fun (k, v) ->
          add_u32 b (Hashtbl.find table k);
          match v with
          | I i ->
              Buffer.add_char b '\000';
              add_i64 b (Int64.of_int i)
          | S s ->
              Buffer.add_char b '\001';
              add_u32 b (Hashtbl.find table s))
        e.args)
    events;
  Buffer.contents b

exception Bad of string

let decode s =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length s then raise (Bad "truncated trace file")
  in
  let u8 () =
    need 1;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u16 () =
    let lo = u8 () in
    let hi = u8 () in
    lo lor (hi lsl 8)
  in
  let u32 () =
    let lo = u16 () in
    let hi = u16 () in
    lo lor (hi lsl 16)
  in
  let i64 () =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 ())) (8 * i))
    done;
    !v
  in
  let str32 () =
    let n = u32 () in
    need n;
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  try
    need (String.length magic);
    if String.sub s 0 (String.length magic) <> magic then
      raise (Bad "bad magic (not a .vmshtrace file)");
    pos := String.length magic;
    let nmeta = u32 () in
    let meta =
      List.init nmeta (fun _ ->
          let k = str32 () in
          let v = str32 () in
          (k, v))
    in
    let dropped = u32 () in
    let nstr = u32 () in
    let table = Array.init nstr (fun _ -> str32 ()) in
    let lookup i =
      if i < 0 || i >= nstr then raise (Bad "string index out of range")
      else table.(i)
    in
    let nev = u32 () in
    let events =
      List.init nev (fun _ ->
          let kind = lookup (u32 ()) in
          let session = u32 () in
          let ts = Int64.float_of_bits (i64 ()) in
          let nargs = u16 () in
          let args =
            List.init nargs (fun _ ->
                let k = lookup (u32 ()) in
                match u8 () with
                | 0 -> (k, I (Int64.to_int (i64 ())))
                | 1 -> (k, S (lookup (u32 ())))
                | t -> raise (Bad (Printf.sprintf "unknown arg tag %d" t)))
          in
          { kind; ts; session; args })
    in
    Ok { f_meta = meta; f_dropped = dropped; f_events = events }
  with Bad m -> Error m

let write path ~meta ~dropped events =
  let oc = open_out_bin path in
  output_string oc (encode ~meta ~dropped events);
  close_out oc

let save r ?(extra_meta = []) path =
  write path
    ~meta:(Recorder.meta r @ extra_meta)
    ~dropped:(Recorder.dropped r) (Recorder.events r)

let load path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> decode s
  | exception Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Diff / stat                                                         *)
(* ------------------------------------------------------------------ *)

let value_str = function I i -> string_of_int i | S s -> s

let args_str args =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ value_str v) args)

let event_str e =
  Printf.sprintf "[%.0f] s%d %s %s" e.ts e.session e.kind (args_str e.args)

let pp_event ppf e = Format.pp_print_string ppf (event_str e)

let diff a b =
  let max_report = 16 in
  let rec go i a b acc nmis =
    match (a, b) with
    | [], [] -> (List.rev acc, nmis)
    | x :: _, [] ->
        ( List.rev
            (Printf.sprintf "event %d: only in live: %s" i (event_str x) :: acc),
          nmis + 1 )
    | [], y :: _ ->
        ( List.rev
            (Printf.sprintf "event %d: only in replay: %s" i (event_str y)
            :: acc),
          nmis + 1 )
    | x :: a', y :: b' ->
        if x = y then go (i + 1) a' b' acc nmis
        else
          let acc =
            if nmis < max_report then
              Printf.sprintf "event %d: live %s | replay %s" i (event_str x)
                (event_str y)
              :: acc
            else acc
          in
          go (i + 1) a' b' acc (nmis + 1)
  in
  let lines, nmis = go 0 a b [] 0 in
  let la = List.length a and lb = List.length b in
  let tail =
    if nmis = 0 && la = lb then []
    else
      [
        Printf.sprintf "streams diverge: %d mismatches (%d live vs %d replay events)"
          nmis la lb;
      ]
  in
  if nmis = 0 && la = lb then [] else lines @ tail

let stat events =
  let counts = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt counts e.kind with
      | Some n -> Hashtbl.replace counts e.kind (n + 1)
      | None ->
          Hashtbl.add counts e.kind 1;
          order := e.kind :: !order)
    events;
  List.rev_map (fun k -> (k, Hashtbl.find counts k)) !order

(* ------------------------------------------------------------------ *)
(* Failure artifacts                                                   *)
(* ------------------------------------------------------------------ *)

let dump_dir () =
  match Sys.getenv_opt "VMSH_TRACE_DIR" with
  | Some d when d <> "" -> Some d
  | _ -> None

let dump_on_failure r ~name ?(extra_meta = []) () =
  match dump_dir () with
  | None -> None
  | Some dir -> (
      let path = Filename.concat dir (name ^ ".vmshtrace") in
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        save r ~extra_meta path;
        Some path
      with Sys_error _ -> None)
