(* Trace-mutation fuzzing of the hypervisor boundary (the IRIS half
   that PR 6's capture/replay machinery was built for).

   A recorded [.vmshtrace] stream is a byte-exact transcript of every
   KVM-boundary event of a deterministic run. This engine mutates that
   transcript with seeded, structure-aware operators — reorder adjacent
   events within causality constraints, drop/duplicate doorbells and
   interrupts, corrupt typed event arguments, splice a window from a
   second session's stream, time-warp virtual timestamps — and treats
   each mutant as a hypothesis about what a hostile or buggy hypervisor
   could present to the attach protocol.

   Each mutant is judged in two steps:

   1. the {e causality validator} checks the mutant against the
      boundary protocol model (monotonic virtual time, per-session
      transaction windows, typed argument ranges). A violating stream
      is what a correct vmsh must reject — verdict [Clean_abort].
   2. a protocol-consistent mutant is {e executed}: its mutations are
      lowered to a scripted fault plan (drop the n-th doorbell, tear
      the n-th descriptor read, bounce the n-th injected syscall) and
      the recipe's attach re-runs for real under that plan, with the
      journal + snapshot oracle live (see {!Replay.execute_attack}).
      Completion is [Survived]; a rolled-back, round-trippable failure
      is [Clean_abort]; anything else — escaped exception, oracle
      divergence, fd leak, virtual-budget hang — is a [Bug].

   The corpus layer keeps mutants that reach novel event-sequence
   coverage (n-gram hashes of the kind stream) and feeds them back as
   mutation parents; [Bug] mutants are auto-minimized by delta-debugging
   the mutation list (halves, then single mutations) down to a minimal
   reproducer, and the reproducer trace is truncated to the prefix the
   surviving mutations actually touch.

   Everything is a deterministic function of (trace bytes, seed): the
   engine draws only from its private splitmix64 stream, so two
   identical campaigns produce byte-identical mutants, corpora and
   ledgers. *)

type verdict = Faults.Abort.verdict

(* ------------------------------------------------------------------ *)
(* Private RNG stream over the shared splitmix64                      *)
(* ------------------------------------------------------------------ *)

module Rng = struct
  let create seed = Splitmix.create ~seed
  let int t n = if n <= 0 then 0 else Splitmix.int t n
  let pick t l = List.nth l (int t (List.length l))
end

(* ------------------------------------------------------------------ *)
(* Mutators                                                            *)
(* ------------------------------------------------------------------ *)

type mutator = Reorder | Drop | Duplicate | Corrupt | Splice | Timewarp

let all_mutators = [ Reorder; Drop; Duplicate; Corrupt; Splice; Timewarp ]

let mutator_name = function
  | Reorder -> "reorder"
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Corrupt -> "corrupt"
  | Splice -> "splice"
  | Timewarp -> "timewarp"

let mutator_of_name s =
  List.find_opt (fun m -> mutator_name m = s) all_mutators

type mutation = {
  m_op : mutator;
  m_at : int;  (** site index in the stream the mutation applies to *)
  m_src : int;  (** splice: source window start *)
  m_span : int;  (** splice: source window length *)
  m_key : string;  (** corrupt: the integer argument edited *)
  m_delta : int;  (** corrupt: xor mask; timewarp: factor in permille *)
}

let mk_mutation ?(src = 0) ?(span = 0) ?(key = "") ?(delta = 0) op at =
  { m_op = op; m_at = at; m_src = src; m_span = span; m_key = key;
    m_delta = delta }

(* One mutation as a compact, colon-separated record; a list joins with
   ';'. This is the form reproducer metadata carries, so it must
   round-trip exactly. *)
let mutation_to_string m =
  Printf.sprintf "%s:%d:%d:%d:%s:%d" (mutator_name m.m_op) m.m_at m.m_src
    m.m_span m.m_key m.m_delta

let mutation_of_string s =
  match String.split_on_char ':' s with
  | [ op; at; src; span; key; delta ] -> (
      match
        ( mutator_of_name op,
          int_of_string_opt at,
          int_of_string_opt src,
          int_of_string_opt span,
          int_of_string_opt delta )
      with
      | Some op, Some at, Some src, Some span, Some delta ->
          Some { m_op = op; m_at = at; m_src = src; m_span = span;
                 m_key = key; m_delta = delta }
      | _ -> None)
  | _ -> None

let mutations_to_string ms = String.concat ";" (List.map mutation_to_string ms)

let mutations_of_string s =
  if s = "" then Some []
  else
    let parts = String.split_on_char ';' s in
    let parsed = List.map mutation_of_string parts in
    if List.for_all Option.is_some parsed then
      Some (List.map Option.get parsed)
    else None

(* --- site legality --- *)

(* Doorbell-shaped events a hostile boundary could lose or repeat. *)
let droppable (e : Trace.event) =
  match e.Trace.kind with
  | "kvm.kick" | "kvm.irq" | "kvm.notify_rekick" -> true
  | _ -> false

(* The typed integer arguments worth corrupting, per event kind. *)
let corruptible_keys (e : Trace.event) =
  let keys =
    match e.Trace.kind with
    | "kvm.exit.ioregionfd" -> [ "addr" ]
    | "kvm.exit.mmio" -> [ "addr"; "len" ]
    | "kvm.irq" -> [ "gsi" ]
    | "kvm.ioctl" -> [ "code" ]
    | "inject.syscall" -> [ "ret" ]
    | _ -> []
  in
  List.filter (fun k -> Trace.int_arg e k <> None) keys

(* --- application --- *)

(* [apply events m] is [None] when the mutation is illegal at its site
   (out of range, causality-violating reorder, no typed argument). The
   proposer only emits legal mutations, but reproducer metadata is
   untrusted, so application re-checks everything. *)
let apply (events : Trace.event list) (m : mutation) :
    Trace.event list option =
  let arr = Array.of_list events in
  let n = Array.length arr in
  match m.m_op with
  | Reorder ->
      if m.m_at < 0 || m.m_at + 1 >= n then None
      else
        let a = arr.(m.m_at) and b = arr.(m.m_at + 1) in
        if not (Trace.commutes a b) then None
        else begin
          (* same-session swaps keep the timestamp slots so the
             session's clock stays monotone and the swap is purely an
             ordering mutation; cross-session swaps keep each event's
             own clock (sessions time independently) *)
          if a.Trace.session = b.Trace.session then begin
            arr.(m.m_at) <- Trace.with_ts b a.Trace.ts;
            arr.(m.m_at + 1) <- Trace.with_ts a b.Trace.ts
          end
          else begin
            arr.(m.m_at) <- b;
            arr.(m.m_at + 1) <- a
          end;
          Some (Array.to_list arr)
        end
  | Drop ->
      if m.m_at < 0 || m.m_at >= n || not (droppable arr.(m.m_at)) then None
      else
        Some
          (List.filteri (fun i _ -> i <> m.m_at) (Array.to_list arr))
  | Duplicate ->
      if m.m_at < 0 || m.m_at >= n || not (droppable arr.(m.m_at)) then None
      else
        Some
          (List.concat
             (List.mapi
                (fun i e -> if i = m.m_at then [ e; e ] else [ e ])
                (Array.to_list arr)))
  | Corrupt -> (
      if m.m_at < 0 || m.m_at >= n then None
      else
        let e = arr.(m.m_at) in
        match Trace.int_arg e m.m_key with
        | None -> None
        | Some v ->
            if not (List.mem m.m_key (corruptible_keys e)) then None
            else begin
              arr.(m.m_at) <- Trace.with_int_arg e m.m_key (v lxor m.m_delta);
              Some (Array.to_list arr)
            end)
  | Splice ->
      (* copy a window from elsewhere in the stream (another session's
         events when the trace has them) to the insertion point,
         re-tagged with the destination session and timestamp so the
         splice reads as foreign traffic arriving at that instant *)
      if
        n < 2 || m.m_span < 1 || m.m_src < 0
        || m.m_src + m.m_span > n
        || m.m_at < 0 || m.m_at >= n
      then None
      else
        let dst = arr.(m.m_at) in
        let window =
          List.map
            (fun i ->
              let e = arr.(m.m_src + i) in
              Trace.with_session (Trace.with_ts e dst.Trace.ts)
                dst.Trace.session)
            (List.init m.m_span Fun.id)
        in
        Some
          (List.concat
             (List.mapi
                (fun i e -> if i = m.m_at then window @ [ e ] else [ e ])
                (Array.to_list arr)))
  | Timewarp ->
      (* scale the inter-event spacing of the suffix by a permille
         factor; positive factors preserve monotonicity, so a
         time-warped stream is still protocol-consistent and probes
         the pipeline's indifference to boundary timing *)
      if m.m_at < 0 || m.m_at >= n || m.m_delta <= 0 then None
      else begin
        let base = if m.m_at = 0 then 0.0 else arr.(m.m_at - 1).Trace.ts in
        let f = float_of_int m.m_delta /. 1000.0 in
        for i = m.m_at to n - 1 do
          arr.(i) <-
            Trace.with_ts arr.(i)
              (base +. ((arr.(i).Trace.ts -. base) *. f))
        done;
        Some (Array.to_list arr)
      end

let apply_all base ms =
  List.fold_left
    (fun ev m -> match apply ev m with Some ev' -> ev' | None -> ev)
    base ms

(* --- proposal --- *)

(* Propose one legal mutation of class [op], or [None] if the stream
   has no legal site (e.g. nothing droppable). Deterministic: all
   choices come from [rng]. *)
let propose rng op (events : Trace.event list) : mutation option =
  let arr = Array.of_list events in
  let n = Array.length arr in
  if n = 0 then None
  else
    let sites pred = List.filter (fun i -> pred arr.(i)) (List.init n Fun.id) in
    match op with
    | Reorder ->
        let legal =
          List.filter
            (fun i -> i + 1 < n && Trace.commutes arr.(i) arr.(i + 1))
            (List.init n Fun.id)
        in
        if legal = [] then None
        else Some (mk_mutation Reorder (Rng.pick rng legal))
    | Drop ->
        let legal = sites droppable in
        if legal = [] then None else Some (mk_mutation Drop (Rng.pick rng legal))
    | Duplicate ->
        let legal = sites droppable in
        if legal = [] then None
        else Some (mk_mutation Duplicate (Rng.pick rng legal))
    | Corrupt ->
        let legal = sites (fun e -> corruptible_keys e <> []) in
        if legal = [] then None
        else
          let at = Rng.pick rng legal in
          let key = Rng.pick rng (corruptible_keys arr.(at)) in
          (* small masks keep the argument plausible (protocol-valid,
             so the mutant executes); large ones push it out of range
             (the validator must catch it) *)
          let delta =
            Rng.pick rng [ 1; 2; 4; 0x10; 0x100; 0x100000; 0x800000 ]
          in
          Some (mk_mutation Corrupt at ~key ~delta)
    | Splice ->
        if n < 4 then None
        else
          let span = 2 + Rng.int rng 3 in
          let src = Rng.int rng (n - span) in
          (* prefer a destination in another session when one exists:
             splicing across sessions is the cross-stream interleaving
             IRIS-style fuzzing is after *)
          let foreign =
            sites (fun e -> e.Trace.session <> arr.(src).Trace.session)
          in
          let at =
            if foreign <> [] then Rng.pick rng foreign else Rng.int rng n
          in
          Some (mk_mutation Splice at ~src ~span)
    | Timewarp ->
        let at = Rng.int rng n in
        let delta = Rng.pick rng [ 250; 500; 2000; 4000 ] in
        Some (mk_mutation Timewarp at ~delta)

(* ------------------------------------------------------------------ *)
(* Causality validator (the boundary protocol model)                   *)
(* ------------------------------------------------------------------ *)

let max_gsi = 1024

let validate (events : Trace.event list) : string list =
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let began = Hashtbl.create 8 and closed = Hashtbl.create 8 in
  (* virtual time is per-session: a fleet recording concatenates the
     per-host streams, each timed by its own clock *)
  let last_ts = Hashtbl.create 8 in
  List.iteri
    (fun i (e : Trace.event) ->
      let s = e.Trace.session in
      let prev =
        Option.value (Hashtbl.find_opt last_ts s) ~default:neg_infinity
      in
      if e.Trace.ts < prev then
        report
          "event %d: session %d's virtual time runs backwards (%.0f after \
           %.0f)"
          i s e.Trace.ts prev;
      Hashtbl.replace last_ts s (Float.max prev e.Trace.ts);
      (match e.Trace.kind with
      | "attach.begin" ->
          if Hashtbl.mem began s then
            report "event %d: second attach.begin for session %d" i s
          else Hashtbl.replace began s ()
      | "attach.commit" | "attach.abort" ->
          if not (Hashtbl.mem began s) then
            report "event %d: %s without attach.begin (session %d)" i
              e.Trace.kind s
          else if Hashtbl.mem closed s then
            report "event %d: %s after the window already closed (session %d)"
              i e.Trace.kind s
          else Hashtbl.replace closed s ()
      | "attach.phase" ->
          (* attach phases only happen inside an open attach window *)
          if (not (Hashtbl.mem began s)) || Hashtbl.mem closed s then
            report "event %d: %s outside an attach window (session %d)" i
              e.Trace.kind s
      | "inject.syscall" | "journal.rollback" ->
          (* injection needs an attached session but outlives the
             window: detach replays the journal (rollback + the
             injected teardown syscalls) after commit *)
          if not (Hashtbl.mem began s) then
            report "event %d: %s with no attach transaction (session %d)" i
              e.Trace.kind s
      | _ -> ());
      (match e.Trace.kind with
      | "kvm.exit.mmio" -> (
          (match Trace.int_arg e "len" with
          | Some (1 | 2 | 4 | 8) | None -> ()
          | Some l -> report "event %d: mmio access of %d bytes" i l);
          match Trace.int_arg e "is_write" with
          | Some (0 | 1) | None -> ()
          | Some w -> report "event %d: mmio direction %d" i w)
      | "kvm.irq" -> (
          match Trace.int_arg e "gsi" with
          | Some g when g < 0 || g >= max_gsi ->
              report "event %d: GSI %d out of range" i g
          | _ -> ())
      | "kvm.exit.ioregionfd" -> (
          match Trace.str_arg e "kind" with
          | Some ("read" | "write") | None -> ()
          | Some k -> report "event %d: ioregionfd op %S" i k)
      | _ -> ()))
    events;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Lowering: mutant -> scripted fault plan                             *)
(* ------------------------------------------------------------------ *)

(* A protocol-consistent mutant executes by lowering each mutation to a
   deterministic injection at the matching decision point of the live
   attach (see Faults.set_script). Occurrence indices are counted in
   the base stream within the mutation's session; they are folded by a
   small modulus because the live run's decision count need not match
   the recording's event count exactly — the script is a perturbation
   schedule, not a transcript. *)

let script_fold = 8

let script_of_mutations (base : Trace.event list) (ms : mutation list) :
    (Faults.cls * int) list =
  let arr = Array.of_list base in
  let n = Array.length arr in
  let occurrence pred at =
    let sess = arr.(at).Trace.session in
    let c = ref 0 in
    for i = 0 to at - 1 do
      if arr.(i).Trace.session = sess && pred arr.(i) then incr c
    done;
    !c mod script_fold
  in
  let kind_is k (e : Trace.event) = e.Trace.kind = k in
  let entries =
    List.filter_map
      (fun m ->
        if m.m_at < 0 || m.m_at >= n then None
        else
          let e = arr.(m.m_at) in
          match (m.m_op, e.Trace.kind) with
          | Drop, ("kvm.kick" | "kvm.irq" | "kvm.notify_rekick") ->
              Some (Faults.Notify_drop, occurrence droppable m.m_at)
          | Corrupt, "kvm.exit.ioregionfd" | Corrupt, "kvm.exit.mmio" ->
              Some (Faults.Desc_torn, occurrence (kind_is e.Trace.kind) m.m_at)
          | Corrupt, "inject.syscall" ->
              Some
                (Faults.Inject_eintr, occurrence (kind_is "inject.syscall") m.m_at)
          | Corrupt, "kvm.ioctl" ->
              Some (Faults.Inject_eagain, occurrence (kind_is "kvm.ioctl") m.m_at)
          | Corrupt, "kvm.irq" ->
              Some (Faults.Notify_drop, occurrence droppable m.m_at)
          | Reorder, _ ->
              let other = arr.(min (m.m_at + 1) (n - 1)) in
              if
                kind_is "inject.syscall" e || kind_is "inject.syscall" other
              then Some (Faults.Attach_race, 0)
              else
                Some
                  (Faults.Vm_rw_efault, occurrence (fun _ -> true) m.m_at mod 4)
          (* a duplicated doorbell is a spurious kick the devices must
             tolerate; a splice is foreign-session interleaving the
             validator already vetted — both execute the recipe
             unperturbed and must survive. Timewarp lowers separately,
             to the skew script (see [skew_script_of_mutations]). *)
          | Duplicate, _ | Splice, _ | Timewarp, _ -> None
          | Drop, _ | Corrupt, _ -> None)
      ms
  in
  List.sort_uniq compare entries

(* Timewarp's lowering target is not a fault injection but a scripted
   virtual-time decision: at the yield point matching the mutation's
   site (occurrence-folded exactly like the fault script), the harness
   stretches the virtual clock by the warp factor. Compression factors
   (< 1000 permille) still fire but add nothing — virtual time is
   monotone, so a compressed suffix can only be replayed, not
   rewound. *)
let skew_script_of_mutations (base : Trace.event list) (ms : mutation list) :
    (int * int) list =
  let arr = Array.of_list base in
  let n = Array.length arr in
  let occurrence at =
    let sess = arr.(at).Trace.session in
    let c = ref 0 in
    for i = 0 to at - 1 do
      if arr.(i).Trace.session = sess then incr c
    done;
    !c mod script_fold
  in
  List.sort_uniq compare
    (List.filter_map
       (fun m ->
         if m.m_op <> Timewarp || m.m_at < 0 || m.m_at >= n || m.m_delta <= 0
         then None
         else Some (occurrence m.m_at, m.m_delta))
       ms)

(* Mutations with no runtime lowering at all: the mutant stream itself
   is the whole perturbation. Counted per executed chain so campaign
   metrics ([fuzz.lowering.noop]) show how much ran unperturbed. *)
let lowering_noops (ms : mutation list) : int =
  List.length
    (List.filter (fun m -> m.m_op = Duplicate || m.m_op = Splice) ms)

(* ------------------------------------------------------------------ *)
(* Coverage: n-gram keys over the event-kind stream                    *)
(* ------------------------------------------------------------------ *)

let ngram = 3

(* FNV-1a over the kind strings of one window — stable across OCaml
   versions (unlike Hashtbl.hash), so corpora survive toolchain
   bumps. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* FNV-1a over [s], from [h]: a plain loop, so [h] stays unboxed. *)
let fnv64 h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

(* [Printf.sprintf "%016Lx" h] without the format interpreter. *)
let hex64 h =
  String.init 16 (fun i ->
      "0123456789abcdef".[Int64.to_int
                            (Int64.logand
                               (Int64.shift_right_logical h (60 - (4 * i)))
                               0xfL)])

(* The coverage key set of a stream: every n-gram of consecutive event
   kinds (session-tagged, so a fleet interleaving differs from the
   same kinds in one session), deduplicated and sorted — a canonical
   form that is identical across identical double runs regardless of
   discovery order. A window's key is the FNV-1a hash of its events'
   ["SESSION\000KIND\001"] strings in order, in hex; each string is
   built once per event, and a hash is formatted once per distinct
   window. *)
let coverage_keys (events : Trace.event list) : string list =
  let kinds =
    Array.of_list
      (List.map
         (fun (e : Trace.event) ->
           String.concat ""
             [ string_of_int e.Trace.session; "\000"; e.Trace.kind; "\001" ])
         events)
  in
  let n = Array.length kinds in
  let hashes = Hashtbl.create 256 in
  for i = 0 to n - ngram do
    let h = ref fnv_offset in
    for j = i to i + ngram - 1 do
      h := fnv64 !h kinds.(j)
    done;
    Hashtbl.replace hashes !h ()
  done;
  List.sort compare (Hashtbl.fold (fun h () acc -> hex64 h :: acc) hashes [])

(* ------------------------------------------------------------------ *)
(* Minimization (delta debugging over the mutation list)               *)
(* ------------------------------------------------------------------ *)

(* Truncate a reproducer's base stream to the prefix its mutations
   actually touch: the scripted plan only depends on events at or
   before the last mutation site, so everything after it is noise the
   minimal reproducer does not need. *)
let truncate_base (base : Trace.event list) (ms : mutation list) :
    Trace.event list =
  match ms with
  | [] -> base
  | _ ->
      let last =
        List.fold_left
          (fun acc m ->
            max acc (max m.m_at (if m.m_op = Splice then m.m_src + m.m_span - 1 else 0)))
          0 ms
      in
      List.filteri (fun i _ -> i <= last) base

(* [minimize ~still_bug base ms] assumes [still_bug ms] holds and
   shrinks [ms] by classic delta debugging: first try dropping whole
   halves, then single mutations, until no strict subset reproduces.
   Deterministic, so the same bug always minimizes to the same
   reproducer. *)
let minimize ~(still_bug : mutation list -> bool) (ms : mutation list) :
    mutation list =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let halves l =
    let n = List.length l in
    if n < 2 then []
    else
      [
        List.filteri (fun i _ -> i >= n / 2) l;
        List.filteri (fun i _ -> i < n / 2) l;
      ]
  in
  let rec go ms =
    let candidates =
      halves ms @ List.init (List.length ms) (fun i -> drop_nth ms i)
    in
    match
      List.find_opt
        (fun c -> c <> [] && List.length c < List.length ms && still_bug c)
        candidates
    with
    | Some smaller -> go smaller
    | None -> ms
  in
  if List.length ms <= 1 then ms else go ms

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

type round_result = {
  rr_round : int;
  rr_op : mutator;
  rr_muts : mutation list;  (** full mutation chain of this mutant *)
  rr_events : Trace.event list;  (** the mutant stream itself *)
  rr_verdict : verdict;
  rr_new_keys : int;  (** novel coverage keys this mutant contributed *)
  rr_minimized : mutation list option;  (** for bugs, the minimal chain *)
}

type report = {
  fz_rounds : round_result list;
  fz_mutants_run : int;
  fz_survived : int;
  fz_clean_aborts : int;
  fz_bugs : int;
  fz_minimized_bugs : int;
  fz_hangs : int;
  fz_mutator_fired : (mutator * int) list;
  fz_corpus_kept : int;  (** mutants added to the corpus this campaign *)
  fz_coverage : string list;  (** full coverage key set, sorted *)
}

(* Mutation chains deeper than this restart from the base trace: the
   interesting structure lives in small combinations, and bounded
   chains keep minimization cheap. *)
let max_chain = 4

(* How many sites the proposer tries per mutator class before falling
   back to the next class in rotation. *)
let proposal_attempts = 8

(* Validate first: a protocol-violating mutant is rejected without
   running; only a consistent one reaches [execute]. *)
let judge ~execute mutant muts =
  match validate mutant with
  | p :: _ -> Faults.Abort.Clean_abort ("protocol: " ^ p)
  | [] -> execute mutant muts

let run_campaign ~(base : Trace.event list) ~seed ~rounds ?(minimize_bugs = true)
    ?(seen = []) ~(execute : Trace.event list -> mutation list -> verdict) ()
    : report =
  let rng = Rng.create seed in
  let coverage = Hashtbl.create 1024 in
  List.iter (fun k -> Hashtbl.replace coverage k ()) seen;
  (* the base trace's own coverage is not novel *)
  List.iter (fun k -> Hashtbl.replace coverage k ()) (coverage_keys base);
  let pool = ref [ (base, []) ] in
  let fired = Hashtbl.create 8 in
  let rounds_acc = ref [] in
  let kept = ref 0 in
  let n_mutators = List.length all_mutators in
  for round = 0 to rounds - 1 do
    (* guaranteed operator coverage: round r leads with class r mod 6,
       scanning forward when that class has no legal site *)
    let parent_events, parent_muts =
      let candidates = !pool in
      let pe, pm = List.nth candidates (Rng.int rng (List.length candidates)) in
      if List.length pm >= max_chain then (base, []) else (pe, pm)
    in
    let proposal =
      let rec try_classes k =
        if k >= n_mutators then None
        else
          let op = List.nth all_mutators ((round + k) mod n_mutators) in
          let rec try_sites a =
            if a >= proposal_attempts then None
            else
              match propose rng op parent_events with
              | Some m -> (
                  match apply parent_events m with
                  | Some ev -> Some (op, m, ev)
                  | None -> try_sites (a + 1))
              | None -> None
          in
          match try_sites 0 with
          | Some r -> Some r
          | None -> try_classes (k + 1)
      in
      try_classes 0
    in
    match proposal with
    | None -> () (* a degenerate base with no legal site of any class *)
    | Some (op, m, mutant) ->
        let muts = parent_muts @ [ m ] in
        Hashtbl.replace fired op
          (1 + Option.value (Hashtbl.find_opt fired op) ~default:0);
        let verdict = judge ~execute mutant muts in
        let new_keys =
          List.filter
            (fun k -> not (Hashtbl.mem coverage k))
            (coverage_keys mutant)
        in
        List.iter (fun k -> Hashtbl.replace coverage k ()) new_keys;
        (* novel, non-buggy mutants join the corpus and become parents *)
        if new_keys <> [] && not (Faults.Abort.is_bug verdict) then begin
          incr kept;
          pool := !pool @ [ (mutant, muts) ]
        end;
        let minimized =
          if Faults.Abort.is_bug verdict && minimize_bugs then
            let still_bug ms =
              ms <> []
              && Faults.Abort.is_bug (judge ~execute (apply_all base ms) ms)
            in
            Some (minimize ~still_bug muts)
          else None
        in
        rounds_acc :=
          {
            rr_round = round;
            rr_op = op;
            rr_muts = muts;
            rr_events = mutant;
            rr_verdict = verdict;
            rr_new_keys = List.length new_keys;
            rr_minimized = minimized;
          }
          :: !rounds_acc
  done;
  let rounds_done = List.rev !rounds_acc in
  let count p = List.length (List.filter p rounds_done) in
  {
    fz_rounds = rounds_done;
    fz_mutants_run = List.length rounds_done;
    fz_survived = count (fun r -> r.rr_verdict = Faults.Abort.Survived);
    fz_clean_aborts =
      count (fun r ->
          match r.rr_verdict with Faults.Abort.Clean_abort _ -> true | _ -> false);
    fz_bugs = count (fun r -> Faults.Abort.is_bug r.rr_verdict);
    fz_minimized_bugs = count (fun r -> r.rr_minimized <> None);
    fz_hangs =
      count (fun r ->
          match r.rr_verdict with
          | Faults.Abort.Bug (Hang _) -> true
          | _ -> false);
    fz_mutator_fired =
      List.map
        (fun op ->
          (op, Option.value (Hashtbl.find_opt fired op) ~default:0))
        all_mutators;
    fz_corpus_kept = !kept;
    fz_coverage =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) coverage []);
  }

(* ------------------------------------------------------------------ *)
(* Reproducer / corpus-entry trace files                               *)
(* ------------------------------------------------------------------ *)

(* A corpus entry or minimized reproducer is itself a [.vmshtrace]: the
   mutant stream as events, plus metadata naming the base recipe, the
   mutation chain, the base-prefix length the chain applies to, and
   the verdict — everything [vmsh trace replay] needs to rebuild the
   mutant from the recipe alone and re-execute the attack. *)

let mutant_scenario = "fuzz-mutant"

let mutant_meta ~(base_meta : (string * string) list)
    ~(muts : mutation list) ~(prefix : int) ~(verdict : verdict) :
    (string * string) list =
  let renamed =
    List.filter_map
      (fun (k, v) ->
        match k with
        | "scenario" -> Some ("base-scenario", v)
        | "digest" -> None
        | _ -> Some (k, v))
      base_meta
  in
  [ ("scenario", mutant_scenario) ]
  @ renamed
  @ [
      ("mutations", mutations_to_string muts);
      ("base-prefix", string_of_int prefix);
      ("verdict", Faults.Abort.to_string verdict);
      ("codec", Trace.codec_version);
    ]

type mutant_file = {
  mf_base_meta : (string * string) list;
      (** the base recipe's metadata, scenario key restored *)
  mf_muts : mutation list;
  mf_prefix : int;  (** base-prefix length the chain applies to *)
  mf_verdict : string;
}

let parse_mutant_meta (meta : (string * string) list) :
    (mutant_file, string) result =
  if List.assoc_opt "scenario" meta <> Some mutant_scenario then
    Error "not a fuzz-mutant trace"
  else
    match List.assoc_opt "base-scenario" meta with
    | None -> Error "fuzz-mutant trace has no base-scenario"
    | Some base_scenario -> (
        let base_meta =
          List.filter_map
            (fun (k, v) ->
              match k with
              | "scenario" | "mutations" | "base-prefix" | "verdict" | "codec"
                ->
                  None
              | "base-scenario" -> Some ("scenario", v)
              | _ -> Some (k, v))
            meta
        in
        ignore base_scenario;
        match
          Option.bind (List.assoc_opt "mutations" meta) mutations_of_string
        with
        | None -> Error "fuzz-mutant trace has an unparseable mutation chain"
        | Some muts -> (
            match List.assoc_opt "verdict" meta with
            | None -> Error "fuzz-mutant trace has no verdict"
            | Some verdict ->
                let prefix =
                  Option.value
                    (Option.bind
                       (List.assoc_opt "base-prefix" meta)
                       int_of_string_opt)
                    ~default:max_int
                in
                Ok
                  {
                    mf_base_meta = base_meta;
                    mf_muts = muts;
                    mf_prefix = prefix;
                    mf_verdict = verdict;
                  }))
