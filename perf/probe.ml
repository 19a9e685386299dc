(* Measurement from outside the program: every call the benchmark makes
   into a layer is timed on the host clock, and in a traced unit it is
   also kept as a span carrying wall and virtual timestamps, its parent
   span and its session (the unit index). Spans stay in memory and are
   written out when the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  session : int;
  name : string;
  wall0 : float;  (** seconds since the run started *)
  wall1 : float;
  virt0 : float;  (** virtual ns; nan when the call has no clock *)
  virt1 : float;
}

type t = {
  start : float;
  mutable tracing : bool;  (** record spans for the current unit *)
  mutable session : int;
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
  walls : (string, float list ref) Hashtbl.t;
      (** host seconds of every call, by layer name *)
}

let create () =
  {
    start = Unix.gettimeofday ();
    tracing = false;
    session = 0;
    spans = [];
    stack = [];
    next_id = 1;
    walls = Hashtbl.create 16;
  }

let reset t =
  t.spans <- [];
  t.stack <- [];
  Hashtbl.reset t.walls

let push tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace tbl k (ref [ v ])

let call t ?clock name f =
  let virt () =
    match clock with Some c -> Hostos.Clock.now_ns c | None -> Float.nan
  in
  let traced = t.tracing in
  let id = t.next_id in
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  if traced then begin
    t.next_id <- id + 1;
    t.stack <- id :: t.stack
  end;
  let w0 = Unix.gettimeofday () and v0 = virt () in
  let finish () =
    let w1 = Unix.gettimeofday () in
    push t.walls name (w1 -. w0);
    if traced then begin
      t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
      t.spans <-
        {
          id;
          parent;
          session = t.session;
          name;
          wall0 = w0 -. t.start;
          wall1 = w1 -. t.start;
          virt0 = v0;
          virt1 = virt ();
        }
        :: t.spans
    end
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let walls t name =
  match Hashtbl.find_opt t.walls name with
  | Some l -> Array.of_list !l
  | None -> [||]

(* Mean host milliseconds per call of [name]; absent when never called. *)
let wall_ms t name =
  let w = walls t name in
  if Array.length w = 0 then None else Some (Stats.mean w *. 1e3)

(* Named sample lists: the workloads' modelled measurements. *)
module Acc = struct
  type t = (string, float list ref) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let reset (t : t) = Hashtbl.reset t
  let add (t : t) k v = push t k v
  let get (t : t) k = match Hashtbl.find_opt t k with Some l -> Array.of_list (List.rev !l) | None -> [||]
  let total t k = Stats.sum (get t k)
  let count t k = Array.length (get t k)
end

(* --- trace export ------------------------------------------------- *)

let finite_or x d = if Float.is_finite x then x else d

let span_json s =
  let open Json in
  let virt =
    if Float.is_finite s.virt0 && Float.is_finite s.virt1 then
      [ ("virt_start_ns", Num s.virt0); ("virt_dur_ns", Num (s.virt1 -. s.virt0)) ]
    else []
  in
  Obj
    [
      ("name", Str s.name); ("ph", Str "X"); ("pid", Num 1.);
      ("tid", Num (float_of_int s.session));
      ("ts", Num (Float.round (s.wall0 *. 1e9) /. 1e3));
      ("dur", Num (Float.round ((s.wall1 -. s.wall0) *. 1e9) /. 1e3));
      ( "args",
        Obj
          ([
             ("id", Num (float_of_int s.id));
             ("parent", Num (float_of_int s.parent));
             ("session", Num (float_of_int s.session));
           ]
          @ virt) );
    ]

(* The program's own spans of one traced host ([host]: its
   [Observe.Export.chrome_trace]) join the benchmark's as process 2. *)
let chrome_trace t ~host =
  let spans = List.rev_map span_json t.spans in
  let as_process_2 = function
    | Json.Obj kvs ->
        Json.Obj (List.map (fun (k, v) -> if k = "pid" then (k, Json.Num 2.) else (k, v)) kvs)
    | e -> e
  in
  let host =
    match Option.map (fun s -> Json.member "traceEvents" (Json.parse s)) host with
    | Some (Some (Json.Arr events)) -> List.map as_process_2 events
    | _ -> []
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (spans @ host));
    ]

(* Per span name: calls, total wall, self wall (duration minus the part
   its child spans cover) and total virtual time. *)
let self_times t =
  let child_wall = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_wall s.parent) in
        Hashtbl.replace child_wall s.parent (prev +. (s.wall1 -. s.wall0)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.wall1 -. s.wall0 in
      let self = dur -. Option.value ~default:0. (Hashtbl.find_opt child_wall s.id) in
      let virt = finite_or (s.virt1 -. s.virt0) 0. in
      let n, w, sw, v =
        Option.value ~default:(0, 0., 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, w +. dur, sw +. self, v +. virt))
    t.spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare
  |> List.map (fun (name, (n, w, sw, v)) ->
         ( name,
           Json.Obj
             [
               ("calls", Json.Num (float_of_int n));
               ("wall_ms", Json.Num (w *. 1e3));
               ("self_wall_ms", Json.Num (sw *. 1e3));
               ("virt_ms", Json.Num (v /. 1e6));
             ] ))

(* --- process-level readings --------------------------------------- *)

(* One pass of a fixed host computation, in ms. It mixes what the
   simulator spends its time on (small allocations that survive a minor
   collection, hash-table updates, byte copies, digests), so a shared
   host that slows between runs slows it in step; the benchmark rescales
   host times by it (see [Catalogue.nominal_calibration_ms]). It is the
   benchmark's own code: no change to the program can speed it up. *)
let calibrate () =
  let t0 = Unix.gettimeofday () in
  let table = Hashtbl.create 64 and buf = Bytes.create 65536 and kept = ref [] in
  for k = 0 to 2999 do
    Hashtbl.replace table (k land 1023) (Bytes.create 48);
    kept := (k, float_of_int k) :: !kept;
    if k mod 100 = 0 then begin
      Bytes.blit buf 0 buf 1 60000;
      ignore (Digest.bytes (Bytes.sub buf 0 4096))
    end
  done;
  ignore (Sys.opaque_identity !kept);
  (Unix.gettimeofday () -. t0) *. 1e3

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      go ())

let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)
