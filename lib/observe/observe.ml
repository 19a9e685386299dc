(* Virtual-time tracing spans, metric histograms, and exporters.

   The tracer is deliberately decoupled from the simulation: it writes
   into the host's flight recorder (which reads the virtual clock) and
   reads the global event counters through a closure, so the host OS
   layer can depend on this library without a cycle. Recording never
   advances virtual time, which keeps traces byte-stable across
   identical runs and keeps the simulation's results independent of
   whether tracing is on. *)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                     *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  (* Log-bucketed histogram: bucket [i] covers values in
     [growth^i, growth^(i+1)). growth = 2^(1/8) bounds the relative
     quantile error at ~4.5% (half a bucket) while 512 buckets span the
     full range of plausible virtual-ns values (up to 2^64). *)
  let nbuckets = 512
  let log_growth = 0.125 *. Float.log 2.0

  type counter = { c_name : string; mutable c_count : int }
  type gauge = { g_name : string; mutable g_value : float }

  type histogram = {
    h_name : string;
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    mutable h_buckets : int array;  (** [[||]] until the first observation *)
  }

  (* The lists keep registration order for exports; the tables find a
     metric by name. *)
  type t = {
    mutable cs : counter list;
    mutable gs : gauge list;
    mutable hs : histogram list;
    c_tbl : (string, counter) Hashtbl.t;
    g_tbl : (string, gauge) Hashtbl.t;
    h_tbl : (string, histogram) Hashtbl.t;
  }

  let create () =
    {
      cs = [];
      gs = [];
      hs = [];
      c_tbl = Hashtbl.create 16;
      g_tbl = Hashtbl.create 16;
      h_tbl = Hashtbl.create 16;
    }

  (* Find-or-create, preserving registration order for exports. *)
  let counter t name =
    match Hashtbl.find_opt t.c_tbl name with
    | Some c -> c
    | None ->
        let c = { c_name = name; c_count = 0 } in
        Hashtbl.add t.c_tbl name c;
        t.cs <- t.cs @ [ c ];
        c

  let incr ?(by = 1) c = c.c_count <- c.c_count + by
  let set_counter c v = c.c_count <- v
  let counter_value c = c.c_count
  let counter_name c = c.c_name
  let histogram_name h = h.h_name

  let gauge t name =
    match Hashtbl.find_opt t.g_tbl name with
    | Some g -> g
    | None ->
        let g = { g_name = name; g_value = 0.0 } in
        Hashtbl.add t.g_tbl name g;
        t.gs <- t.gs @ [ g ];
        g

  let set_gauge g v = g.g_value <- v
  let gauge_value g = g.g_value

  let histogram t name =
    match Hashtbl.find_opt t.h_tbl name with
    | Some h -> h
    | None ->
        let h =
          {
            h_name = name;
            h_count = 0;
            h_sum = 0.0;
            h_min = infinity;
            h_max = neg_infinity;
            h_buckets = [||];
          }
        in
        Hashtbl.add t.h_tbl name h;
        t.hs <- t.hs @ [ h ];
        h

  let buckets h =
    if Array.length h.h_buckets = 0 then h.h_buckets <- Array.make nbuckets 0;
    h.h_buckets

  let bucket_of v =
    if v <= 1.0 then 0
    else min (nbuckets - 1) (int_of_float (Float.log v /. log_growth))

  (* NaN observations are dropped: recording one would poison min/max
     (NaN comparisons are always false, leaving h_min = infinity with a
     nonzero count) and make every later export non-JSON. A failed
     fleet session's attach time is NaN, so this path is reachable. *)
  let observe h v =
    if not (Float.is_nan v) then begin
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let b = buckets h and i = bucket_of v in
      b.(i) <- b.(i) + 1
    end

  let count h = h.h_count

  let finite_or v fallback = if Float.is_finite v then v else fallback
  let mean h =
    if h.h_count = 0 then 0.0
    else finite_or (h.h_sum /. float_of_int h.h_count) 0.0
  let min_value h = if h.h_count = 0 then 0.0 else finite_or h.h_min 0.0
  let max_value h = if h.h_count = 0 then 0.0 else finite_or h.h_max 0.0

  (* Quantile estimate: geometric midpoint of the bucket containing the
     target rank, clamped to the observed [min, max]. *)
  let percentile h p =
    if h.h_count = 0 then 0.0
    else begin
      let target =
        max 1
          (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.h_count)))
      in
      let rec go i cum =
        if i >= nbuckets then h.h_max
        else
          let cum = cum + h.h_buckets.(i) in
          if cum >= target then
            Float.exp ((float_of_int i +. 0.5) *. log_growth)
          else go (i + 1) cum
      in
      finite_or (Float.min h.h_max (Float.max h.h_min (go 0 0))) 0.0
    end

  let counters t = t.cs
  let gauges t = t.gs
  let histograms t = t.hs

  (* Fold [src] into [into]: counters and histogram buckets add,
     gauges take src's value. Used to aggregate per-session fleet
     registries into one fleet-wide view. *)
  let merge_into ~into src =
    List.iter
      (fun c -> incr ~by:c.c_count (counter into c.c_name))
      src.cs;
    List.iter (fun g -> set_gauge (gauge into g.g_name) g.g_value) src.gs;
    List.iter
      (fun h ->
        let d = histogram into h.h_name in
        d.h_count <- d.h_count + h.h_count;
        d.h_sum <- d.h_sum +. h.h_sum;
        if h.h_count > 0 then begin
          if h.h_min < d.h_min then d.h_min <- h.h_min;
          if h.h_max > d.h_max then d.h_max <- h.h_max
        end;
        if Array.length h.h_buckets > 0 then begin
          let b = buckets d in
          Array.iteri (fun i n -> b.(i) <- b.(i) + n) h.h_buckets
        end)
      src.hs
end

(* ------------------------------------------------------------------ *)
(* The tracer                                                           *)
(* ------------------------------------------------------------------ *)

type level = Quiet | Info | Debug

type t = {
  recorder : Trace.Recorder.t;
  read_counters : unit -> (string * int) list;
  mutable log_level : level;
  mx : Metrics.t;
}

let create ~recorder ?(counters = fun () -> []) () =
  { recorder; read_counters = counters; log_level = Quiet;
    mx = Metrics.create () }

let now t = Trace.Recorder.now t.recorder
let recorder t = t.recorder
let metrics t = t.mx
let enabled t = Trace.Recorder.detail t.recorder
let enable t = Trace.Recorder.set_detail t.recorder true
let disable t = Trace.Recorder.set_detail t.recorder false

(* ------------------------------------------------------------------ *)
(* Leveled stderr logging                                               *)
(* ------------------------------------------------------------------ *)

(* Structured, virtual-time-stamped log lines on stderr. The default
   level is Quiet, so runs that never opt in stay byte-identical to a
   build without logging at all. *)

let set_log_level t l = t.log_level <- l
let log_level t = t.log_level

let level_of_string = function
  | "quiet" -> Some Quiet
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let level_to_string = function
  | Quiet -> "quiet"
  | Info -> "info"
  | Debug -> "debug"

let log_enabled t l =
  match (t.log_level, l) with
  | Quiet, _ -> false
  | Info, Info -> true
  | Info, Debug -> false
  | Debug, (Info | Debug) -> true
  | _, Quiet -> false

let log t l fmt =
  if log_enabled t l then
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "[vt %12.0f] %-5s %s\n%!" (now t)
          (level_to_string l) msg)
      fmt
  else Printf.ksprintf (fun _ -> ()) fmt

(* Begin/End detail records in the host's recorder; the End record's
   args are the end-minus-begin counter deltas. *)
let span t ~name ?(attrs = []) f =
  let r = t.recorder in
  if not (Trace.Recorder.detail r) then f ()
  else begin
    let before = t.read_counters () in
    Trace.Recorder.record r ~phase:Trace.Begin ~kind:name ~args:attrs ();
    let finish () =
      let deltas =
        List.map2 (fun (k, v0) (_, v1) -> (k, Trace.I (v1 - v0))) before
          (t.read_counters ())
      in
      Trace.Recorder.record r ~phase:Trace.End ~kind:name ~args:deltas ()
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)
(* ------------------------------------------------------------------ *)

module Export = struct
  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 32 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Fixed-precision float formatting keeps exports byte-stable.
     Non-finite values are clamped to valid JSON numbers so an exporter
     can never emit "inf"/"nan" and fail a run. *)
  let num f =
    if Float.is_nan f then "0"
    else if f = infinity then "1e308"
    else if f = neg_infinity then "-1e308"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.3f" f

  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ v) fields) ^ "}"

  let attrs_json attrs =
    obj
      (List.map
         (fun (k, v) ->
           ( k,
             match v with
             | Trace.S s -> "\"" ^ escape s ^ "\""
             | Trace.I i -> string_of_int i ))
         attrs)

  (* Chrome trace_event JSON array format; timestamps are virtual
     nanoseconds expressed in the format's microsecond unit, so Perfetto
     and chrome://tracing render spans on the virtual timeline. Boundary
     and detail instants both render as "i" events. *)
  let chrome_trace t =
    let us ns = num (ns /. 1000.0) in
    let common = "\"cat\":\"vmsh\",\"pid\":1,\"tid\":1" in
    let event_json (phase, { Trace.kind; ts; args; _ }) =
      let ph =
        match phase with
        | Trace.Begin -> "\"B\""
        | Trace.End -> "\"E\""
        | Trace.Boundary | Trace.Instant -> "\"i\",\"s\":\"t\""
      in
      Printf.sprintf "{\"name\":\"%s\",\"ph\":%s,%s,\"ts\":%s,\"args\":%s}"
        (escape kind) ph common (us ts) (attrs_json args)
    in
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (event_json e))
      (Trace.Recorder.stream t.recorder);
    Buffer.add_string b
      (Printf.sprintf
         "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"virtual-ns\",\"dropped\":%d}}"
         (Trace.Recorder.stream_dropped t.recorder));
    Buffer.contents b

  let histogram_stats_json h =
    obj
      [
        ("count", string_of_int (Metrics.count h));
        ("mean", num (Metrics.mean h));
        ("min", num (Metrics.min_value h));
        ("max", num (Metrics.max_value h));
        ("p50", num (Metrics.percentile h 50.0));
        ("p90", num (Metrics.percentile h 90.0));
        ("p95", num (Metrics.percentile h 95.0));
        ("p99", num (Metrics.percentile h 99.0));
        ("p999", num (Metrics.percentile h 99.9));
      ]

  let metrics_json m =
    obj
      [
        ( "counters",
          obj
            (List.map
               (fun c -> (c.Metrics.c_name, string_of_int c.Metrics.c_count))
               (Metrics.counters m)) );
        ( "gauges",
          obj
            (List.map
               (fun g -> (g.Metrics.g_name, num g.Metrics.g_value))
               (Metrics.gauges m)) );
        ( "histograms",
          obj
            (List.map
               (fun h -> (h.Metrics.h_name, histogram_stats_json h))
               (Metrics.histograms m)) );
      ]
end
