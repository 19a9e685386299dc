(* lib/trace + lib/replay: the flight recorder's binary codec, the
   bounded ring, dump-on-failure gating, and the replay-diff oracle —
   identically-seeded runs must produce byte-identical .vmshtrace
   files, and every recorded scenario must replay clean. *)

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let tmp_trace () = Filename.temp_file "vmsh-test" ".vmshtrace"

(* --- binary codec: encode/decode roundtrip --- *)

let sample_events =
  [
    {
      Trace.kind = "kvm.exit.mmio";
      ts = 10.0;
      session = 0;
      args = [ ("addr", Trace.I 0xfe003000); ("dir", Trace.S "write") ];
    };
    { Trace.kind = "kvm.kick"; ts = 12.5; session = 1; args = [] };
    {
      Trace.kind = "inject.syscall";
      ts = 99.0;
      session = 0;
      args = [ ("nr", Trace.I 2); ("ret", Trace.I (-11)) ];
    };
  ]

let test_codec_roundtrip () =
  let meta = [ ("scenario", "attach"); ("seed", "41") ] in
  let bytes = Trace.encode ~meta ~dropped:3 sample_events in
  check cbool "magic header" true
    (String.length bytes > 8 && String.sub bytes 0 8 = "VMSHTRC1");
  match Trace.decode bytes with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok f ->
      check cint "dropped survives" 3 f.Trace.f_dropped;
      check cbool "meta survives in order" true (f.Trace.f_meta = meta);
      check cbool "events survive exactly" true
        (f.Trace.f_events = sample_events);
      (* the encoding itself must be deterministic *)
      check cstr "re-encode is byte-identical" bytes
        (Trace.encode ~meta ~dropped:3 sample_events)

let test_codec_rejects_garbage () =
  (match Trace.decode "not a trace" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage");
  match Trace.decode "VMSHTRC1\x01\x02" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a truncated file"

(* --- recorder: bounded ring semantics --- *)

let test_ring_bounds () =
  let r = Trace.Recorder.create ~capacity:4 ~now:(fun () -> 7.0) () in
  for i = 1 to 10 do
    Trace.Recorder.record r ~kind:"tick" ~args:[ ("i", Trace.I i) ] ()
  done;
  check cint "ring keeps only capacity" 4
    (List.length (Trace.Recorder.events r));
  check cint "dropped counts overwrites" 6 (Trace.Recorder.dropped r);
  check cint "total counts everything" 10 (Trace.Recorder.total r);
  (* survivors are the newest events, oldest first *)
  let firsts =
    List.map
      (fun e ->
        match e.Trace.args with [ ("i", Trace.I i) ] -> i | _ -> -1)
      (Trace.Recorder.events r)
  in
  check cbool "ring keeps the tail in order" true (firsts = [ 7; 8; 9; 10 ]);
  Trace.Recorder.set_enabled r false;
  Trace.Recorder.record r ~kind:"tick" ();
  check cint "disabled recorder drops nothing new" 10 (Trace.Recorder.total r)

(* --- the growing ring records what a fixed ring records --- *)

(* The recorder as a fixed array of [cap] slots, allocated up front:
   the ring before it started small and grew. The property below runs
   both on the same operations. *)
module Fixed_ring = struct
  type t = {
    cap : int;
    buf : Trace.event array;
    mutable phs : Trace.phase array;
    mutable start : int;
    mutable len : int;
    mutable seq : int;
    mutable boundary : int;
    mutable dropped : int;
    mutable on : bool;
    mutable detail : bool;
    mutable mark : int;
  }

  let create cap =
    let dummy = { Trace.kind = ""; ts = 0.0; session = 0; args = [] } in
    {
      cap;
      buf = Array.make cap dummy;
      phs = [||];
      start = 0;
      len = 0;
      seq = 0;
      boundary = 0;
      dropped = 0;
      on = true;
      detail = false;
      mark = 0;
    }

  let set_detail t b =
    if b then begin
      if Array.length t.phs = 0 then t.phs <- Array.make t.cap Trace.Boundary;
      t.mark <- t.seq
    end;
    t.detail <- b

  let phase_at t i = if Array.length t.phs = 0 then Trace.Boundary else t.phs.(i)

  let push t ph e =
    let i =
      if t.len < t.cap then begin
        t.len <- t.len + 1;
        (t.start + t.len - 1) mod t.cap
      end
      else begin
        if phase_at t t.start = Trace.Boundary then t.dropped <- t.dropped + 1;
        let i = t.start in
        t.start <- (t.start + 1) mod t.cap;
        i
      end
    in
    t.buf.(i) <- e;
    if Array.length t.phs > 0 then t.phs.(i) <- ph;
    t.seq <- t.seq + 1

  let record t ph e =
    if (match ph with Trace.Boundary -> t.on | _ -> t.detail) then begin
      if ph = Trace.Boundary then t.boundary <- t.boundary + 1;
      push t ph e
    end

  let slots t ~from f =
    let acc = ref [] in
    for i = t.len - 1 downto from do
      let j = (t.start + i) mod t.cap in
      match f (phase_at t j) t.buf.(j) with Some x -> acc := x :: !acc | None -> ()
    done;
    !acc

  let events t =
    slots t ~from:0 (fun ph e -> if ph = Trace.Boundary then Some e else None)

  let stream t =
    slots t ~from:(max 0 (t.mark - (t.seq - t.len))) (fun ph e -> Some (ph, e))

  let stream_dropped t = max 0 (t.seq - t.len - t.mark)
end

type ring_op =
  | Rec of Trace.phase
  | Detail of bool
  | Enabled of bool
  | Compare

let ring_op_str = function
  | Rec Trace.Boundary -> "b"
  | Rec Trace.Begin -> "B"
  | Rec Trace.End -> "E"
  | Rec Trace.Instant -> "i"
  | Detail b -> if b then "D+" else "D-"
  | Enabled b -> if b then "on" else "off"
  | Compare -> "?"

(* Capacities 1-64 wrap many times; 257-700 also grow the ring from
   its first 256 slots (one or two doublings) before they wrap. *)
let ring_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (12, return (Rec Trace.Boundary));
        (6, oneofl [ Rec Trace.Begin; Rec Trace.End; Rec Trace.Instant ]);
        (1, map (fun b -> Detail b) bool);
        (1, map (fun b -> Enabled b) bool);
        (1, return Compare);
      ]
  in
  oneof
    [
      pair (int_range 1 64) (list_size (int_range 0 300) op);
      pair (int_range 257 700) (list_size (int_range 200 2000) op);
    ]

let prop_ring_matches_fixed_ring =
  QCheck.Test.make ~count:300 ~name:"growing ring records what a fixed ring records"
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat " " (List.map ring_op_str ops)))
       ring_case)
    (fun (cap, ops) ->
      let clock = ref 0 in
      let r =
        Trace.Recorder.create ~capacity:cap ~now:(fun () -> float !clock) ()
      in
      let f = Fixed_ring.create cap in
      let same () =
        Trace.Recorder.events r = Fixed_ring.events f
        && Trace.Recorder.stream r = Fixed_ring.stream f
        && Trace.Recorder.dropped r = f.Fixed_ring.dropped
        && Trace.Recorder.stream_dropped r = Fixed_ring.stream_dropped f
        && Trace.Recorder.total r = f.Fixed_ring.boundary
      in
      List.for_all
        (fun op ->
          incr clock;
          match op with
          | Rec phase ->
              let kind = Printf.sprintf "k%d" !clock in
              let args = [ ("n", Trace.I !clock) ] in
              Trace.Recorder.record r ~phase ~kind ~args ();
              Fixed_ring.record f phase
                { Trace.kind; ts = float !clock; session = 0; args };
              true
          | Detail b ->
              Trace.Recorder.set_detail r b;
              Fixed_ring.set_detail f b;
              true
          | Enabled b ->
              Trace.Recorder.set_enabled r b;
              f.Fixed_ring.on <- b;
              true
          | Compare -> same ())
        ops
      && same ())

(* A host no longer allocates the 65,536-slot ring up front: creating
   one took 65,727 words (the ring, straight into the major heap), and
   the ring's first 256 slots now fit in the minor heap. Creating one
   allocates 447 words; the bound is that plus 25%. *)
let test_host_create_allocation_bound () =
  ignore (Hostos.Host.create ());
  let _, words = Alloc.words (fun () -> Hostos.Host.create ~seed:5 ()) in
  if words > 1.25 *. 447. then
    Alcotest.failf "Host.create allocated %.0f words" words

(* --- detail records share the ring but stay out of the recording --- *)

let test_detail_records () =
  let r = Trace.Recorder.create ~capacity:4 ~now:(fun () -> 3.0) () in
  Trace.Recorder.record r ~phase:Trace.Instant ~kind:"off" ();
  check cint "detail records are off by default" 0
    (List.length (Trace.Recorder.stream r));
  Trace.Recorder.record r ~kind:"b1" ();
  Trace.Recorder.set_detail r true;
  Trace.Recorder.record r ~phase:Trace.Begin ~kind:"span" ();
  Trace.Recorder.record r ~kind:"b2" ();
  Trace.Recorder.record r ~phase:Trace.End ~kind:"span" ();
  check
    (Alcotest.list cstr)
    "the stream starts where detail records were switched on"
    [ "span"; "b2"; "span" ]
    (List.map (fun (_, e) -> e.Trace.kind) (Trace.Recorder.stream r));
  check (Alcotest.list cstr) "events are the boundary records only"
    [ "b1"; "b2" ]
    (List.map (fun e -> e.Trace.kind) (Trace.Recorder.events r));
  check cint "total counts boundary records" 2 (Trace.Recorder.total r);
  (* the ring is full: evicting b1 drops a boundary record, evicting
     the Begin record does not *)
  Trace.Recorder.record r ~phase:Trace.Instant ~kind:"i1" ();
  Trace.Recorder.record r ~phase:Trace.Instant ~kind:"i2" ();
  check cint "dropped counts evicted boundary records" 1
    (Trace.Recorder.dropped r);
  check cint "the stream window lost one record" 1
    (Trace.Recorder.stream_dropped r);
  match Trace.decode (Trace.encode ~meta:[] (Trace.Recorder.events r)) with
  | Ok f ->
      check (Alcotest.list cstr) "only boundary records are encoded" [ "b2" ]
        (List.map (fun e -> e.Trace.kind) f.Trace.f_events)
  | Error e -> Alcotest.failf "decode: %s" e

(* --- diff: identical streams are [], divergence is reported --- *)

let test_diff () =
  check cint "identical streams diff empty" 0
    (List.length (Trace.diff sample_events sample_events));
  let mutated =
    match sample_events with
    | e :: rest -> { e with Trace.ts = 11.0 } :: rest
    | [] -> []
  in
  check cbool "timestamp divergence reported" true
    (Trace.diff sample_events mutated <> []);
  check cbool "length divergence reported" true
    (Trace.diff sample_events (List.tl sample_events) <> [])

(* --- dump-on-failure: gated on VMSH_TRACE_DIR --- *)

let test_dump_on_failure () =
  let r = Trace.Recorder.create ~now:(fun () -> 1.0) () in
  Trace.Recorder.set_meta r "seed" "9";
  Trace.Recorder.record r ~kind:"kvm.kick" ();
  Unix.putenv "VMSH_TRACE_DIR" "";
  check cbool "unset dir means no artifact" true
    (Trace.dump_on_failure r ~name:"nope" () = None);
  let dir = Filename.temp_file "vmsh-dump" "" in
  Sys.remove dir;
  Unix.putenv "VMSH_TRACE_DIR" dir;
  let path =
    match
      Trace.dump_on_failure r ~name:"boom"
        ~extra_meta:[ ("error", "expected") ] ()
    with
    | Some p -> p
    | None -> Alcotest.fail "no artifact written"
  in
  Unix.putenv "VMSH_TRACE_DIR" "";
  check cstr "artifact lands under the dir" dir (Filename.dirname path);
  match Trace.load path with
  | Error e -> Alcotest.failf "artifact unreadable: %s" e
  | Ok f ->
      check cstr "recorder meta kept" "9" (List.assoc "seed" f.Trace.f_meta);
      check cstr "extra meta appended" "expected"
        (List.assoc "error" f.Trace.f_meta);
      check cint "events kept" 1 (List.length f.Trace.f_events)

(* --- replay-diff oracle: determinism across identical seeds --- *)

let record_ok spec path =
  match Replay.record spec ~path with
  | Ok run -> run
  | Error e -> Alcotest.failf "record failed: %s" e

let replay_clean path =
  match Result.bind (Trace.load path) (fun f -> Replay.replay f) with
  | Ok [] -> ()
  | Ok lines ->
      Alcotest.failf "replay diverged:\n%s" (String.concat "\n" lines)
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_attach_determinism () =
  let a = tmp_trace () and b = tmp_trace () in
  let run_a = record_ok (Replay.Attach { seed = 41 }) a in
  let run_b = record_ok (Replay.Attach { seed = 41 }) b in
  check cbool "identical seeds, identical event streams" true
    (Trace.diff run_a.Replay.run_events run_b.Replay.run_events = []);
  check cstr "identical seeds, identical guest digest"
    run_a.Replay.run_digest run_b.Replay.run_digest;
  check cstr "identical seeds, byte-identical .vmshtrace" (read_file a)
    (read_file b);
  replay_clean a;
  check cbool "recording is non-trivial" true
    (List.length run_a.Replay.run_events > 50);
  Sys.remove a;
  Sys.remove b

let test_fleet_determinism () =
  let path = tmp_trace () in
  let run = record_ok (Replay.Fleet_run { seed = 7; vms = 8; from_baseline = false }) path in
  (* a clean replay proves the second, independent run matched the
     first event-for-event and digest-for-digest *)
  replay_clean path;
  check cbool "all 8 sessions recorded" true
    (List.exists (fun e -> e.Trace.session = 7) run.Replay.run_events);
  Sys.remove path

let test_sweep_cell_determinism () =
  let path = tmp_trace () in
  let run =
    record_ok
      (Replay.Sweep_cell
         {
           seed = 5;
           cls = "inject-eintr";
           k = 3;
           hostile = "";
           from_baseline = false;
         })
      path
  in
  replay_clean path;
  check cbool "crash cell recorded events" true
    (run.Replay.run_events <> []);
  (* the recipe must round-trip through the file's metadata *)
  (match Trace.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok f -> (
      match Replay.spec_of_meta f.Trace.f_meta with
      | Ok
          (Replay.Sweep_cell
             {
               seed = 5;
               cls = "inject-eintr";
               k = 3;
               hostile = "";
               from_baseline = false;
             }) ->
          Sys.remove path
      | Ok _ -> Alcotest.fail "recipe did not round-trip"
      | Error e -> Alcotest.failf "recipe unreadable: %s" e));
  (* a chaos-matrix cell round-trips its adversary too *)
  let path = tmp_trace () in
  let run =
    record_ok
      (Replay.Sweep_cell
         {
           seed = 11;
           cls = "fault-free";
           k = -1;
           hostile = "toctou-scan";
           from_baseline = false;
         })
      path
  in
  replay_clean path;
  check cbool "hostile cell recorded events" true (run.Replay.run_events <> []);
  match Trace.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok f -> (
      check cbool "hostile key in metadata" true
        (List.assoc_opt "hostile" f.Trace.f_meta = Some "toctou-scan");
      match Replay.spec_of_meta f.Trace.f_meta with
      | Ok (Replay.Sweep_cell { hostile = "toctou-scan"; _ }) ->
          Sys.remove path
      | Ok _ -> Alcotest.fail "hostile recipe did not round-trip"
      | Error e -> Alcotest.failf "hostile recipe unreadable: %s" e)

(* Every job of a serve run replays clean from its own recording: the
   recipe carries the job's dispatch instant exactly, its worker slot
   and whether its symbol analysis hit the service's shared cache. *)
(* Tracing writes detail records into the same ring, yet the saved
   recording (here via dump-on-failure) is byte-identical to an
   untraced run's and replays clean. *)
let test_tracing_leaves_recording_unchanged () =
  let dir = Filename.temp_file "vmsh-dump" "" in
  Sys.remove dir;
  let record ~traced =
    let host = Hostos.Host.create ~seed:43 () in
    List.iter
      (fun (k, v) -> Trace.Recorder.set_meta host.Hostos.Host.recorder k v)
      (Fleet.Sweep.cell_meta ~seed:43 ~cls:Fleet.Sweep.fault_free ~k:(-1)
         ~fork:false ~hostile:"");
    if traced then Observe.enable host.Hostos.Host.observe;
    let plan = Faults.create ~seed:(43 * 31) ~rate:0.0 () in
    Faults.set_abort_at_yield plan (Some max_int);
    let r =
      Fleet.Session.run ~host
        (Fleet.Session.spec ~plan (Fleet.Session.cold "sweep-vm"))
    in
    check cbool "session completed" true
      (r.Fleet.Session.outcome = Fleet.Session.Completed);
    Unix.putenv "VMSH_TRACE_DIR" dir;
    let path =
      Trace.dump_on_failure host.Hostos.Host.recorder
        ~name:(if traced then "traced" else "untraced")
        ()
    in
    Unix.putenv "VMSH_TRACE_DIR" "";
    match path with
    | Some p -> (host, p)
    | None -> Alcotest.fail "no dump written"
  in
  let _, off = record ~traced:false in
  let on_host, on = record ~traced:true in
  check cbool "the traced run wrote detail records" true
    (List.exists
       (fun (phase, _) -> phase = Trace.Begin)
       (Trace.Recorder.stream on_host.Hostos.Host.recorder));
  check cstr "tracing leaves the .vmshtrace bytes unchanged" (read_file off)
    (read_file on);
  replay_clean on;
  Sys.remove off;
  Sys.remove on;
  Sys.rmdir dir

let test_serve_jobs_replay_clean () =
  let hosts = ref [] in
  let cfg =
    {
      Service.Dispatch.default_config with
      jobs = 16;
      workers = 4;
      seed = 3;
      ram_mb = 16;
    }
  in
  let r =
    Service.Dispatch.run
      ~on_finish:(fun _ host -> hosts := host :: !hosts)
      cfg
  in
  let ran =
    Array.fold_left
      (fun n jr -> if jr.Service.Dispatch.jr_worker >= 0 then n + 1 else n)
      0 r.Service.Dispatch.rp_records
  in
  check cint "every dispatched job recorded" ran (List.length !hosts);
  check cbool "jobs ran" true (ran > 0);
  check cbool "some job hit the warm cache" true
    (List.exists
       (fun h ->
         List.assoc_opt "symcache" (Trace.Recorder.meta h.Hostos.Host.recorder)
         = Some "warm")
       !hosts);
  List.iter
    (fun h ->
      let path = tmp_trace () in
      Trace.save h.Hostos.Host.recorder path;
      replay_clean path;
      Sys.remove path)
    !hosts

(* A sweep cell forked from a baked baseline records boot=fork, and its
   recording replays as a fork (a cold re-run diverges). *)
let test_forked_sweep_cell_replays_forked () =
  let pt =
    Fleet.Sweep.run_point ~baseline:(Fleet.Baseline.bake ()) ~seed:5 ~cls:None
      ~k:(Some 4) ()
  in
  let digest = Lazy.force pt.Fleet.Sweep.pt_report.Fleet.Session.digest in
  let meta =
    Fleet.Sweep.cell_meta ~seed:5 ~cls:Fleet.Sweep.fault_free ~k:4 ~fork:true
      ~hostile:""
  in
  let path = tmp_trace () in
  let oc = open_out_bin path in
  output_string oc
    (Trace.encode
       ~meta:(meta @ [ ("digest", digest) ])
       pt.Fleet.Sweep.pt_events);
  close_out oc;
  (match Replay.spec_of_meta meta with
  | Ok (Replay.Sweep_cell { from_baseline = true; k = 4; _ }) -> ()
  | Ok _ -> Alcotest.fail "forked cell recipe lost its boot source"
  | Error e -> Alcotest.failf "recipe unreadable: %s" e);
  replay_clean path;
  Sys.remove path;
  match
    Replay.execute
      (Replay.Sweep_cell
         {
           seed = 5;
           cls = Fleet.Sweep.fault_free;
           k = 4;
           hostile = "";
           from_baseline = false;
         })
  with
  | Error e -> Alcotest.failf "cold re-run failed: %s" e
  | Ok cold ->
      check cbool "a cold re-run is a different machine" true
        (cold.Replay.run_digest <> digest)

(* Recording is free in virtual time: on four rigs, an attach with the
   flight recorder on ends at exactly the virtual ns of one with it
   off. *)
let test_recording_costs_no_virtual_time () =
  List.iter
    (fun seed ->
      let ends_at recording =
        let ((h, _, _) as env) =
          Test_attach.rig seed ~host:(fun h ->
              Trace.Recorder.set_enabled h.Hostos.Host.recorder recording)
        in
        ignore (Test_attach.timed_attach env);
        Hostos.Clock.now_ns h.Hostos.Host.clock
      in
      check (Alcotest.float 0.)
        (Printf.sprintf "seed %d: recorder on = off" seed)
        (ends_at false) (ends_at true))
    [ 1800; 1801; 1802; 1803 ]

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "codec rejects garbage" `Quick
          test_codec_rejects_garbage;
        Alcotest.test_case "recorder ring bounds memory" `Quick
          test_ring_bounds;
        Alcotest.test_case "diff reports divergence" `Quick test_diff;
        Alcotest.test_case "dump-on-failure is env-gated" `Quick
          test_dump_on_failure;
        Alcotest.test_case "attach replay is deterministic" `Quick
          test_attach_determinism;
        Alcotest.test_case "fleet --vms 8 replays clean" `Slow
          test_fleet_determinism;
        Alcotest.test_case "sweep crash cell replays clean" `Quick
          test_sweep_cell_determinism;
        Alcotest.test_case "every serve job replays clean" `Quick
          test_serve_jobs_replay_clean;
        Alcotest.test_case "forked sweep cell replays forked" `Quick
          test_forked_sweep_cell_replays_forked;
        Alcotest.test_case "detail records stay out of the recording" `Quick
          test_detail_records;
        Alcotest.test_case "tracing leaves the flight recording unchanged"
          `Quick test_tracing_leaves_recording_unchanged;
        Alcotest.test_case "recording costs no virtual time" `Quick
          test_recording_costs_no_virtual_time;
        QCheck_alcotest.to_alcotest prop_ring_matches_fixed_ring;
        Alcotest.test_case "host creation allocation bound" `Quick
          test_host_create_allocation_bound;
      ] );
  ]
