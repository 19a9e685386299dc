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
  match Replay.replay ~path () with
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
  let pt, _ =
    Fleet.Sweep.run_point ~baseline:(Fleet.Baseline.bake ()) ~seed:5 ~cls:None
      ~k:(Some 4) ()
  in
  let meta =
    Fleet.Sweep.cell_meta ~seed:5 ~cls:Fleet.Sweep.fault_free ~k:4 ~fork:true
      ~hostile:""
  in
  let path = tmp_trace () in
  let oc = open_out_bin path in
  output_string oc
    (Trace.encode
       ~meta:(meta @ [ ("digest", pt.Fleet.Sweep.pt_digest) ])
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
        (cold.Replay.run_digest <> pt.Fleet.Sweep.pt_digest)

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
      ] );
  ]
