(* lib/observe: span nesting and delta attribution, histogram quantile
   accuracy, Chrome-trace determinism across identical attaches,
   one trace event per flight-recorder boundary event, and tracing-off
   neutrality (tracing must not perturb the simulation). *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module KV = Linux_guest.Kernel_version
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

(* --- spans: record order and counter-delta attribution --- *)

let test_span_nesting () =
  let now = ref 0.0 in
  let ticks = ref 0 in
  let r = Trace.Recorder.create ~now:(fun () -> !now) () in
  let t =
    Observe.create ~recorder:r ~counters:(fun () -> [ ("ticks", !ticks) ]) ()
  in
  Observe.enable t;
  let v =
    Observe.span t ~name:"outer" (fun () ->
        now := 10.0;
        ticks := 3;
        let inner =
          Observe.span t ~name:"inner" (fun () ->
              now := 25.0;
              ticks := 8;
              "in")
        in
        now := 40.0;
        ticks := 9;
        inner ^ "+out")
  in
  check cstr "span returns f's value" "in+out" v;
  check cint "spans are not flight-recording events" 0
    (List.length (Trace.Recorder.events r));
  match Trace.Recorder.stream r with
  | [
   (Trace.Begin, { Trace.kind = "outer"; ts = 0.0; _ });
   (Trace.Begin, { Trace.kind = "inner"; ts = 10.0; _ });
   (Trace.End, ({ Trace.kind = "inner"; ts = 25.0; _ } as e_in));
   (Trace.End, ({ Trace.kind = "outer"; ts = 40.0; _ } as e_out));
  ] ->
      check (Alcotest.option cint) "inner delta covers only its own ticks"
        (Some 5) (Trace.int_arg e_in "ticks");
      check (Alcotest.option cint) "outer delta is inclusive of children"
        (Some 9) (Trace.int_arg e_out "ticks")
  | evs -> Alcotest.failf "unexpected record sequence (%d records)"
             (List.length evs)

let test_span_exception_safe () =
  let now = ref 0.0 in
  let r = Trace.Recorder.create ~now:(fun () -> !now) () in
  let t = Observe.create ~recorder:r () in
  Observe.enable t;
  (try
     Observe.span t ~name:"boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  match Trace.Recorder.stream r with
  | [ (Trace.Begin, { Trace.kind = "boom"; _ });
      (Trace.End, { Trace.kind = "boom"; _ }) ] ->
      ()
  | _ -> Alcotest.fail "End record not written on exception"

(* --- histograms: percentile estimates within bucket error --- *)

let test_histogram_percentiles () =
  let mx = Observe.Metrics.create () in
  let h = Observe.Metrics.histogram mx "lat" in
  for v = 1 to 10_000 do
    Observe.Metrics.observe h (Float.of_int v)
  done;
  check cint "count" 10_000 (Observe.Metrics.count h);
  let within pct expected actual =
    let err = Float.abs (actual -. expected) /. expected in
    if err > 0.10 then
      Alcotest.failf "%s: expected ~%.0f, got %.1f (err %.1f%%)" pct expected
        actual (err *. 100.0)
  in
  within "p50" 5000.0 (Observe.Metrics.percentile h 50.0);
  within "p90" 9000.0 (Observe.Metrics.percentile h 90.0);
  within "p99" 9900.0 (Observe.Metrics.percentile h 99.0);
  within "mean" 5000.5 (Observe.Metrics.mean h);
  check (Alcotest.float 0.001) "min exact" 1.0 (Observe.Metrics.min_value h);
  check (Alcotest.float 0.001) "max exact" 10000.0
    (Observe.Metrics.max_value h);
  (* clamping: a single-sample histogram reports that sample everywhere *)
  let one = Observe.Metrics.histogram mx "one" in
  Observe.Metrics.observe one 42.0;
  check (Alcotest.float 0.001) "p99 of singleton" 42.0
    (Observe.Metrics.percentile one 99.0)

(* --- histogram edge cases: NaN samples, empty stats, p999 --- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_histogram_edge_cases () =
  let mx = Observe.Metrics.create () in
  let h = Observe.Metrics.histogram mx "edge" in
  (* NaN samples are skipped, never poisoning the stats *)
  Observe.Metrics.observe h Float.nan;
  check cint "NaN sample is skipped" 0 (Observe.Metrics.count h);
  (* an empty histogram still exports finite, valid JSON *)
  let empty_json = Observe.Export.histogram_stats_json h in
  check cbool "empty histogram exports count 0" true
    (contains ~needle:"\"count\":0" empty_json);
  List.iter
    (fun bad ->
      check cbool ("no " ^ bad ^ " in empty stats") false
        (contains ~needle:bad empty_json))
    [ "nan"; "inf" ];
  check (Alcotest.float 0.001) "empty p999 is 0" 0.0
    (Observe.Metrics.percentile h 99.9);
  (* single sample: every quantile including p999 is that sample *)
  Observe.Metrics.observe h 17.0;
  check (Alcotest.float 0.001) "singleton p999" 17.0
    (Observe.Metrics.percentile h 99.9);
  check cbool "stats json carries p999" true
    (contains ~needle:"\"p999\"" (Observe.Export.histogram_stats_json h));
  (* infinite samples cannot leak non-finite stats into the export *)
  Observe.Metrics.observe h Float.infinity;
  let json = Observe.Export.histogram_stats_json h in
  List.iter
    (fun bad ->
      check cbool ("no " ^ bad ^ " after inf sample") false
        (contains ~needle:bad json))
    [ "nan"; "inf" ];
  check cstr "Export.num clamps nan" "0" (Observe.Export.num Float.nan);
  check cstr "Export.num clamps inf" "1e308"
    (Observe.Export.num Float.infinity)

(* --- merge_into: fleet-wide aggregation semantics --- *)

let test_merge_into () =
  let a = Observe.Metrics.create () and b = Observe.Metrics.create () in
  Observe.Metrics.incr ~by:3 (Observe.Metrics.counter a "c");
  Observe.Metrics.incr ~by:4 (Observe.Metrics.counter b "c");
  Observe.Metrics.incr ~by:2 (Observe.Metrics.counter b "only-b");
  Observe.Metrics.set_gauge (Observe.Metrics.gauge a "g") 1.0;
  Observe.Metrics.set_gauge (Observe.Metrics.gauge b "g") 9.0;
  Observe.Metrics.observe (Observe.Metrics.histogram a "h") 10.0;
  Observe.Metrics.observe (Observe.Metrics.histogram b "h") 20.0;
  Observe.Metrics.merge_into ~into:a b;
  check cint "counters add" 7
    (Observe.Metrics.counter_value (Observe.Metrics.counter a "c"));
  check cint "new counters appear" 2
    (Observe.Metrics.counter_value (Observe.Metrics.counter a "only-b"));
  check (Alcotest.float 0.001) "gauges take source value" 9.0
    (Observe.Metrics.gauge_value (Observe.Metrics.gauge a "g"));
  check cint "histogram buckets add" 2
    (Observe.Metrics.count (Observe.Metrics.histogram a "h"));
  check (Alcotest.float 0.001) "merged histogram max" 20.0
    (Observe.Metrics.max_value (Observe.Metrics.histogram a "h"))

(* --- the registry: lookups by name, exports in registration order --- *)

let test_registry_order () =
  let module M = Observe.Metrics in
  let mx = M.create () in
  let names = [ "zeta"; "alpha"; "mid"; "beta" ] in
  List.iter
    (fun n ->
      M.incr (M.counter mx ("c." ^ n));
      M.set_gauge (M.gauge mx ("g." ^ n)) 1.0;
      ignore (M.histogram mx ("h." ^ n)))
    names;
  (* finding a metric again neither re-registers nor reorders it *)
  List.iter
    (fun n ->
      M.incr (M.counter mx ("c." ^ n));
      M.observe (M.histogram mx ("h." ^ n)) 5.0)
    (List.rev names);
  let want prefix = List.map (fun n -> prefix ^ n) names in
  check (Alcotest.list cstr) "counters in registration order" (want "c.")
    (List.map M.counter_name (M.counters mx));
  check (Alcotest.list cstr) "histograms in registration order" (want "h.")
    (List.map M.histogram_name (M.histograms mx));
  check cint "one gauge per name" 4 (List.length (M.gauges mx));
  check cint "a found counter is the registered one" 2
    (M.counter_value (M.counter mx "c.mid"));
  let json = Observe.Export.metrics_json mx in
  let pos needle =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length json then Alcotest.failf "%s not exported" needle
      else if String.sub json i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun prefix ->
      let ps = List.map (fun n -> pos ("\"" ^ prefix ^ n ^ "\"")) names in
      check cbool (prefix ^ "* exported in registration order") true
        (List.sort compare ps = ps))
    [ "c."; "g."; "h." ]

(* A histogram registered but never observed holds no buckets; merging
   works whichever side it is on, and its stats read as they always
   have: all zero. *)
let test_unobserved_histograms () =
  let module M = Observe.Metrics in
  let mx = M.create () in
  let h = M.histogram mx "empty" in
  check cint "empty count" 0 (M.count h);
  check (Alcotest.float 0.) "empty mean" 0.0 (M.mean h);
  check (Alcotest.float 0.) "empty min" 0.0 (M.min_value h);
  check (Alcotest.float 0.) "empty max" 0.0 (M.max_value h);
  List.iter
    (fun p ->
      check (Alcotest.float 0.) (Printf.sprintf "empty p%g" p) 0.0
        (M.percentile h p))
    [ 0.; 50.; 99.; 99.9; 100. ];
  (* an observed source into an unobserved destination *)
  let src = M.create () in
  List.iter (M.observe (M.histogram src "empty")) [ 10.0; 1000.0 ];
  M.merge_into ~into:mx src;
  check cint "merged into an unobserved histogram" 2 (M.count h);
  check (Alcotest.float 0.001) "its max" 1000.0 (M.max_value h);
  check (Alcotest.float 0.001) "its p50" (M.percentile (M.histogram src "empty") 50.0)
    (M.percentile h 50.0);
  (* an unobserved source into an observed destination, and into a
     registry that lacks it *)
  let idle = M.create () in
  ignore (M.histogram idle "empty");
  ignore (M.histogram idle "idle-only");
  let p99 = M.percentile h 99.0 in
  M.merge_into ~into:mx idle;
  check cint "an unobserved source adds nothing" 2 (M.count h);
  check (Alcotest.float 0.) "and leaves the quantiles" p99
    (M.percentile h 99.0);
  let fresh = M.histogram mx "idle-only" in
  check cint "an unobserved source registers its name" 0 (M.count fresh);
  check (Alcotest.float 0.) "with zero stats" 0.0 (M.percentile fresh 50.0);
  M.observe fresh 3.0;
  check cint "and can be observed afterwards" 1 (M.count fresh)

(* --- leveled logging: default-quiet, parseable levels --- *)

let test_log_levels () =
  let t =
    Observe.create ~recorder:(Trace.Recorder.create ~now:(fun () -> 0.0) ()) ()
  in
  check cbool "default level is Quiet" true (Observe.log_level t = Observe.Quiet);
  List.iter
    (fun (s, l) ->
      check cbool ("parse " ^ s) true (Observe.level_of_string s = Some l);
      check cstr ("print " ^ s) s (Observe.level_to_string l))
    [ ("quiet", Observe.Quiet); ("info", Observe.Info); ("debug", Observe.Debug) ];
  check cbool "unknown level rejected" true
    (Observe.level_of_string "chatty" = None);
  (* a quiet tracer must consume format arguments without raising *)
  Observe.log t Observe.Debug "dropped %d %s" 1 "arg";
  Observe.set_log_level t Observe.Info;
  check cbool "level is mutable" true (Observe.log_level t = Observe.Info)

(* --- end-to-end: identical attaches export identical traces --- *)

let boot_on h =
  let disk = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks:2048 () in
  let fs =
    match Sfs.mkfs (Blockdev.Backend.dev disk) () with
    | Ok fs -> fs
    | Error _ -> Alcotest.fail "mkfs"
  in
  ignore (Sfs.mkdir_p fs "/dev");
  Sfs.sync fs;
  let vmm = Vmm.create h ~profile:Profile.qemu ~disk () in
  let _g = Vmm.boot vmm ~version:KV.V5_10 in
  vmm

let boot ~seed =
  let h = H.Host.create ~seed () in
  (h, boot_on h)

let attach h vmm =
  let image =
    match Blockdev.Image.pack [ Blockdev.Image.file "/bin/busybox" 800_000 ] with
    | Ok (backend, _) -> backend
    | Error e -> Alcotest.failf "image pack: %a" H.Errno.pp e
  in
  match
    Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ~fs_image:image
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Ok s -> s
  | Error e ->
      Alcotest.failf "attach failed: %s" (Vmsh.Vmsh_error.to_string e)

let traced_attach ~seed =
  let h, vmm = boot ~seed in
  Observe.enable h.H.Host.observe;
  ignore (attach h vmm);
  h

let attach_phases =
  [
    "attach"; "ptrace-attach"; "fd-discovery"; "memslot-dump"; "register-read";
    "page-table-walk"; "symbol-analysis"; "device-setup"; "klib-sideload";
  ]

let test_trace_determinism () =
  let t1 = Observe.Export.chrome_trace (traced_attach ~seed:91).H.Host.observe in
  let t2 = Observe.Export.chrome_trace (traced_attach ~seed:91).H.Host.observe in
  check cstr "two identical attaches export identical bytes" t1 t2;
  List.iter
    (fun phase ->
      check cbool ("trace names span " ^ phase) true
        (contains ~needle:(Printf.sprintf "%S" phase) t1))
    attach_phases;
  check cbool "spans carry vmexit deltas" true
    (contains ~needle:"\"vmexits\"" t1)

(* --- tracing off must not change the simulation --- *)

let test_noop_neutrality () =
  let run ~traced =
    let h, vmm = boot ~seed:93 in
    if traced then Observe.enable h.H.Host.observe;
    ignore (attach h vmm);
    h
  in
  let off = run ~traced:false and on = run ~traced:true in
  check (Alcotest.float 0.0001) "virtual clock unchanged by tracing"
    (H.Clock.now_ns off.H.Host.clock)
    (H.Clock.now_ns on.H.Host.clock);
  List.iter2
    (fun (k, v_off) (k', v_on) ->
      check cstr "same counter order" k k';
      check cint ("counter " ^ k ^ " unchanged by tracing") v_off v_on)
    (H.Clock.to_fields (H.Clock.counters off.H.Host.clock))
    (H.Clock.to_fields (H.Clock.counters on.H.Host.clock));
  let details h =
    List.filter
      (fun (phase, _) -> phase <> Trace.Boundary)
      (Trace.Recorder.stream h.H.Host.recorder)
  in
  check cint "no detail records while disabled" 0 (List.length (details off));
  check cbool "detail records while enabled" true (details on <> [])

(* --- each flight-recorder boundary event reaches the trace once --- *)

let test_one_emission_per_boundary_event () =
  let h = H.Host.create ~seed:95 () in
  Observe.enable h.H.Host.observe;
  ignore (attach h (boot_on h));
  let trace = Observe.Export.chrome_trace h.H.Host.observe in
  let kvm =
    List.filter
      (fun e -> String.starts_with ~prefix:"kvm." e.Trace.kind)
      (Trace.Recorder.events h.H.Host.recorder)
  in
  let count re =
    let re = Str.regexp re in
    let rec go pos n =
      match Str.search_forward re trace pos with
      | i -> go (i + 1) (n + 1)
      | exception Not_found -> n
    in
    go 0 0
  in
  check cbool "the attach crossed the KVM boundary" true
    (List.exists (fun e -> e.Trace.kind = "kvm.exit.ioregionfd") kvm);
  check cint "one instant per recorder kvm.* event" (List.length kvm)
    (count {|{"name":"kvm\.[^"]*","ph":"i"|});
  check cint "kvm.* names only as instants" (List.length kvm)
    (count {|{"name":"kvm\.|});
  check cbool "no legacy kvm.exit: name" false
    (contains ~needle:"kvm.exit:" trace)

let suite =
  [
    ( "observe",
      [
        Alcotest.test_case "span nesting + delta attribution" `Quick
          test_span_nesting;
        Alcotest.test_case "span End survives exceptions" `Quick
          test_span_exception_safe;
        Alcotest.test_case "histogram percentiles" `Quick
          test_histogram_percentiles;
        Alcotest.test_case "histogram edge cases (NaN, empty, p999)" `Quick
          test_histogram_edge_cases;
        Alcotest.test_case "merge_into aggregation" `Quick test_merge_into;
        Alcotest.test_case "registry keeps registration order" `Quick
          test_registry_order;
        Alcotest.test_case "unobserved histograms merge and read zero" `Quick
          test_unobserved_histograms;
        Alcotest.test_case "log levels parse and default quiet" `Quick
          test_log_levels;
        Alcotest.test_case "chrome trace is deterministic" `Quick
          test_trace_determinism;
        Alcotest.test_case "no-op sink leaves simulation untouched" `Quick
          test_noop_neutrality;
        Alcotest.test_case "one emission per boundary event" `Quick
          test_one_emission_per_boundary_event;
      ] );
  ]
