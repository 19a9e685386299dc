(* Smoke and determinism test of the perf benchmark: every workload at
   --quick size, twice with the same seed.

     test_perf.exe MAIN_EXE BENCHMARK_JSON *)

open Perf_bench

let exe = Sys.argv.(1)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %s\n%!" msg)
    fmt

let run args =
  let out, ok = Run.child exe args in
  if not ok then fail "%s exited non-zero" (String.concat " " args);
  out

let result lines =
  match List.rev lines with
  | last :: _ -> Json.parse last
  | [] -> Json.Null

let metric_value j name =
  Option.bind (Json.member "metrics" j) (fun ms ->
      Option.bind (Json.member name ms) (fun m -> Option.bind (Json.member "value" m) Json.to_float))

let metric_unit j name =
  Option.bind (Json.member "metrics" j) (fun ms ->
      Option.bind (Json.member name ms) (fun m -> Option.bind (Json.member "unit" m) Json.to_str))

let quick w seed trace =
  run [ "--workload"; w; "--seed"; string_of_int seed; "--quick"; "--trace"; trace ]

(* the result line carries exactly [metrics], each with its unit, and
   the report checked every correctness gate *)
let check_result ~what j (metrics : Catalogue.metric list) =
  if Json.member "correct" j <> Some (Json.Bool true) then fail "%s: not correct" what;
  if Json.member "failed" j <> Some (Json.Num 0.) then fail "%s: failed operations" what;
  List.iter
    (fun (m : Catalogue.metric) ->
      if metric_unit j m.Catalogue.name <> Some m.Catalogue.unit_ then
        fail "%s: %s missing or without unit %s" what m.Catalogue.name m.Catalogue.unit_)
    metrics;
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) when List.length kvs = List.length metrics -> ()
  | _ -> fail "%s: unexpected metric set" what

let printed lines (m : Catalogue.metric) =
  List.exists
    (fun l ->
      match String.split_on_char ' ' l |> List.filter (( <> ) "") with
      | name :: _ :: unit_ :: _ -> name = m.Catalogue.name && unit_ = m.Catalogue.unit_
      | _ -> false)
    lines

let plan lines = List.find_opt (fun l -> String.trim l |> String.starts_with ~prefix:"plan:") lines

(* compare flags a rise of failed operations even when every metric is
   the same *)
let compare_counts_failures () =
  let doc name failed =
    let path = name ^ ".json" in
    Json.write_file path
      (Json.Obj
         [
           ("seed", Json.Num 1.);
           ( "workloads",
             Json.Obj
               [
                 ( "serve",
                   Json.Obj
                     [
                       ("correct", Json.Bool true); ("attempted", Json.Num 80.);
                       ("failed", Json.Num failed);
                       ( "metrics",
                         Json.Obj
                           [ ("host_ms_per_op", Json.Obj [ ("value", Json.Num 100.); ("unit", Json.Str "ms") ]) ]
                       );
                     ] );
               ] );
         ]);
    path
  in
  let clean = doc "compare-clean" 0. and failing = doc "compare-failing" 2. in
  if Compare.run ~base:[ clean ] ~news:[ clean ] then fail "compare: identical documents judged worse";
  if not (Compare.run ~base:[ clean ] ~news:[ failing ]) then
    fail "compare: a rise of failed operations was not judged worse"

let () =
  compare_counts_failures ();
  (* BENCHMARK.json is generated from the catalogue *)
  let committed = Json.to_string (Json.read_file Sys.argv.(2)) in
  if committed <> Json.to_string (Catalogue.benchmark_json ()) then
    fail "BENCHMARK.json differs from `main.exe benchmark-json`";
  let plain = quick "interactive" 1 "0" in
  check_result ~what:"interactive --trace 0" (result plain) Catalogue.end_to_end;
  List.iter
    (fun w ->
      let a = quick w 1 "1" and b = quick w 1 "1" in
      let ja = result a and jb = result b in
      check_result ~what:(w ^ " --trace 1") ja Catalogue.per_layer;
      List.iter
        (fun (m : Catalogue.metric) ->
          if not (printed a m) then fail "%s: %s not printed with its unit" w m.Catalogue.name)
        Catalogue.end_to_end;
      List.iter
        (fun (m : Catalogue.metric) ->
          if m.Catalogue.clock = Catalogue.V then
            let va = metric_value ja m.Catalogue.name and vb = metric_value jb m.Catalogue.name in
            if va <> vb then
              fail "%s: virtual-clock %s differs between identical runs" w m.Catalogue.name)
        Catalogue.per_layer;
      match metric_value ja "vmsh.attach.unphased_ns.max" with
      | Some gap when gap <= 1. -> ()
      | _ -> fail "%s: attach phases do not sum to the attach within 1 ns" w)
    Catalogue.workload_names;
  let p1 = plan plain and p2 = plan (quick "interactive" 2 "0") in
  if p1 = None || p1 = p2 then fail "a different seed kept interactive's kernel x hypervisor order";
  if !failures > 0 then exit 1;
  print_endline "perf: quick runs correct, virtual-clock metrics identical across runs"
