(* The perf benchmark (see perf/README.md).

     main.exe --workload W --seed N [--seconds S] [--trace 0|1]
              [--trace-dir DIR] [--quick]
         one run of one workload; the last stdout line is its result
     main.exe all --seed N [--seconds S] [--quick] [--trace-dir DIR]
         every workload in its own child process, untraced then traced
     main.exe compare --base FILE... --new FILE...
         per workload x metric: quartiles of both sides and a verdict;
         exits 1 when a metric got worse or failed operations rose
     main.exe benchmark-json
         print BENCHMARK.json as generated from the catalogue *)

open Perf_bench

let workloads =
  [
    ("interactive", Interactive.make); ("fleet-cold", Fleet_cold.make);
    ("blkio", Blkio.make); ("serve", Serve.make);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N [--seconds S] [--trace 0|1] \
     [--trace-dir DIR] [--quick]\n\
    \       main.exe all --seed N [--seconds S] [--quick] [--trace-dir DIR]\n\
    \       main.exe compare --base FILE... --new FILE...\n\
    \       main.exe benchmark-json\n\
     workloads: interactive, fleet-cold, blkio, serve";
  exit 2

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None ->
      Printf.eprintf "%s expects an integer, got %S\n" flag v;
      usage ()

type args = {
  workload : string option;
  seed : int option;
  seconds : int option;
  trace : bool;
  trace_dir : string option;
  quick : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> go { a with seed = Some (int_arg "--seed" n) } rest
    | "--seconds" :: n :: rest -> go { a with seconds = Some (int_arg "--seconds" n) } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--trace-dir" :: d :: rest -> go { a with trace_dir = Some d } rest
    | "--quick" :: rest -> go { a with quick = true } rest
    | x :: _ ->
        Printf.eprintf "unexpected argument %S\n" x;
        usage ()
  in
  go
    {
      workload = None;
      seed = None;
      seconds = None;
      trace = false;
      trace_dir = None;
      quick = false;
    }
    argv

let seed_of a = match a.seed with Some s -> s | None -> prerr_endline "--seed is required"; usage ()

let results_doc ~seed entries =
  Json.Obj
    [ ("seed", Json.Num (float_of_int seed)); ("workloads", Json.Obj entries) ]

let run_one a =
  let name = match a.workload with Some w -> w | None -> usage () in
  let make =
    match List.assoc_opt name workloads with
    | Some m -> m
    | None ->
        Printf.eprintf "unknown workload %S\n" name;
        usage ()
  in
  let seed = seed_of a in
  let opts =
    {
      Run.seed;
      (* a quick run is exactly its modelled window unless told otherwise *)
      seconds =
        float_of_int
          (match a.seconds with
          | Some s -> s
          | None -> if a.quick then 0 else Catalogue.run_seconds);
      trace = a.trace;
      quick = a.quick;
      trace_dir = a.trace_dir;
    }
  in
  try Run.main opts make
  with Rig.Check_failed msg ->
    Printf.eprintf "perf %s: check failed: %s\n%!" name msg;
    exit 1

let child args =
  match Run.child Sys.executable_name args with
  | out, true -> out
  | _, false ->
      Printf.eprintf "perf all: %s failed\n%!" (String.concat " " args);
      exit 1

let run_all a =
  let seed = seed_of a in
  let dir = Option.value a.trace_dir ~default:"perf/out" in
  let out = Filename.concat dir (Printf.sprintf "results-seed%d.json" seed) in
  Run.mkdir_p dir;
  let common w =
    [ "--workload"; w; "--seed"; string_of_int seed ]
    @ (match a.seconds with Some s -> [ "--seconds"; string_of_int s ] | None -> [])
    @ if a.quick then [ "--quick" ] else []
  in
  let result lines =
    match List.rev lines with
    | last :: _ -> Json.parse last
    | [] -> failwith "child printed nothing"
  in
  let entries =
    List.map
      (fun (w, _) ->
        let plain = child (common w @ [ "--trace"; "0" ]) in
        List.iter print_endline (List.filter (fun l -> l <> "" && l.[0] <> '{') plain);
        let traced = child (common w @ [ "--trace"; "1"; "--trace-dir"; dir ]) in
        let e = result plain and t = result traced in
        let metrics j = match Json.member "metrics" j with Some (Json.Obj m) -> m | _ -> [] in
        let field k = Option.value ~default:Json.Null (Json.member k e) in
        ( w,
          Json.Obj
            [
              ("correct", field "correct"); ("attempted", field "attempted");
              ("failed", field "failed");
              ("metrics", Json.Obj (metrics e @ metrics t));
            ] ))
      workloads
  in
  Json.write_file out (results_doc ~seed entries);
  Printf.printf "traces: %s/<workload>.trace.json, .layers.json\nresults: %s\n" dir out

let run_compare argv =
  let rec split base news mode = function
    | [] -> (List.rev base, List.rev news)
    | "--base" :: rest -> split base news `Base rest
    | "--new" :: rest -> split base news `New rest
    | f :: rest -> (
        match mode with
        | `Base -> split (f :: base) news mode rest
        | `New -> split base (f :: news) mode rest
        | `None -> usage ())
  in
  match split [] [] `None argv with
  | [], _ | _, [] -> usage ()
  | base, news -> if Compare.run ~base ~news then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "all" :: rest -> run_all (parse rest)
  | "compare" :: rest -> run_compare rest
  | [ "benchmark-json" ] -> print_endline (Json.pretty (Catalogue.benchmark_json ()))
  | rest -> run_one (parse rest)
