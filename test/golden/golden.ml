(* The tier-1 half of the golden gate. golden/MANIFEST holds one
   `LABEL $ ARGS` line per deterministic command and one
   `LABEL/FILE DIGEST` line per file the command writes (its stdout
   included), the MD5 taken after [filter]. `./ci.sh --stage golden`
   runs every command; this executable runs the cheap [subset] with the
   built CLI, each label in its own directory under one temporary root
   (a command reads an earlier label's output as ../LABEL/FILE), and
   compares what each wrote with its manifest lines. A changed digest,
   a listed file that was not written and a written file that is not
   listed all fail. *)

let subset =
  [
    "attach";
    "attach-kernel-4.4";
    "attach-kernel-4.9";
    "attach-kernel-4.14";
    "attach-kernel-4.19";
    "attach-kernel-5.4";
    "attach-kernel-5.10";
    "attach-qemu";
    "attach-kvmtool";
    "attach-firecracker";
    "attach-crosvm";
    "attach-cloud-hypervisor";
    "bake";
    "fleet-8";
    "fleet-8-fork";
    "matrix";
    "trace-record";
    "trace-replay";
  ]

type manifest = {
  commands : (string * string list) list;  (** label, argv, in file order *)
  files : (string * string) list;  (** LABEL/FILE, digest *)
}

(* Each line splits on single spaces, as ci.sh's `read` does. *)
let parse text =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let m =
    List.fold_left
      (fun m line ->
        match String.split_on_char ' ' line with
        | label :: "$" :: args ->
            { m with commands = (label, args) :: m.commands }
        | [ path; digest ] -> { m with files = (path, digest) :: m.files }
        | _ -> failwith ("golden/MANIFEST: malformed line: " ^ line))
      { commands = []; files = [] } lines
  in
  { commands = List.rev m.commands; files = List.rev m.files }

let label_of path =
  match String.index_opt path '/' with
  | Some i -> String.sub path 0 i
  | None -> path

(* The bench prints `[NAME finished in 1.2s wall]`; a stdout is
   digested without those lines, the rule ci.sh's golden_filter
   applies with the same pattern. Other files are digested whole. *)
let wall_line = Str.regexp {|^\[.* finished in [0-9.]*s wall]$|}

let filter path contents =
  if Filename.basename path <> "stdout" then contents
  else
    let lines = String.split_on_char '\n' contents in
    let lines =
      match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
    in
    List.filter (fun l -> not (Str.string_match wall_line l 0)) lines
    |> List.map (fun l -> l ^ "\n")
    |> String.concat ""

(* Lines no run can satisfy: a file line whose label has no command
   line, and a command line with no file line (every command writes at
   least its stdout). *)
let orphans m =
  List.filter_map
    (fun (path, _) ->
      if List.mem_assoc (label_of path) m.commands then None
      else Some (path ^ ": no command line for its label"))
    m.files
  @ List.filter_map
      (fun (label, _) ->
        if List.exists (fun (path, _) -> label_of path = label) m.files then
          None
        else Some (label ^ ": a command line with no file lines"))
      m.commands

(* Everything on which [label]'s manifest lines and the (LABEL/FILE,
   digest) pairs its run wrote disagree. *)
let problems m ~label ~outputs =
  if not (List.mem_assoc label m.commands) then
    [ label ^ ": no command line in the manifest" ]
  else
    let listed = List.filter (fun (p, _) -> label_of p = label) m.files in
    List.filter_map
      (fun (path, want) ->
        match List.assoc_opt path outputs with
        | None -> Some (path ^ ": listed, not written")
        | Some got when got <> want ->
            Some
              (Printf.sprintf "%s: digest %s, the manifest has %s" path got
                 want)
        | Some _ -> None)
      listed
    @ List.filter_map
        (fun (path, _) ->
          if List.mem_assoc path listed then None
          else Some (path ^ ": written, not listed"))
        outputs

(* --- running the subset --- *)

let cli = Filename.concat (Sys.getcwd ()) "../../bin/vmsh_cli.exe"

let read file = In_channel.with_open_bin file In_channel.input_all
let manifest = lazy (parse (read "../../golden/MANIFEST"))

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path)
  else Sys.remove path

(* (path relative to [dir] under [rel], absolute path) of every file
   below [dir] *)
let rec files_below dir rel =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f and r = rel ^ "/" ^ f in
         if Sys.is_directory path then files_below path r else [ (r, path) ])

(* Run [label]'s command in ROOT/LABEL with its stdout in a file
   there; [Error] if it did not exit 0. *)
let run root (label, args) =
  let dir = Filename.concat root label in
  Sys.mkdir dir 0o755;
  let stdout =
    Unix.openfile (Filename.concat dir "stdout")
      [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  and stdin = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir cwd;
        Unix.close stdout;
        Unix.close stdin)
      (fun () ->
        Unix.create_process cli (Array.of_list (cli :: args)) stdin stdout
          Unix.stderr)
  in
  match Unix.waitpid [] pid with
  | _, WEXITED 0 ->
      Ok
        (List.map
           (fun (path, file) ->
             (path, Digest.to_hex (Digest.string (filter path (read file)))))
           (files_below dir label))
  | _ -> Error (label ^ ": `vmsh " ^ String.concat " " args ^ "` failed")

(* Every subset label's outputs, run once in manifest order. *)
let outputs =
  lazy
    (let m = Lazy.force manifest in
     let root = Filename.temp_dir "vmsh-golden" "" in
     at_exit (fun () -> rm_rf root);
     List.filter (fun (label, _) -> List.mem label subset) m.commands
     |> List.map (fun ((label, _) as command) -> (label, run root command)))

let check_label label () =
  let m = Lazy.force manifest in
  let problems =
    match List.assoc_opt label (Lazy.force outputs) with
    | None -> problems m ~label ~outputs:[]
    | Some (Error e) -> [ e ]
    | Some (Ok outputs) -> problems m ~label ~outputs
  in
  Alcotest.(check (list string))
    (label ^ " matches golden/MANIFEST") [] problems

(* --- the compare on a synthetic manifest --- *)

let synthetic =
  parse
    "a $ attach -e hostname\n\
     b $ trace replay ../a/x.vmshtrace\n\
     a/stdout 11\n\
     a/x.vmshtrace 22\n\
     b/stdout 33\n"

let a_outputs = [ ("a/stdout", "11"); ("a/x.vmshtrace", "22") ]

let expect_problems what want m ~label ~outputs =
  Alcotest.(check (list string)) what want (problems m ~label ~outputs)

let test_matching () =
  Alcotest.(check (list string)) "no orphans" [] (orphans synthetic);
  expect_problems "outputs as listed pass" [] synthetic ~label:"a"
    ~outputs:a_outputs

let test_changed_digest () =
  expect_problems "a changed digest"
    [ "a/x.vmshtrace: digest 23, the manifest has 22" ]
    synthetic ~label:"a"
    ~outputs:[ ("a/stdout", "11"); ("a/x.vmshtrace", "23") ]

let test_missing_output () =
  expect_problems "a file line with no output"
    [ "a/x.vmshtrace: listed, not written" ]
    synthetic ~label:"a"
    ~outputs:[ ("a/stdout", "11") ]

let test_unlisted_output () =
  expect_problems "an output with no file line"
    [ "a/extra.json: written, not listed" ]
    synthetic ~label:"a"
    ~outputs:(a_outputs @ [ ("a/extra.json", "44") ])

let test_unknown_label () =
  expect_problems "a label with no command line"
    [ "c: no command line in the manifest" ]
    synthetic ~label:"c" ~outputs:[];
  let m = parse "a $ matrix\nc $ matrix\na/stdout 11\nd/stdout 55\n" in
  Alcotest.(check (list string))
    "a command line for a label no file line names, and the reverse"
    [
      "d/stdout: no command line for its label";
      "c: a command line with no file lines";
    ]
    (orphans m)

let test_filter () =
  Alcotest.(check string)
    "only the bench's wall-clock lines go"
    "firewall\nfoo_wall_ms 3\nlast\n"
    (filter "bench/stdout"
       "[e4 finished in 1.2s wall]\nfirewall\nfoo_wall_ms 3\nlast");
  Alcotest.(check string)
    "other files are digested whole" "[e4 finished in 1.2s wall]\n"
    (filter "bench/results.txt" "[e4 finished in 1.2s wall]\n")

let test_committed () =
  Alcotest.(check (list string))
    "no orphan lines" [] (orphans (Lazy.force manifest))

let () =
  Alcotest.run "golden"
    [
      ( "golden.manifest",
        [
          Alcotest.test_case "outputs as listed pass" `Quick test_matching;
          Alcotest.test_case "a changed digest fails" `Quick
            test_changed_digest;
          Alcotest.test_case "a listed file not written fails" `Quick
            test_missing_output;
          Alcotest.test_case "a written file not listed fails" `Quick
            test_unlisted_output;
          Alcotest.test_case "an unknown label fails" `Quick test_unknown_label;
          Alcotest.test_case "stdout drops only wall-clock lines" `Quick
            test_filter;
          Alcotest.test_case "the committed manifest is consistent" `Quick
            test_committed;
        ] );
      ( "golden.outputs",
        List.map (fun l -> Alcotest.test_case l `Quick (check_label l))
          subset );
    ]
