(* Lint: no process-global mutable state in lib/.

   A top-level value built by [ref], [Hashtbl.create], [Array.make],
   [lazy] (or another mutable constructor below) lives as long as the
   process and is shared by every session in it, so a session's
   behaviour would depend on what ran before it. Each .ml under lib/ is
   parsed with compiler-libs and every top-level binding, in nested
   modules too, is checked; the few that must stay are listed with the
   reason they are safe. compiler-libs has a module named [Trace], as
   does lib/, so the lint is an executable of its own. *)

open Parsetree

let check = Alcotest.check

(* (file under lib/, value path inside it, why it may stay) *)
let allowlist =
  [
    ( "sched/sched.ml",
      "current",
      "the running scheduler: set on entry to a run and restored on exit" );
    ("fleet/machine.ml", "tools", "the frozen tools image: immutable once forced");
    ( "linux_guest/guest.ml",
      "interpreters",
      "the guest program interpreters: written only while modules initialise" );
    ( "hostos/mem.ml",
      "zero_page",
      "the page every untouched page aliases: copy-on-write never writes it" );
  ]

let mutable_constructors =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Array"; "make" ];
    [ "Atomic"; "make" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
  ]

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip e
  | _ -> e

let is_mutable_init e =
  match (strip e).pexp_desc with
  | Pexp_lazy _ -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Longident.flatten txt with
      | "Stdlib" :: path | path -> List.mem path mutable_constructors
      | exception _ -> false)
  | _ -> false

let rec pat_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | Ppat_constraint (p, _) -> pat_name p
  | _ -> "_"

(* Top-level value paths whose right-hand side is a mutable constructor. *)
let rec scan_structure path items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              if is_mutable_init vb.pvb_expr then
                Some (String.concat "." (List.rev (pat_name vb.pvb_pat :: path)))
              else None)
            vbs
      | Pstr_module mb -> scan_binding path mb
      | Pstr_recmodule mbs -> List.concat_map (scan_binding path) mbs
      | Pstr_include { pincl_mod; _ } -> scan_module path pincl_mod
      | _ -> [])
    items

and scan_binding path mb =
  scan_module (Option.value mb.pmb_name.txt ~default:"_" :: path) mb.pmb_expr

and scan_module path me =
  match me.pmod_desc with
  | Pmod_structure items -> scan_structure path items
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> scan_module path me
  | _ -> []

let globals_of_source ~name src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf name;
  scan_structure [] (Parse.implementation lexbuf)

(* run by [dune test] the cwd is _build/default/test/lint; by a bare
   [_build/default/test/lint/globals.exe] it is the repo root *)
let lib_dir () = if Sys.file_exists "../../lib/core" then "../../lib" else "lib"

(* sources only: the build tree also holds dot-directories of objects
   and the preprocessed [*.pp.ml] (a binary AST) *)
let rec ml_files dir rel =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         let rel = if rel = "" then f else rel ^ "/" ^ f in
         if f.[0] = '.' then []
         else if Sys.is_directory path then ml_files path rel
         else if Filename.check_suffix f ".ml" && not (Filename.check_suffix f ".pp.ml")
         then [ (path, rel) ]
         else [])

let lib_globals () =
  List.concat_map
    (fun (path, rel) ->
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.map (fun v -> (rel, v)) (globals_of_source ~name:path src))
    (ml_files (lib_dir ()) "")

let allowed (file, value) =
  List.exists (fun (f, v, _) -> f = file && v = value) allowlist

let test_no_new_globals () =
  let found = lib_globals () in
  let unlisted = List.filter (fun g -> not (allowed g)) found in
  check
    Alcotest.(list string)
    "top-level mutable values in lib/ outside the allowlist" []
    (List.map (fun (f, v) -> Printf.sprintf "lib/%s: %s" f v) unlisted);
  (* a stale entry would let a new global of the same name in unseen *)
  List.iter
    (fun (f, v, _) ->
      check Alcotest.bool
        (Printf.sprintf "allowlisted lib/%s: %s still exists" f v)
        true
        (List.mem (f, v) found))
    allowlist

let test_scanner_bites () =
  let src =
    {|
let planted = ref 0
let table : (int, int) Hashtbl.t = Hashtbl.create 8
let local () = let r = ref 0 in incr r; !r
let f = fun () -> Array.make 3 0
module M = struct
  let cell = lazy (Array.make 4 0)
  let fine = 3
end
module F (X : sig end) = struct let q = Stdlib.Queue.create () end
|}
  in
  check
    Alcotest.(list string)
    "planted globals found, locals and closures ignored"
    [ "planted"; "table"; "M.cell"; "F.q" ]
    (globals_of_source ~name:"planted.ml" src)

let () =
  Alcotest.run "lint"
    [
      ( "lint.globals",
        [
          Alcotest.test_case "no top-level mutable state in lib/" `Quick
            test_no_new_globals;
          Alcotest.test_case "the scanner finds planted globals" `Quick
            test_scanner_bites;
        ] );
    ]
