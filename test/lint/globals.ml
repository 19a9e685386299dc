(* Lints over the sources, parsed with compiler-libs. compiler-libs
   has a module named [Trace], as does lib/, so the lints are an
   executable of their own.

   No process-global mutable state in lib/. A top-level value built by
   [ref], [Hashtbl.create], [Array.make], [lazy] (or another mutable
   constructor below) lives as long as the process and is shared by
   every session in it, so a session's behaviour would depend on what
   ran before it. Each .ml under lib/ is parsed and every top-level
   binding, in nested modules too, is checked; the few that must stay
   are listed with the reason they are safe.

   No dead exports. Every [val] of a lib/**/*.mli, in nested [sig]
   modules too, needs one use in a .ml under lib/, bin/, bench/, perf/,
   examples/ or test/ other than its own module's; every top-level
   [let] of a lib/ module without an .mli needs one use anywhere outside
   its own right-hand side. A use is the value's bare name as the last
   part of an identifier in an expression ([Pexp_ident]; a punned label
   is one). Matching by name is imprecise in one direction only: a dead
   value whose name collides with a used one goes unseen, but a used
   value is never flagged. The few that may stay unused are listed with
   a reason. *)

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
let root () = if Sys.file_exists "../../lib/core" then "../.." else "."

(* sources only: the build tree also holds dot-directories of objects
   and the preprocessed [*.pp.ml] (a binary AST) *)
let rec source_files suffix dir rel =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         let rel = if rel = "" then f else rel ^ "/" ^ f in
         if f.[0] = '.' then []
         else if Sys.is_directory path then source_files suffix path rel
         else if
           Filename.check_suffix f suffix
           && not (Filename.check_suffix f (".pp" ^ suffix))
         then [ (path, rel) ]
         else [])

let read_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

let lib_files suffix =
  source_files suffix (Filename.concat (root ()) "lib") ""

let lib_globals () =
  List.concat_map
    (fun (path, rel) ->
      List.map (fun v -> (rel, v)) (globals_of_source ~name:path (read_file path)))
    (lib_files ".ml")

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

(* --- dead exports --- *)

(* (file under lib/, value path inside it, why it may stay unused):
   wire-format constants, which document a layout where they stand *)
let export_allowlist =
  let mmio name what =
    ("virtio/mmio.mli", name, what ^ " in the virtio-mmio register map")
  and kvm_exit name code =
    ("kvm/api.mli", name, code ^ " in kvm_run.exit_reason")
  in
  [
    mmio "reg_queue_num_max" "QueueNumMax, register 0x34,";
    mmio "reg_status" "Status, register 0x70,";
    mmio "reg_queue_desc_hi" "QueueDescHigh, register 0x84,";
    mmio "reg_queue_avail_hi" "QueueDriverHigh, register 0x94,";
    mmio "reg_queue_used_hi" "QueueDeviceHigh, register 0xa4,";
    mmio "status_acknowledge" "the ACKNOWLEDGE status bit (1)";
    mmio "status_driver" "the DRIVER status bit (2)";
    mmio "status_driver_ok" "the DRIVER_OK status bit (4)";
    kvm_exit "exit_hlt" "KVM_EXIT_HLT (5)";
    kvm_exit "exit_mmio" "KVM_EXIT_MMIO (6)";
    kvm_exit "exit_shutdown" "KVM_EXIT_SHUTDOWN (8)";
  ]

(* The [val]s of a signature as paths, nested [sig] modules included;
   a module type's declarations are not exports. *)
let rec sig_values path items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd -> [ List.rev (vd.pval_name.txt :: path) ]
      | Psig_module md -> decl_values path md
      | Psig_recmodule mds -> List.concat_map (decl_values path) mds
      | _ -> [])
    items

and decl_values path md =
  module_type_values (Option.value md.pmd_name.txt ~default:"_" :: path) md.pmd_type

and module_type_values path mt =
  match mt.pmty_desc with
  | Pmty_signature items -> sig_values path items
  | Pmty_functor (_, mt) -> module_type_values path mt
  | _ -> []

(* The top-level [let]s of a structure, nested modules included, as
   (path, right-hand side). *)
let rec struct_lets path items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match pat_name vb.pvb_pat with
              | "_" -> None
              | name -> Some (List.rev (name :: path), vb.pvb_expr))
            vbs
      | Pstr_module mb -> binding_lets path mb
      | Pstr_recmodule mbs -> List.concat_map (binding_lets path) mbs
      | _ -> [])
    items

and binding_lets path mb =
  module_lets (Option.value mb.pmb_name.txt ~default:"_" :: path) mb.pmb_expr

and module_lets path me =
  match me.pmod_desc with
  | Pmod_structure items -> struct_lets path items
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_lets path me
  | _ -> []

(* How often each bare name occurs as the last part of an identifier in
   what [walk] visits. *)
let ident_counts walk =
  let counts = Hashtbl.create 256 in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        let n = Longident.last txt in
        Hashtbl.replace counts n
          (1 + Option.value (Hashtbl.find_opt counts n) ~default:0)
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  walk { Ast_iterator.default_iterator with expr };
  counts

let count counts name = Option.value (Hashtbl.find_opt counts name) ~default:0
let last path = List.nth path (List.length path - 1)
let with_ext rel ext = Filename.remove_extension rel ^ ext

let parse_with parse (rel, src) =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf rel;
  parse lexbuf

(* Every unused export as "FILE: PATH", given the lib/ interfaces and
   every implementation as (path from the repo root, source). *)
let dead_exports ~interfaces ~implementations =
  let impls =
    List.map
      (fun ((rel, _) as file) ->
        let str = parse_with Parse.implementation file in
        (rel, str, ident_counts (fun it -> it.structure it str)))
      implementations
  in
  let used_outside own name =
    List.exists (fun (rel, _, counts) -> rel <> own && count counts name > 0) impls
  in
  let vals =
    List.concat_map
      (fun ((rel, _) as file) ->
        sig_values [] (parse_with Parse.interface file)
        |> List.filter (fun path -> not (used_outside (with_ext rel ".ml") (last path)))
        |> List.map (fun path -> (rel, String.concat "." path)))
      interfaces
  in
  let lets =
    List.concat_map
      (fun (rel, str, counts) ->
        if
          String.starts_with ~prefix:"lib/" rel
          && not (List.mem_assoc (with_ext rel ".mli") interfaces)
        then
          struct_lets [] str
          |> List.filter (fun (path, rhs) ->
                 let name = last path in
                 let self = ident_counts (fun it -> it.expr it rhs) in
                 not (used_outside rel name || count counts name > count self name))
          |> List.map (fun (path, _) -> (rel, String.concat "." path))
        else [])
      impls
  in
  List.map (fun (f, v) -> Printf.sprintf "%s: %s" f v) (vals @ lets)

let use_dirs = [ "lib"; "bin"; "bench"; "perf"; "examples"; "test" ]

let sources suffix dirs =
  List.concat_map
    (fun dir ->
      source_files suffix (Filename.concat (root ()) dir) ""
      |> List.map (fun (path, rel) -> (dir ^ "/" ^ rel, read_file path)))
    dirs

let test_no_dead_exports () =
  let dead =
    dead_exports ~interfaces:(sources ".mli" [ "lib" ])
      ~implementations:(sources ".ml" use_dirs)
  in
  let listed (f, v, _) = Printf.sprintf "lib/%s: %s" f v in
  check
    Alcotest.(list string)
    "exported values nothing uses, outside the allowlist" []
    (List.filter
       (fun d -> not (List.exists (fun e -> listed e = d) export_allowlist))
       dead);
  (* a stale entry would let the next dead value of that name in unseen *)
  List.iter
    (fun e ->
      check Alcotest.bool (listed e ^ " still exists and is still unused") true
        (List.mem (listed e) dead))
    export_allowlist

let test_exports_bite () =
  let interfaces =
    [
      ( "lib/p/p.mli",
        "val used : int\nval planted : int\n\
         module N : sig val inner : int end\n\
         module type S = sig val spec : int end" );
    ]
  in
  let implementations =
    [
      ( "lib/p/p.ml",
        "let used = 1 let planted = 0 let _ = planted\n\
         module N = struct let inner = 2 end" );
      ( "lib/q/q.ml",
        "let helper = 1\nlet unreferenced = helper\n\
         let rec self () = self ()\n\
         let () = print_int (P.used + P.N.inner)" );
    ]
  in
  check
    Alcotest.(list string)
    "a val used only in its own module and unreferenced lets found"
    [ "lib/p/p.mli: planted"; "lib/q/q.ml: unreferenced"; "lib/q/q.ml: self" ]
    (dead_exports ~interfaces ~implementations)

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
      ( "lint.exports",
        [
          Alcotest.test_case "every export has a use" `Quick
            test_no_dead_exports;
          Alcotest.test_case "the scanner finds planted dead values" `Quick
            test_exports_bite;
        ] );
    ]
