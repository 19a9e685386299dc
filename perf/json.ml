(* A small JSON value type with a printer and a parser: enough for the
   benchmark's result lines, its results documents and BENCHMARK.json. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* The shortest decimal that reads back as the same float, so a value is
   printed "with all its digits" and nothing more. Non-finite numbers
   are a bug in the caller: JSON cannot carry them. *)
let num_to_string x =
  if not (Float.is_finite x) then invalid_arg "Json: non-finite number";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> num_to_string x
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs)
      ^ "}"

(* Indented rendering for files people read (BENCHMARK.json, results). *)
let rec pretty ?(indent = 0) v =
  let pad n = String.make n ' ' in
  match v with
  | Arr (_ :: _ as xs) when List.exists (function Obj _ | Arr _ -> true | _ -> false) xs ->
      "[\n"
      ^ String.concat ",\n"
          (List.map (fun x -> pad (indent + 2) ^ pretty ~indent:(indent + 2) x) xs)
      ^ "\n" ^ pad indent ^ "]"
  | Obj (_ :: _ as kvs)
    when List.exists (fun (_, v) -> match v with Obj _ | Arr _ -> true | _ -> false) kvs ->
      "{\n"
      ^ String.concat ",\n"
          (List.map
             (fun (k, v) ->
               pad (indent + 2) ^ escape k ^ ": " ^ pretty ~indent:(indent + 2) v)
             kvs)
      ^ "\n" ^ pad indent ^ "}"
  | v -> to_string v

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                members ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None

let read_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse s

let write_file path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (pretty v);
      output_char oc '\n')
