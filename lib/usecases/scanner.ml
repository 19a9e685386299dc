module Image = Blockdev.Image

type vuln = {
  v_pkg : string;
  installed : string;
  fixed_in : string;
  cve : string;
}

let default_secdb =
  [
    ("openssl", "1.1.1k", "CVE-2021-3450");
    ("busybox", "1.33.1", "CVE-2021-28831");
    ("apk-tools", "2.12.6", "CVE-2021-36159");
    ("musl", "1.2.2", "CVE-2020-28928");
    ("zlib", "1.2.12", "CVE-2018-25032");
    ("curl", "7.79.0", "CVE-2021-22945");
  ]

let compare_versions a b =
  let parse v =
    String.split_on_char '.' v
    |> List.map (fun c -> try int_of_string c with Failure _ -> 0)
  in
  let rec cmp xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys -> if x <> y then compare x y else cmp xs ys
  in
  cmp (parse a) (parse b)

let parse_apk_db content =
  (* apk format: records separated by blank lines with P: and V: lines *)
  let lines = String.split_on_char '\n' content in
  let rec go acc pkg = function
    | [] -> List.rev acc
    | line :: rest ->
        if String.length line > 2 && String.sub line 0 2 = "P:" then
          go acc (Some (String.sub line 2 (String.length line - 2))) rest
        else if String.length line > 2 && String.sub line 0 2 = "V:" then (
          match pkg with
          | Some p ->
              go ((p, String.sub line 2 (String.length line - 2)) :: acc) None rest
          | None -> go acc None rest)
        else go acc pkg rest
  in
  go [] None lines

let apk_db_content pkgs =
  String.concat "\n\n"
    (List.map (fun (p, v) -> Printf.sprintf "P:%s\nV:%s\nA:x86_64" p v) pkgs)
  ^ "\n"

let scanner_image () =
  Usecase.image "scanner"
    [
      Image.file ~content:"#!vmsh-secscan v1\n" "/usr/bin/secscan" 18;
      Image.file "/bin/busybox" (600 * 1024);
    ]

let scan h ~vmm ?(secdb = default_secdb) () =
  Usecase.attach ~image:(scanner_image ()) h vmm (fun session ->
      let out =
        Vmsh.Attach.console_roundtrip session
          "cat /var/lib/vmsh/lib/apk/db/installed"
      in
      if String.starts_with ~prefix:"error:" out then
        Error ("cannot read package database: " ^ out)
      else
        Ok
          (List.filter_map
             (fun (pkg, version) ->
               match List.find_opt (fun (p, _, _) -> p = pkg) secdb with
               | Some (_, fixed_in, cve)
                 when compare_versions version fixed_in < 0 ->
                   Some { v_pkg = pkg; installed = version; fixed_in; cve }
               | _ -> None)
             (parse_apk_db out)))
