(* Use case #1 (paper §6.5): an interactive debug shell inside a
   serverless (FaaS) lambda instance.

   A vHive-style stack runs each function in a slim Firecracker microVM.
   When an invocation fails, the operator locates the Firecracker
   process of the faulty instance, attaches VMSH, and debugs it live —
   the autoscaler is prevented from reclaiming the instance while the
   session is open.

     dune exec examples/serverless_debug.exe *)

module H = Hostos
module Serverless = Usecases.Serverless

let () =
  Printf.printf "== serverless debug shell (vHive-style stack) ==\n\n";
  let host = H.Host.create ~seed:31 () in
  let stack =
    Serverless.create_stack host
      ~functions:
        [
          ("resize-image", fun p -> Ok ("resized " ^ p));
          ("send-email", fun p -> Ok ("sent " ^ p));
          ( "parse-orders",
            fun p ->
              if String.length p > 0 && p.[0] = '{' then
                Error "unexpected end of JSON input"
              else Ok "parsed" );
        ]
  in
  Printf.printf "stack up: %d Firecracker microVMs\n"
    (List.length (Serverless.lambdas stack));

  (* traffic arrives; one function starts failing *)
  List.iter
    (fun (fn, payload) ->
      match Serverless.invoke stack ~fn ~payload with
      | Ok r -> Printf.printf "  %-14s <- ok: %s\n" fn r
      | Error e -> Printf.printf "  %-14s <- ERROR: %s\n" fn e)
    [
      ("resize-image", "cat.jpg");
      ("send-email", "welcome");
      ("parse-orders", "{\"order\": 1");
      ("resize-image", "dog.png");
    ];

  (* the operator greps the logs, finds the faulty instance and its
     hosting firecracker process *)
  match Serverless.find_faulty stack with
  | None -> failwith "no faulty lambda found"
  | Some lam -> (
      Printf.printf "\nfaulty function: %s (firecracker pid %d)\n"
        lam.Serverless.fn_name
        (Hypervisor.Vmm.pid lam.Serverless.vmm);
      let debug session =
        Printf.printf "debug shell attached; instance pinned against \
                       scale-down.\n\n";
        List.iter
          (fun cmd ->
            Printf.printf "vmsh> %s\n%s" cmd
              (Vmsh.Attach.console_roundtrip session cmd))
          [ "hostname"; "cat /var/lib/vmsh/var/log/lambda.log"; "ls /usr/bin" ];
        let reclaimed = Serverless.scale_down stack in
        Printf.printf
          "\nautoscaler ran: %d idle instances reclaimed, the debugged one \
           survives (pinned=%b).\n"
          reclaimed lam.Serverless.pinned;
        Ok ()
      in
      match Serverless.debug_shell stack lam debug with
      | Error v -> failwith ("debug shell: " ^ Faults.Abort.to_string v)
      | Ok () -> Printf.printf "session closed; pin released.\n")
