module S = Fleet.Session

let image name manifest =
  match Blockdev.Image.pack manifest with
  | Ok (backend, _) -> backend
  | Error e -> failwith (name ^ " image: " ^ Hostos.Errno.show e)

let attach ?config ~image h vmm work =
  let value = ref None in
  let step = function
    | S.Booted _ -> Ok ()
    | S.Attached (_, session) ->
        Result.map (fun v -> value := Some v) (work session)
  in
  let r = S.run ~step ~host:h (S.spec ?config ~image (S.Running vmm)) in
  match (r.S.verdict, !value) with
  | Faults.Abort.Survived, Some v -> Ok v
  | verdict, _ -> Error verdict
