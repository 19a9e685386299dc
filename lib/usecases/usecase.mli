(** What the use cases share: their images, and one
    {!Fleet.Session.run} on a VM the caller keeps running, so each gets
    the rollback oracle, the tracer and process checks and a typed
    verdict. *)

val image : string -> Blockdev.Image.entry list -> Blockdev.Backend.t
(** [image name manifest] packs a use case's side-loaded image. *)

val attach :
  ?config:Vmsh.Attach.Config.t -> image:Blockdev.Backend.t ->
  Hostos.Host.t -> Hypervisor.Vmm.t ->
  (Vmsh.Attach.session -> ('a, string) result) ->
  ('a, Faults.Abort.verdict) result
(** [attach ~image h vmm work] side-loads [image] into the running [vmm]
    (whose host is [h]), runs [work] attached and detaches whatever
    [work] did. [Ok] is [work]'s value when the session survived;
    otherwise the verdict: [Bug (Broken m)] for [work]'s [Error m], a
    [Clean_abort] for a refused attach. *)
