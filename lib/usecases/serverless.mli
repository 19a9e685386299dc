(** Use case #1 (paper §6.5): the serverless debug shell.

    A vHive-style Function-as-a-Service stack running lambda instances
    in slim Firecracker VMs. When an invocation logs an error, the
    operator locates the Firecracker process hosting the faulty lambda,
    attaches VMSH to it (the stack runs its Firecrackers with seccomp
    relaxed for debuggability, as the paper does) and opens an
    interactive shell — while a pin prevents the autoscaler from
    reclaiming the instance mid-session. *)

type lambda = {
  fn_name : string;
  vmm : Hypervisor.Vmm.t;
  guest : Linux_guest.Guest.t;
  mutable logs : string list;  (** most recent last *)
  mutable pinned : bool;  (** debug session active: exempt from scale-down *)
  mutable reclaimed : bool;
}

type stack

val create_stack :
  Hostos.Host.t -> functions:(string * (string -> (string, string) result)) list ->
  stack
(** One Firecracker microVM per function; the handler maps a payload to
    a result or an error message. *)

val lambdas : stack -> lambda list

val invoke : stack -> fn:string -> payload:string -> (string, string) result
(** Run an invocation; errors are recorded in the instance's log. *)

val find_faulty : stack -> lambda option
(** The first instance whose log contains an ERROR line. *)

val debug_shell :
  stack -> lambda -> (Vmsh.Attach.session -> ('a, string) result) ->
  ('a, Faults.Abort.verdict) result
(** Attach a debug shell to the lambda's VM, run [work] on it with the
    lambda pinned, then unpin and detach whatever [work] did: one
    {!Usecase.attach}. *)

val scale_down : stack -> int
(** Reclaim idle unpinned instances; returns how many were reclaimed.
    Pinned instances survive. *)

(** {2 Clone-on-request}

    Instead of one warm microVM per function, bake a single
    attach-ready {!Fleet.Baseline.image} and fork a fresh microVM per
    incoming request through the copy-on-write overlay: per-request
    isolation at linked-clone cost, resident only for the pages each
    request diverges. *)

type clone_pool = {
  cp_image : Fleet.Baseline.image;
  cp_profile : Hypervisor.Profile.t;
  cp_seed : int;
  mutable cp_served : int;
  mutable cp_errors : int;
  mutable cp_fork_ns : float list;  (** per-request, most recent first *)
  mutable cp_resident_bytes : int;  (** summed over served clones *)
}

val clone_pool : ?seed:int -> unit -> clone_pool
(** Bake the pool's baseline (the boot-once cost every request
    amortizes). *)

val serve_request :
  clone_pool ->
  handler:(string -> (string, string) result) ->
  id:int -> payload:string -> (string, string) result
(** Fork a clone, run [handler] inside it (request/response through the
    clone's private overlay pages), verify the clone's identity
    diverged from the base, retire the clone. Raises
    {!Vmsh.Vmsh_error.Error} when the pool's own baseline cannot be
    forked: no request ran. *)

type flood_report = {
  fl_requests : int;
  fl_served : int;
  fl_errors : int;
  fl_fork_p50_ns : float;
  fl_fork_p99_ns : float;
  fl_resident_bytes : int;
}

val serve_flood :
  clone_pool ->
  handler:(string -> (string, string) result) ->
  requests:int -> flood_report
(** Serve [requests] sequential clone-on-request invocations. *)
