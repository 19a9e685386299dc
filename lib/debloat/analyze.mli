(** The de-bloating pipeline of §6.4: boot each image in a VM, trace the
    paths the application opens at startup, strip everything else, and
    measure the size reduction.

    Tracing really happens inside a guest: the application model opens
    its files through the guest VFS over the VirtIO disk, and the
    tracer records which opens succeeded — the role the modified runq's
    sysdig tracer plays in the paper. *)

type report = {
  r_name : string;
  before_bytes : int;
  after_bytes : int;
  reduction_pct : float;
  still_works : bool;  (** the app's opens all succeed on the stripped image *)
}

val trace_in_vm : Hostos.Host.t -> Dataset.image -> string list
(** Boot a VM whose disk holds the image, run the application's startup
    opens as guest code, return the successfully opened paths. *)

val analyze : Hostos.Host.t -> Dataset.image -> report

val analyze_all : ?seed:int -> unit -> report list
(** All of the top-40 (each in its own fresh host). *)

val average_reduction : report list -> float
