(** Typed error taxonomy for the attach pipeline.

    Replaces the stringly [Error "..."] / raised [Failure] mix that
    grew across Attach, Tracee and Loader. [to_string] reproduces the
    exact legacy CLI messages. Errors stay typed end to end: callers
    match on the variant, never on the rendered text. *)

type t =
  | Attach_aborted of t  (** top-level attach failure wrapper *)
  | Guest_error of int  (** guest library status byte (>= 0x80) *)
  | Guest_fault of string  (** guest-side fault surfaced by the vCPU loop *)
  | Substrate of Hostos.Errno.t  (** raw errno from the host substrate *)
  | Injection of string * Hostos.Errno.t
      (** ptrace/syscall-injection failure: what * errno *)
  | Timeout of int  (** guest library never completed; last status *)
  | Invalid_config of string  (** rejected by [Attach.Config.validate] *)
  | Unsupported of string  (** host/hypervisor capability missing *)
  | Context of string * t  (** [what]: [inner] *)
  | Msg of string  (** untyped message (discovery, linking, ...) *)
  | Rollback_failed of t
      (** the guest-mutation journal could not be fully replayed; the
          guest may retain attach side effects *)
  | Deadline_exceeded of int
      (** a virtual-time watchdog expired after this many ns; wrap in
          [Context] to name the guarded phase *)
  | Baseline_stale of string
      (** a fork was requested from a baseline image that no longer
          matches the fleet configuration (kernel version, hypervisor
          profile, or file format drift) *)
  | Overlay_fault of string
      (** the per-page CoW overlay of a forked VM is inconsistent with
          its baseline (size mismatch, corrupt frozen region) *)
  | Guest_misbehavior of string
      (** the guest violated a protocol or memory contract mid-attach
          (TOCTOU mutation of scanned structures, out-of-bounds or
          looping virtqueue descriptors past the quarantine limit,
          scanned pages stolen by a balloon) — the attach rolls back
          rather than trusting the guest *)
  | Crash_point of int
      (** an armed abort-at-yield(k) crash point fired at yield [k]
          (the crash-point sweep kills the attach there on purpose);
          renders as ["crash point at yield k"] *)

exception Error of t
(** For internal paths that must raise (memory fabric, loader arena);
    [Attach.attach] converts it into [Error (Attach_aborted _)]. *)

val to_string : t -> string
(** Renders the same message strings the CLI printed before the
    taxonomy existed. *)

val substrate : string -> Hostos.Errno.t -> t
(** [substrate what e] = [Context (what, Substrate e)]. *)

val fail : t -> 'a
(** [fail e] raises [Error e]. *)
