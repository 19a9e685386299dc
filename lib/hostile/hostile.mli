(** Seeded adversarial-guest engine: drives the guest from inside while
    vmsh attaches.

    Each engine impersonates a hostile guest kernel of one {!cls},
    stepping at the attach path's cooperative yield points (installed
    through [Faults.set_on_yield]) and at the harness's device pump —
    exactly the seams where a real guest races a real attach. All
    mischief is performed through the guest's own state (its physical
    memory, its page tables, its virtqueue rings), every write is
    attributed to the guest like any guest write (so the snapshot
    oracle excludes it), and every decision comes from a private
    splitmix64 stream —
    the same seed replays the same attack byte-identically.

    The engine never touches vmsh-side state: the hardened victim paths
    (use-time revalidation, descriptor quarantine, journal rollback)
    must absorb the attack on their own. *)

type cls =
  | Toctou_scan
      (** corrupt the ksymtab strings/table the scanner just read,
          sometimes restoring them — the classic scan/use race *)
  | Balloon
      (** unmap (inflate) and remap (deflate) scanned pages through the
          guest page table mid-attach *)
  | Desc_chaos
      (** rewrite vmsh virtqueue descriptors under the device: OOB
          addresses, oversize lengths, self-looping chains — including
          descriptors of requests already in flight *)
  | Mem_churn
      (** seeded dirty-page bursts over a private arena, forcing the
          CoW overlay and journal paths through memory pressure *)

val all : cls list

val name : cls -> string
(** Stable kebab-case name (["toctou-scan"], ["balloon"],
    ["desc-chaos"], ["mem-churn"]) used in CLI flags, sweep-cell labels
    and trace metadata. *)

val of_name : string -> cls option

type t

val create : seed:int -> cls:cls -> Hypervisor.Vmm.t -> t
(** An engine over the given VM's guest. [seed] keys the private RNG
    stream; nothing happens until {!step} is called. *)

val step : t -> unit
(** Perform one adversarial action (or nothing, once the step budget
    is exhausted — a bounded adversary keeps every cell terminating).
    Records a [hostile.step] flight-recorder event and bumps the
    [hostile.steps] counter per action taken. *)

val cls : t -> cls
