(** Baked baseline images and copy-on-write VM forking.

    Boot once, fork thousands of times: {!bake} drives one machine to
    the attach-ready point and freezes its guest RAM (the serialized
    page tables live inside it), disk blocks, bounce buffer, kernel
    image and boot RNG stream into an {!image}. {!fork} stands up a
    session over that image through per-4KiB-page copy-on-write
    overlays — reads fall through to the shared baseline, the first
    diverging write copies exactly one page — and replays the boot
    deterministically inside a {!Hostos.Clock.restore_section}, so the
    clone is charged only the linked-clone cost (provisioning its
    divergent disk blocks plus a fixed syscall budget for mapping
    shared memory and re-creating the KVM fds), orders of magnitude
    below a cold boot. *)

type image
(** A frozen, forkable machine. Immutable: forks never write into it
    (their writes land in private overlay pages). *)

type forked = {
  fk_vmm : Hypervisor.Vmm.t;
  fk_guest : Linux_guest.Guest.t;
  fk_fork_ns : float;  (** virtual cost charged for the fork itself *)
}

val bake :
  ?seed:int ->
  ?profile:Hypervisor.Profile.t ->
  ?version:Linux_guest.Kernel_version.t ->
  ?hostname:string ->
  unit ->
  image
(** Boot one machine to the attach-ready point and freeze it.
    Deterministic: the same arguments always produce the same image
    (which is what lets a trace replay re-bake instead of shipping the
    image in the trace). Defaults: seed [0xba5e], QEMU profile, v5.10,
    hostname ["baseline"]. *)

val fork :
  image ->
  host:Hostos.Host.t ->
  profile:Hypervisor.Profile.t ->
  name:string ->
  (forked, Vmsh.Vmsh_error.t) result
(** Clone the image into a fresh session on [host]: CoW disk view,
    per-clone [/etc/hostname] provisioning ([name]), CoW RAM/bounce
    mappings, deterministic boot replay at zero net virtual cost.
    [Baseline_stale] when the image does not match the requested
    profile or its kernel build id; [Overlay_fault] when the frozen
    disk fails to mount or to take the clone's hostname. *)

val validate :
  image ->
  profile:Hypervisor.Profile.t ->
  version:Linux_guest.Kernel_version.t ->
  (unit, Vmsh.Vmsh_error.t) result
(** Check the image against a session's requested profile and kernel
    version without forking: [Baseline_stale] on any mismatch. *)

val resident : forked -> Hostos.Mem.cow_stats
(** Overlay occupancy of a live fork: every CoW backing in its VMM
    process (guest RAM, bounce buffer) plus its disk overlay, summed.
    [cs_pages_copied] is the clone's private footprint;
    [cs_pages_total - cs_pages_copied] pages are still shared. *)

val build_id : Linux_guest.Kernel_version.t -> string
(** The guest build id a freshly encoded kernel of this version
    embeds — {!validate} compares the image's recorded id against it. *)

val profile_name : image -> string
val version : image -> Linux_guest.Kernel_version.t
val digest : image -> string
(** {!Vmsh.Snapshot.digest} of the baseline at its freeze point. *)

val hostname : image -> string

(** Frozen regions, for tests and oracles that diff a fork against
    its baseline. *)
module Debug : sig
  val ram : image -> Hostos.Mem.frozen
  val disk : image -> Hostos.Mem.frozen
end

val save : image -> path:string -> unit
(** Serialize to [path]: a ["VMSHBASE1"] magic line followed by a
    sparse (non-zero 4 KiB pages only) encoding of the frozen regions. *)

val load : path:string -> (image, Vmsh.Vmsh_error.t) result
(** Read an image back, keeping the stored pages as the frozen
    regions' pages without a copy. [Baseline_stale] on a missing file,
    bad magic, truncation, an unknown kernel version, region lengths
    that disagree with the header or are not page-aligned, and a
    stored page at a negative or out-of-range index, of another length
    than its slot, or stored twice. *)
