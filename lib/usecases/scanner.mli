(** Use case #3 (paper §6.5): the agent-less package security scanner.

    Attaches to an Alpine-style guest, reads the apk package database of
    the *original* system through the overlay, and reports every
    installed package with a version at or below a known-vulnerable
    entry of the security database. *)

type vuln = {
  v_pkg : string;
  installed : string;
  fixed_in : string;
  cve : string;
}

val compare_versions : string -> string -> int
(** Dotted-numeric version comparison ("1.2.10" > "1.2.9"). *)

val parse_apk_db : string -> (string * string) list
(** Parse apk's installed-database format into (package, version). *)

val apk_db_content : (string * string) list -> string
(** Render an installed database (for building test guests). *)

val scan :
  Hostos.Host.t -> vmm:Hypervisor.Vmm.t ->
  ?secdb:(string * string * string) list -> unit ->
  (vuln list, Faults.Abort.verdict) result
(** Attach, read the guest's package DB via the overlay, compare with
    [secdb] (package, first fixed version, CVE id; the default is
    modelled on Alpine's secdb): one {!Usecase.attach}. An unreadable
    database is [Bug (Broken _)]. *)
