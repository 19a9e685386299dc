module Errno = Hostos.Errno

type t =
  | Attach_aborted of t
  | Guest_error of int
  | Guest_fault of string
  | Substrate of Errno.t
  | Injection of string * Errno.t
  | Timeout of int
  | Invalid_config of string
  | Unsupported of string
  | Context of string * t
  | Msg of string
  | Rollback_failed of t
  | Deadline_exceeded of int
  | Baseline_stale of string
  | Overlay_fault of string
  | Guest_misbehavior of string
  | Crash_point of int

exception Error of t

let fail e = raise (Error e)
let substrate what e = Context (what, Substrate e)

let guest_status_note s =
  match
    List.find_opt (fun d -> d.Klib_builder.err_status = s) Klib_builder.devices
  with
  | Some d -> " (" ^ d.note ^ ")"
  | None when s = Klib_builder.status_err_open -> " (opening exec file)"
  | None when s = Klib_builder.status_err_write -> " (writing program)"
  | None when s = Klib_builder.status_err_spawn -> " (spawning process)"
  | None -> ""

let rec to_string = function
  | Attach_aborted e -> "attach aborted: " ^ to_string e
  | Guest_error s ->
      Printf.sprintf "guest library failed with status 0x%x%s" s
        (guest_status_note s)
  | Guest_fault m -> "guest error: " ^ m
  | Substrate e -> Errno.show e
  | Injection (what, e) -> what ^ ": errno " ^ Errno.show e
  | Timeout s -> Printf.sprintf "guest library did not complete (status %d)" s
  | Invalid_config m -> "invalid attach config: " ^ m
  | Unsupported m -> m
  | Context (what, e) -> what ^ ": " ^ to_string e
  | Msg m -> m
  | Rollback_failed e -> "rollback failed: " ^ to_string e
  | Deadline_exceeded ns ->
      Printf.sprintf "virtual-time deadline exceeded after %d ns" ns
  | Baseline_stale m -> "stale baseline image: " ^ m
  | Overlay_fault m -> "overlay fault: " ^ m
  | Guest_misbehavior m -> "guest misbehavior: " ^ m
  | Crash_point k -> Printf.sprintf "crash point at yield %d" k
