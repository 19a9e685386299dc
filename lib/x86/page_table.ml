type access = { read_u64 : int -> int; write_u64 : int -> int -> unit }

module Flags = struct
  let present = 0x1
  let writable = 0x2
  let user = 0x4
  let huge = 0x80
  let all = 0xfff
end

type alloc = unit -> int

let entry ~phys ~flags =
  assert (phys land Flags.all = 0);
  phys lor (flags land Flags.all)

let entry_phys e = e land lnot Flags.all
let entry_flags e = e land Flags.all
let is_present e = e land Flags.present <> 0

let index ~level va = (va lsr (12 + (9 * level))) land 0x1ff
let huge_size = 1 lsl 21

(* Returns the physical address of the next-level table referenced by the
   entry at [slot] in the table at [table_pa], allocating it if absent. *)
let descend acc ~alloc ~table_pa ~slot =
  let pa = table_pa + (8 * slot) in
  let e = acc.read_u64 pa in
  if is_present e then entry_phys e
  else begin
    let fresh = alloc () in
    acc.write_u64 pa (entry ~phys:fresh ~flags:(Flags.present lor Flags.writable));
    fresh
  end

let map_page acc ~alloc ~root ~virt ~phys ~flags =
  if virt land (Layout.page_size - 1) <> 0 then
    invalid_arg "Page_table.map_page: virt not page aligned";
  if phys land (Layout.page_size - 1) <> 0 then
    invalid_arg "Page_table.map_page: phys not page aligned";
  let l3 = descend acc ~alloc ~table_pa:root ~slot:(index ~level:3 virt) in
  let l2 = descend acc ~alloc ~table_pa:l3 ~slot:(index ~level:2 virt) in
  let l1 = descend acc ~alloc ~table_pa:l2 ~slot:(index ~level:1 virt) in
  acc.write_u64 (l1 + (8 * index ~level:0 virt)) (entry ~phys ~flags)

let map_huge acc ~alloc ~root ~virt ~phys ~flags =
  let l3 = descend acc ~alloc ~table_pa:root ~slot:(index ~level:3 virt) in
  let l2 = descend acc ~alloc ~table_pa:l3 ~slot:(index ~level:2 virt) in
  acc.write_u64
    (l2 + (8 * index ~level:1 virt))
    (entry ~phys ~flags:(flags lor Flags.huge))

let map_range acc ~alloc ~root ~virt ~phys ~len ~flags =
  let rec go virt phys remaining =
    if remaining > 0 then
      if
        virt land (huge_size - 1) = 0
        && phys land (huge_size - 1) = 0
        && remaining >= huge_size
      then begin
        map_huge acc ~alloc ~root ~virt ~phys ~flags;
        go (virt + huge_size) (phys + huge_size) (remaining - huge_size)
      end
      else begin
        map_page acc ~alloc ~root ~virt ~phys ~flags;
        go (virt + Layout.page_size) (phys + Layout.page_size)
          (remaining - Layout.page_size)
      end
  in
  let len = (len + Layout.page_size - 1) land lnot (Layout.page_size - 1) in
  go virt phys len

let translate acc ~root va =
  let step table_pa level =
    let e = acc.read_u64 (table_pa + (8 * index ~level va)) in
    if is_present e then Some e else None
  in
  match step root 3 with
  | None -> None
  | Some e3 -> (
      match step (entry_phys e3) 2 with
      | None -> None
      | Some e2 -> (
          match step (entry_phys e2) 1 with
          | None -> None
          | Some e1 ->
              if entry_flags e1 land Flags.huge <> 0 then
                Some (entry_phys e1 + (va land (huge_size - 1)))
              else
                match step (entry_phys e1) 0 with
                | None -> None
                | Some e0 ->
                    Some (entry_phys e0 + (va land (Layout.page_size - 1)))))

let iter_present acc ~root ~f =
  let each_entry table_pa k =
    for slot = 0 to 511 do
      let e = acc.read_u64 (table_pa + (8 * slot)) in
      if is_present e then k slot e
    done
  in
  each_entry root (fun s3 e3 ->
      each_entry (entry_phys e3) (fun s2 e2 ->
          each_entry (entry_phys e2) (fun s1 e1 ->
              let base = (s3 lsl 39) lor (s2 lsl 30) lor (s1 lsl 21) in
              if entry_flags e1 land Flags.huge <> 0 then
                f ~virt:base ~phys:(entry_phys e1) ~huge:true
              else
                each_entry (entry_phys e1) (fun s0 e0 ->
                    f ~virt:(base lor (s0 lsl 12)) ~phys:(entry_phys e0)
                      ~huge:false))))
