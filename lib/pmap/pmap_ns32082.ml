let make_domain (ctx : Backend.ctx) =
  let arch = Backend.arch ctx in
  let page = Backend.page_size ctx in
  (* The first frame not wholly below the physical address limit. *)
  let pfn_limit =
    match arch.Mach_hw.Arch.phys_limit with
    | Some l -> (l + page - 1) / page
    | None -> max_int
  in
  (* The two-level scheme has an always-present top-level table (1 KB for
     a 16 MB space with 64 KB second-level sections). *)
  Table_pmap.make_domain ctx ~kind:Mach_hw.Arch.Ns32082
    ~va_limit:arch.Mach_hw.Arch.user_va_limit ~top_bytes:1024 ~pfn_limit ()
