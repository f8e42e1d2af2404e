let make_domain (ctx : Backend.ctx) =
  Table_pmap.make_domain ctx ~kind:Mach_hw.Arch.Vax
    ~va_limit:(Backend.arch ctx).Mach_hw.Arch.user_va_limit ~top_bytes:0 ()
