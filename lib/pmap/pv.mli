(** Physical-to-virtual mapping tracking and per-frame attribute bits.

    The page-level pmap operations of Table 3-3 ([pmap_remove_all],
    [pmap_copy_on_write]) and the modify/reference-bit maintenance calls
    need to find every virtual mapping of a physical page.  Real pmap
    modules keep "pv lists" for this; here one [Pv.t] per pmap domain maps
    each frame to the (address space, virtual page) pairs currently mapping
    it, and carries the frame's referenced/modified bits, which the
    simulated MMU sets on every translated access.

    A pv entry is one int, packed as {!Mach_hw.Tlb.key} packs a
    translation, so a frame's list holds no records and reading it
    allocates nothing.  Each list is newest first. *)

type t
(** Tracking state for one pmap domain. *)

val create : frames:int -> t
(** [create ~frames] covers physical frames [0 .. frames-1]. *)

val asid_of : int -> int
val vpn_of : int -> int
(** The address space and virtual page of a packed pv entry. *)

val insert : t -> pfn:int -> asid:int -> vpn:int -> unit
(** [insert t ~pfn ~asid ~vpn] records that page [vpn] of [asid] maps
    [pfn], ahead of the frame's older mappings.  Duplicate insertions are
    an error caught by assertion; raises [Invalid_argument] unless
    {!Mach_hw.Tlb.in_range} holds for the pair. *)

val remove : t -> pfn:int -> asid:int -> vpn:int -> unit
(** [remove t ~pfn ~asid ~vpn] forgets the mapping of [pfn] at page [vpn]
    of [asid].  Removing an absent mapping is an error. *)

val mappings : t -> pfn:int -> int list
(** [mappings t ~pfn] is every current mapping of [pfn], packed, newest
    first. *)

val mapping_count : t -> pfn:int -> int
(** [mapping_count t ~pfn] is [List.length (mappings t ~pfn)]. *)

val mapped_by : t -> pfn:int -> asid:int -> bool
(** [mapped_by t ~pfn ~asid] is whether any page of [asid] maps [pfn]. *)

val set_referenced : t -> pfn:int -> unit
val set_modified : t -> pfn:int -> unit

val is_referenced : t -> pfn:int -> bool
(** Whether any access touched the frame since the last clear. *)

val is_modified : t -> pfn:int -> bool
(** Whether any write touched the frame since the last clear. *)

val clear_referenced : t -> pfn:int -> unit
val clear_modified : t -> pfn:int -> unit
