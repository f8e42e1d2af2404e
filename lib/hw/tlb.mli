(** Per-CPU translation lookaside buffer.

    A small fully-associative cache of (asid, virtual page) to (frame,
    protection) mappings with FIFO replacement.  None of the
    multiprocessors the paper ran on kept TLBs consistent in hardware
    (Section 5.2), so invalidation is entirely software-driven: the pmap
    layer calls the flush operations below, possibly on remote CPUs via the
    machine's shootdown mechanism.

    {b Replacement order.}  Replacement is FIFO by first insertion, with
    one deviation from strict FIFO: invalidating a translation leaves its
    queue slot behind, and if the same (asid, vpn) is inserted again
    before that slot has been passed over by an eviction or dropped by
    the queue's periodic compaction, the new translation takes over the
    old slot rather than joining the tail.  At capacity 2: insert 1,
    insert 2, invalidate 1, insert 1, insert 3 evicts 1 (the re-inserted,
    newest translation) and keeps 2.  Simulated timings depend on this
    order, so it is pinned by tests. *)

type t
(** One CPU's TLB. *)

type entry = { asid : int; vpn : int; pfn : int; prot : Prot.t }
(** A cached translation. *)

(** {1 Packed keys}

    An (asid, virtual page) pair packed into one int, the asid above 40
    bits of vpn.  The TLB keys its translations this way, and the pmap
    layer's pv lists store their entries in the same format. *)

val asid_limit : int
(** [2^22]: asids run over [\[0, asid_limit)]. *)

val in_range : asid:int -> vpn:int -> bool
(** [in_range ~asid ~vpn] is whether the pair fits a key: the asid in
    [\[0, 2^22)] and the vpn in [\[0, 2^40)]. *)

val key : asid:int -> vpn:int -> int
(** [key ~asid ~vpn] packs a pair for which {!in_range} holds. *)

val asid_of : int -> int
val vpn_of : int -> int
(** The asid and virtual page of a key. *)

val create : capacity:int -> t
(** [create ~capacity] is an empty TLB holding at most [capacity] entries.
    A capacity of 0 means the machine has no TLB (every access walks the
    hardware maps, as on the SUN 3). *)

val capacity : t -> int
(** [capacity t] is the entry budget given at creation. *)

val lookup : t -> asid:int -> vpn:int -> entry option
(** [lookup t ~asid ~vpn] is the cached translation, if present.  Updates
    hit/miss statistics. *)

val insert : t -> entry -> unit
(** [insert t e] caches [e], evicting the oldest entry when full and
    replacing any existing entry for the same (asid, vpn).  Raises
    [Invalid_argument] if the asid is not in [\[0, 2^22)] or the vpn not
    in [\[0, 2^40)]. *)

val invalidate_page : t -> asid:int -> vpn:int -> unit
(** [invalidate_page t ~asid ~vpn] drops the entry for one page, if
    cached. *)

val invalidate_range : t -> asid:int -> lo_vpn:int -> hi_vpn:int -> unit
(** [invalidate_range t ~asid ~lo_vpn ~hi_vpn] drops every cached entry of
    [asid] with virtual page in [\[lo_vpn, hi_vpn)]; the batched-shootdown
    unit of invalidation. *)

val invalidate_asid : t -> asid:int -> unit
(** [invalidate_asid t ~asid] drops every entry of one address space. *)

val invalidate_all : t -> unit
(** [invalidate_all t] empties the TLB. *)

val hits : t -> int
(** Number of successful lookups so far. *)

val misses : t -> int
(** Number of failed lookups so far. *)

val entries : t -> entry list
(** Current contents, each translation once, in the order evictions
    would take them (see {b Replacement order} above); used by tests. *)
