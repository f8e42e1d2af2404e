(** Simulated physical memory.

    Physical memory is an array of hardware page frames, each holding real
    byte contents, so that copy-on-write, zero fill and pager backing can be
    verified for data correctness and not just for cost counters.

    Frames own no storage until their first write.  Until then a frame
    reads through one zero image shared by the whole memory; that image is
    read-only — every mutating operation first gives the frame bytes of its
    own.  Zeroing a never-written frame, or copying one, costs no host
    memory, and zeroing a written frame fills its bytes in place.  The
    simulated cost of every operation is charged by the callers, so this
    representation is invisible to the virtual clocks.

    Frames can be declared *absent* to model machines like the SUN 3 whose
    physical address space has large holes (display memory addressable as
    high physical memory, Section 5.1); absent frames exist as addresses but
    have no storage and must never be allocated.  Every accessor raises
    [Invalid_argument "Phys_mem: access to absent frame"] on one. *)

type t
(** A physical memory. *)

type frame = int
(** A physical frame number (pfn). *)

val create : page_size:int -> frames:int -> ?holes:(frame * frame) list -> unit -> t
(** [create ~page_size ~frames ~holes ()] is a memory of [frames] frames of
    [page_size] bytes.  Each [(lo, hi)] in [holes] marks frames [lo..hi]
    inclusive as absent.  [page_size] must be a power of two. *)

val page_size : t -> int
(** [page_size t] is the hardware page size in bytes. *)

val frame_count : t -> int
(** [frame_count t] is the number of frame numbers, including absent
    ones. *)

val frame_exists : t -> frame -> bool
(** [frame_exists t f] is [true] iff [f] is in range and not absent. *)

val present_frames : t -> frame list
(** [present_frames t] lists the frames that are not absent, ascending. *)

val materialized_frames : t -> int
(** [materialized_frames t] is the number of frames that own storage, i.e.
    that have been written at least once.  Never more than the present
    frames. *)

val zero_image_intact : t -> bool
(** [zero_image_intact t] is [true] iff the shared zero image still holds
    only zero bytes; a single stray write to it would corrupt every
    never-written frame at once. *)

val blit_out : t -> frame -> offset:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** [blit_out t f ~offset ~dst ~dst_off ~len] copies [len] bytes of frame
    [f] from [offset] into [dst] at [dst_off].  Both ranges must lie
    within their buffers. *)

val blit_in : t -> frame -> offset:int -> src:Bytes.t -> src_off:int -> len:int -> unit
(** [blit_in t f ~offset ~src ~src_off ~len] copies [len] bytes of [src]
    from [src_off] into frame [f] at [offset].  Both ranges must lie
    within their buffers. *)

val read : t -> frame -> offset:int -> len:int -> Bytes.t
(** [read t f ~offset ~len] copies [len] bytes out of frame [f] starting at
    [offset].  The range must lie within the frame. *)

val write : t -> frame -> offset:int -> Bytes.t -> unit
(** [write t f ~offset data] copies [data] into frame [f] at [offset]. *)

val read_byte : t -> frame -> offset:int -> char
(** [read_byte t f ~offset] is the byte at [offset] in frame [f]. *)

val write_byte : t -> frame -> offset:int -> char -> unit
(** [write_byte t f ~offset c] stores [c] at [offset] in frame [f]. *)

val zero_frame : t -> frame -> unit
(** [zero_frame t f] fills frame [f] with zero bytes (the hardware
    [pmap_zero_page] operation of Table 3-3).  A never-written frame is
    already zero and stays without storage. *)

val copy_frame : t -> src:frame -> dst:frame -> unit
(** [copy_frame t ~src ~dst] copies the contents of [src] into [dst] (the
    hardware [pmap_copy_page] operation of Table 3-3).  Copying a
    never-written [src] is [zero_frame t dst]. *)

val frame_equal : t -> frame -> frame -> bool
(** [frame_equal t a b] is [true] iff frames [a] and [b] hold identical
    bytes; used by tests. *)
