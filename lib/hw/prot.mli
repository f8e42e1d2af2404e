(** Memory protection values.

    Each protection is a combination of read, write and execute permissions
    (Section 2.1 of the paper).  Both the machine-independent layer (current
    and maximum protection per address-map entry) and the hardware layer
    (per-mapping permissions) use this type.  Enforcement of execute depends
    on the simulated hardware: architectures without explicit execute
    permission treat execute as read. *)

type t = private { read : bool; write : bool; execute : bool }

val make : read:bool -> write:bool -> execute:bool -> t
(** [make ~read ~write ~execute] is the corresponding protection. *)

val none : t
(** No access. *)

val read_only : t
(** Read (and, on all simulated architectures, execute-as-read). *)

val read_write : t
(** Read and write. *)

val read_execute : t
(** Read and execute. *)

val all : t
(** Read, write and execute. *)

val is_none : t -> bool
(** [is_none p] is [true] iff [p] permits nothing. *)

val subset : t -> of_:t -> bool
(** [subset p ~of_:q] is [true] iff every permission in [p] is in [q]. *)

val inter : t -> t -> t
(** [inter p q] is the permissions present in both. *)

val union : t -> t -> t
(** [union p q] is the permissions present in either. *)

val remove_write : t -> t
(** [remove_write p] is [p] without write permission; used when entering
    copy-on-write mappings. *)

val allows : t -> write:bool -> bool
(** [allows p ~write] is [true] iff [p] permits the access: a write needs
    write permission, anything else needs read permission. *)

val equal : t -> t -> bool
(** Structural equality. *)

val to_bits : t -> int
(** [to_bits p] packs [p] into three bits: read 1, write 2, execute 4. *)

val of_bits : int -> t
(** [of_bits b] unpacks the low three bits of [b]; it allocates nothing,
    so page tables can store protections as plain ints. *)

val pp : Format.formatter -> t -> unit
(** Prints as e.g. ["rw-"] or ["r-x"]. *)

val to_string : t -> string
(** [to_string p] is [Format.asprintf "%a" pp p]. *)
