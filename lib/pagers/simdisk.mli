(** A simulated block device.

    Stores block contents in memory but charges every transfer to the
    machine's clock with the architecture's disk cost model (fixed latency
    per operation plus a per-KB transfer cost).  Both the Mach inode-pager
    equivalent and the BSD buffer cache sit on one of these, so their I/O
    costs are directly comparable.

    When the machine's asynchronous disk model is on
    ([Machine.set_disk_async]), every transfer can also be {e submitted}:
    the request enters one of the device's service queues, gets a virtual
    completion stamp, and the submitting CPU only pays the {e remaining}
    device time when it later {!wait}s — device time that elapsed while
    the CPU kept computing is overlap, tracked in [Machine.stats].  With
    the async model off, submit-then-wait degenerates to exactly the
    classical synchronous charge, cycle for cycle. *)

type t

exception Io_error of { write : bool; block : int }
(** A transfer failed even after the driver's internal retries; only
    possible when a fault injector is attached. *)

val create : ?queues:int -> Mach_hw.Machine.t -> block_size:int -> t
(** [create machine ~block_size] is an empty disk with one service queue;
    [?queues] (default 1) builds that many independent queues, and
    requests are spread over them by submitting CPU ([cpu mod queues]) so
    a multiprocessor can keep several spindles busy. *)

val set_injector : t -> Mach_fail.Fail.t option -> unit
(** [set_injector t (Some inj)] makes every transfer consult [inj] at
    site ["disk.read"]/["disk.write"]: [Delay] charges extra cycles and
    proceeds; any failure decision costs a wasted (charged) transfer of
    the {e full run length} and an internal retry, up to 3 attempts, then
    raises {!Io_error}.  Injection decisions are always consumed at
    submit time, so a chaos seed replays identically whether or not the
    async model is on.  Failed and retried transfers are counted in
    {!errors}/{!retries} and mirrored into [Machine.stats]
    ([disk_errors]/[disk_retries]); with no injector attached a transfer
    performs no extra work at all. *)

val block_size : t -> int

val read : t -> cpu:int -> block:int -> Bytes.t
(** [read t ~cpu ~block] returns the block's contents (zeros if never
    written), charging disk cost to [cpu]. *)

val write : t -> cpu:int -> block:int -> Bytes.t -> unit
(** [write t ~cpu ~block data] stores [data] (at most one block),
    charging disk cost. *)

val read_run : t -> cpu:int -> first:int -> count:int -> Bytes.t
(** [read_run t ~cpu ~first ~count] reads [count] consecutive blocks as
    {e one} disk request: the fixed seek/rotational latency is paid once
    for the run, plus the per-KB transfer cost for all of it — this is
    what makes clustered pagein cheaper than [count] single reads.
    [count = 1] is exactly {!read}.  Counters account one read per
    block. *)

val write_run : t -> cpu:int -> first:int -> Bytes.t -> unit
(** [write_run t ~cpu ~first data] writes [data] (a non-empty whole
    number of blocks) across consecutive blocks starting at [first] as
    one disk request, with the same amortised cost model as
    {!read_run}. *)

(** {1 Asynchronous submit/wait} *)

type handle
(** An in-flight (or completed) transfer.  The data is available
    immediately — the simulation keeps it in host memory — but the
    simulated device is busy until the handle's completion stamp. *)

val submit_read_run : t -> cpu:int -> first:int -> count:int -> handle
(** Queue the run on the device and return without blocking.  With the
    async model off this charges synchronously (identical to
    {!read_run}) and returns an already-complete handle. *)

val submit_write_run : t -> cpu:int -> first:int -> Bytes.t -> handle
(** Queue a write run; the block store is updated at submit. *)

val wait : t -> cpu:int -> handle -> Bytes.t
(** Block the CPU until the transfer completes, charging only the
    {e remaining} cycles (zero if the device already finished), and
    return the data.  Waiting a handle twice charges nothing more and
    counts no further overlap. *)

val handle_data : handle -> Bytes.t
(** The transfer's data without waiting (empty for writes). *)

val handle_completion : handle -> int
(** Absolute cycle stamp at which the device finishes the transfer. *)

val handle_service : handle -> int
(** Device cycles the request occupies; zero once waited. *)

val install : t -> block:int -> Bytes.t -> unit
(** [install t ~block data] stores data without charging the clock or the
    operation counters; used to populate disks during benchmark setup. *)

val reads : t -> int
(** Blocks read (each block of a clustered run counts). *)

val writes : t -> int
(** Blocks written (each block of a clustered run counts). *)

val errors : t -> int
(** Injected transfer failures (each failed attempt counts). *)

val retries : t -> int
(** Failed transfers retried internally. *)

val reset_counters : t -> unit
