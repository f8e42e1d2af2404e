(** The user-visible virtual memory operations of Table 2-1.

    All operations apply to a target task and specify addresses and sizes
    in bytes; regions must be aligned on system page boundaries (sizes are
    rounded up, addresses truncated, as in Mach).  Each call charges the
    architecture's system-call cost. *)

type statistics = {
  vs_page_size : int;
  vs_pages_total : int;
  vs_pages_free : int;
  vs_pages_active : int;
  vs_pages_inactive : int;
  vs_faults : int;
  vs_zero_fills : int;
  vs_cow_copies : int;
  vs_pager_reads : int;
  vs_pageouts : int;
  vs_reactivations : int;
  vs_object_cache_hits : int;
  vs_object_cache_misses : int;
  vs_pager_retries : int;
  vs_pager_deaths : int;
  vs_rescued_pages : int;
  vs_pageout_failures : int;
  vs_memory_errors : int;
  vs_prefetch_issued : int;
  vs_prefetch_hits : int;
  vs_prefetch_wasted : int;
  vs_stream_hits : int;
  vs_stream_resets : int;
  vs_free_behind_pages : int;
  vs_clustered_pageouts : int;
  vs_lock_stalls : int;
  vs_lock_stall_cycles : int;
  vs_burst_faults : int;
  vs_burst_mapped : int;
  vs_alloc_waits : int;
  vs_alloc_wait_cycles : int;
  vs_swap_full_failures : int;
  vs_oom_kills : int;
  vs_swap_used : int;
  vs_swap_capacity : int option;
  vs_shadows_created : int;
  vs_collapses : int;
  vs_fast_reloads : int;
  vs_rmw_bug_upgrades : int;
  vs_pager_failures : int;
  vs_pcpu_hits : int;
  vs_pcpu_refills : int;
  vs_page_steals : int;
}
(** What [vm_statistics] reports.  [vs_pager_retries] through
    [vs_memory_errors] are the failure counters: pager retries after
    transient errors, pagers declared dead, dirty pages rescued to the
    default pager at death, pageout writes that failed (page kept
    dirty), and faults that concluded [KERN_MEMORY_ERROR].  The
    clustering counters: pages brought in by read-ahead, how many of
    those were later referenced / reclaimed untouched, pager misses
    matched to an existing read-ahead stream slot, live stream slots
    recycled for a new reader, clean pages deactivated behind a ramped
    stream's cursor (free-behind), and multi-page pageout writes.  [vs_lock_stalls]/[vs_lock_stall_cycles]
    count contended memory-object lock acquisitions and the cycles lost
    to them (zero on one CPU); [vs_burst_faults]/[vs_burst_mapped] count
    resident faults that burst-mapped neighbour pages and how many
    neighbours they mapped.  The memory-pressure counters:
    [vs_alloc_waits]/[vs_alloc_wait_cycles] are allocations that had to
    wait on the pageout daemon and the cycles spent waiting,
    [vs_swap_full_failures] pageout writes refused by a full swap pool,
    [vs_oom_kills] tasks killed by the out-of-memory policy.
    [vs_swap_used] is the backing-store bytes occupied;
    [vs_swap_capacity] the configured limit ([None] = unbounded).
    [vs_shadows_created] through [vs_pager_failures] are the object
    machinery counters: shadow objects interposed by copy-on-write,
    shadow chains collapsed away, faults resolved from a still-resident
    page without pager traffic, read-modify-write protection upgrades,
    and pager requests that returned errors.  The allocator counters
    describe the per-CPU magazines in front of the shared free queue:
    [vs_pcpu_hits]/[vs_pcpu_refills] are magazine hits and batch refill
    trips to the shared queue, and [vs_page_steals] pages stolen from
    another CPU's magazine when the shared queue ran dry.  All are zero
    with magazines off (the default). *)

val allocate :
  Vm_sys.t -> Task.t -> ?at:int -> size:int -> anywhere:bool -> unit ->
  (int, Kr.t) result
(** [vm_allocate]: allocate and fill with zeros new virtual memory, either
    anywhere or at a specified address. *)

val allocate_with_pager :
  Vm_sys.t -> Task.t -> pager:Types.pager -> offset:int -> ?at:int ->
  size:int -> anywhere:bool -> ?copy:bool -> unit -> (int, Kr.t) result
(** [vm_allocate_with_pager] (Table 3-2): allocate a region backed by a
    memory object managed by [pager].  [offset] must be page aligned.
    [copy:true] maps it copy-on-write. *)

val deallocate :
  Vm_sys.t -> Task.t -> addr:int -> size:int -> (unit, Kr.t) result
(** [vm_deallocate]: make a range of addresses no longer valid. *)

val protect :
  Vm_sys.t -> Task.t -> addr:int -> size:int -> set_max:bool ->
  prot:Mach_hw.Prot.t -> (unit, Kr.t) result
(** [vm_protect]: set the protection attribute of an address range. *)

val inherit_ :
  Vm_sys.t -> Task.t -> addr:int -> size:int -> Inheritance.t ->
  (unit, Kr.t) result
(** [vm_inherit]: set the inheritance attribute of an address range. *)

val copy :
  Vm_sys.t -> Task.t -> src:int -> dst:int -> size:int ->
  (unit, Kr.t) result
(** [vm_copy]: virtually copy a range of memory from one address to
    another — object references and copy-on-write, never data.  The
    destination range is replaced. *)

val read :
  Vm_sys.t -> Task.t -> addr:int -> size:int -> (Bytes.t, Kr.t) result
(** [vm_read]: read the contents of a region of a task's address space
    (faulting pages in as needed). *)

val write :
  Vm_sys.t -> Task.t -> addr:int -> data:Bytes.t -> (unit, Kr.t) result
(** [vm_write]: write the contents of a region of a task's address
    space. *)

val regions : Vm_sys.t -> Task.t -> Vm_map.region_info list
(** [vm_regions]: describe the allocated regions of the task's space. *)

val statistics : Vm_sys.t -> statistics
(** [vm_statistics]: system-wide memory statistics. *)
