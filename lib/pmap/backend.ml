(* Shared context for pmap implementations within one domain.

   Holds what every architecture's pmap module needs: the machine (for
   cycle charging and TLB shootdowns), the physical-to-virtual tracking,
   asid allocation, and the CPU currently executing kernel code (set by the
   kernel on every entry, so pmap costs land on the right clock). *)

open Mach_hw

(* The flush accumulator's tables keyed by asid.  They hash as the
   polymorphic [Hashtbl] does, so they iterate in the same order: the
   order of the requests in a batch of several asids follows from it. *)
module Asid_tbl = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

(* Tables keyed by small, mostly consecutive ints (asids, table-page
   indices), which are their own hash: a lookup calls no C hash. *)
module Int_tbl = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash i = i land max_int
  end)

(* Above this many distinct pages of one asid, a batch flushes the whole
   address space rather than shooting page by page. *)
let flush_whole_space_threshold = 8

(* The distinct pages of one asid collected by an open batch, sorted.
   Once a [(threshold + 1)]th distinct page arrives the set stops
   growing: [count > flush_whole_space_threshold] means "flush the whole
   space".  The first asid of every batch gets the accumulator's own set;
   a flushed batch hands any others back to its spares, so a new batch
   reuses them instead of allocating. *)
type pages = { mutable asid : int; mutable count : int; vpns : int array }

let no_pages = { asid = -1; count = 0; vpns = [||] }

let new_pages asid =
  { asid; count = 0; vpns = Array.make flush_whole_space_threshold 0 }

(* Accumulator for flush batching.  While a batch is open (depth > 0),
   page and asid shootdowns are collected here instead of being issued
   one exchange at a time; the outermost [end_batch] turns the lot into
   a single [Machine.shootdown_batch] — one IPI round per target CPU for
   the whole operation.  A batch that only ever sees one asid's pages,
   the common case, keeps them in [first] alone; [page_vpns] is filled
   once a second asid arrives or a whole-space flush joins. *)
type batch = {
  mutable depth : int;
  page_vpns : pages Asid_tbl.t;               (* asid -> pages collected *)
  whole_asids : unit Asid_tbl.t;              (* asids flushed wholesale *)
  first : pages;                              (* the first asid's pages *)
  mutable last : pages;                       (* last page set added to *)
  mutable spares : pages list;                (* sets free for reuse *)
  b_targets : bool array;                     (* union of presences *)
  mutable b_urgent : bool;                    (* OR of urgency at collect *)
}

type ctx = {
  machine : Machine.t;
  pv : Pv.t;
  mutable next_asid : int;
  mutable cur_cpu : int;
  mutable urgent_mode : bool;
      (* Set by the domain around pageout-style operations: all shootdowns
         become time-critical (case 1 of Section 5.2) regardless of the
         machine's configured strategy. *)
  mutable batching : bool;
      (* When false, open batches accumulate nothing and every shootdown
         goes out as its own exchange; the Section 5.2 benchmark uses this
         to measure the unbatched baseline. *)
  batch : batch;
}

(* Which CPUs a pmap is active on now, and which may still cache its
   translations (shootdown targets). *)
type presence = { active : bool array; ran_on : bool array }

let create machine =
  let frames = Phys_mem.frame_count (Machine.phys machine) in
  { machine; pv = Pv.create ~frames; next_asid = 1; cur_cpu = 0;
    urgent_mode = false; batching = true;
    batch =
      { depth = 0; page_vpns = Asid_tbl.create 8;
        whole_asids = Asid_tbl.create 8; first = new_pages (-1);
        last = no_pages;
        spares = [];
        b_targets = Array.make (Machine.cpu_count machine) false;
        b_urgent = false } }

let arch ctx = Machine.arch ctx.machine
let page_size ctx = (arch ctx).Arch.hw_page_size
let cost ctx = (arch ctx).Arch.cost
let charge ctx c = Machine.charge ctx.machine ~cpu:ctx.cur_cpu c

(* Asids are never reused, and TLB and pv keys hold them in 22 bits
   ([Tlb.asid_limit]): a domain creates at most [Tlb.asid_limit - 1]
   pmaps, and the next creation fails rather than a later insert. *)
let fresh_asid ctx =
  let a = ctx.next_asid in
  if a >= Tlb.asid_limit then invalid_arg "pmap_create: asids exhausted";
  ctx.next_asid <- a + 1;
  a

let fresh_presence ctx =
  let n = Machine.cpu_count ctx.machine in
  { active = Array.make n false; ran_on = Array.make n false }

(* The CPUs other than the initiator marked in [cpus], ascending: the
   machine flushes the initiator itself in any case, so a change cached
   only where it is made builds no list. *)
let remote_targets ctx cpus =
  let acc = ref [] in
  for i = Array.length cpus - 1 downto 0 do
    if cpus.(i) && i <> ctx.cur_cpu then acc := i :: !acc
  done;
  !acc

let shoot ctx p req ~urgent =
  Machine.shootdown ctx.machine ~initiator:ctx.cur_cpu
    ~targets:(remote_targets ctx p.ran_on) req
    ~urgent:(urgent || ctx.urgent_mode)

(* --- Flush batching --------------------------------------------------- *)

let set_batching ctx on = ctx.batching <- on

let accumulating ctx = ctx.batching && ctx.batch.depth > 0

let begin_batch ctx = ctx.batch.depth <- ctx.batch.depth + 1

let add_targets b p =
  for i = 0 to Array.length p.ran_on - 1 do
    if p.ran_on.(i) then b.b_targets.(i) <- true
  done

let add_page pages vpn =
  let n = pages.count and v = pages.vpns in
  if n <= flush_whole_space_threshold then begin
    let i = ref 0 in
    while !i < n && v.(!i) < vpn do incr i done;
    let i = !i in
    if i = n || v.(i) <> vpn then begin
      if n < flush_whole_space_threshold then begin
        Array.blit v i v (i + 1) (n - i);
        v.(i) <- vpn
      end;
      pages.count <- n + 1
    end
  end

(* Turn one asid's collected pages into requests: coalesce adjacent pages
   into ranges; past the threshold flush the whole space. *)
let requests_of_asid pages acc =
  let asid = pages.asid in
  if pages.count > flush_whole_space_threshold then
    Machine.Flush_asid asid :: acc
  else begin
    let v = pages.vpns and n = pages.count in
    let emit lo hi acc =
      if hi = lo + 1 then Machine.Flush_page { asid; vpn = lo } :: acc
      else Machine.Flush_range { asid; lo_vpn = lo; hi_vpn = hi } :: acc
    in
    let rec go i lo hi acc =
      if i = n then emit lo hi acc
      else if v.(i) = hi then go (i + 1) lo (hi + 1) acc
      else go (i + 1) v.(i) (v.(i) + 1) (emit lo hi acc)
    in
    if n = 0 then acc else go 1 v.(0) (v.(0) + 1) acc
  end

let page_set b asid =
  match b.spares with
  | [] -> new_pages asid
  | pages :: rest ->
    b.spares <- rest;
    pages.asid <- asid;
    pages.count <- 0;
    pages

let release b pages = if pages != b.first then b.spares <- pages :: b.spares

(* Move a batch's lone page set into [page_vpns], where the other asids'
   sets join it in the order they arrived. *)
let spill b =
  if b.last != no_pages && Asid_tbl.length b.page_vpns = 0 then
    Asid_tbl.add b.page_vpns b.last.asid b.last

(* The batch's remote targets, clearing them for the next batch. *)
let take_targets ctx b =
  let targets = remote_targets ctx b.b_targets in
  Array.fill b.b_targets 0 (Array.length b.b_targets) false;
  targets

(* Requests come out in [Asid_tbl] order: whole-space flushes first, then
   each other asid's pages.  An empty batch issues nothing.  A batch of
   one asid's pages, [b.first] alone, walks no table, and one page of it
   is a plain [Machine.shootdown] that builds no request list.  In the
   perfbench workloads every non-empty batch is of one asid, and in
   [overcommit] and [fork_compile] nearly all are of one page (see
   doc/ARCHITECTURE.md for the measured shares). *)
let flush_batch ctx =
  let b = ctx.batch and initiator = ctx.cur_cpu in
  let urgent = b.b_urgent in
  b.b_urgent <- false;
  if Asid_tbl.length b.page_vpns = 0 && Asid_tbl.length b.whole_asids = 0
  then begin
    let pages = b.last in
    if pages != no_pages then begin
      b.last <- no_pages;
      let targets = take_targets ctx b in
      if pages.count = 1 then
        Machine.shootdown ctx.machine ~initiator ~targets
          (Machine.Flush_page { asid = pages.asid; vpn = pages.vpns.(0) })
          ~urgent
      else
        Machine.shootdown_batch ctx.machine ~initiator ~targets
          (requests_of_asid pages []) ~urgent
    end
  end
  else begin
    spill b;
    Asid_tbl.iter (fun _ pages -> release b pages) b.page_vpns;
    let reqs =
      Asid_tbl.fold
        (fun asid pages acc ->
           if Asid_tbl.mem b.whole_asids asid then acc
           else requests_of_asid pages acc)
        b.page_vpns
        (Asid_tbl.fold
           (fun asid () acc -> Machine.Flush_asid asid :: acc)
           b.whole_asids [])
    in
    Asid_tbl.reset b.page_vpns;
    Asid_tbl.reset b.whole_asids;
    b.last <- no_pages;
    Machine.shootdown_batch ctx.machine ~initiator
      ~targets:(take_targets ctx b) reqs ~urgent
  end

let end_batch ctx =
  let b = ctx.batch in
  if b.depth <= 0 then invalid_arg "Backend.end_batch: no open batch";
  b.depth <- b.depth - 1;
  if b.depth = 0 then flush_batch ctx

(* Run [f ()] inside a batch, closing it even on exceptions. *)
let batched ctx f =
  begin_batch ctx;
  match f () with
  | v ->
    end_batch ctx;
    v
  | exception e ->
    end_batch ctx;
    raise e

let shoot_page ctx p ~asid ~vpn =
  if accumulating ctx then begin
    let b = ctx.batch in
    (* Range operations shoot run after run of one asid's pages. *)
    if b.last == no_pages then begin
      b.first.asid <- asid;
      b.first.count <- 0;
      b.last <- b.first
    end
    else if b.last.asid <> asid then begin
      spill b;
      b.last <-
        (match Asid_tbl.find b.page_vpns asid with
         | pages -> pages
         | exception Not_found ->
           let pages = page_set b asid in
           Asid_tbl.add b.page_vpns asid pages;
           pages)
    end;
    add_page b.last vpn;
    add_targets b p;
    if ctx.urgent_mode then b.b_urgent <- true
  end
  else shoot ctx p (Machine.Flush_page { asid; vpn }) ~urgent:false

let shoot_asid ctx p ~asid =
  if accumulating ctx then begin
    let b = ctx.batch in
    Asid_tbl.replace b.whole_asids asid ();
    add_targets b p;
    if ctx.urgent_mode then b.b_urgent <- true
  end
  else shoot ctx p (Machine.Flush_asid asid) ~urgent:false

let activate ctx p tr ~cpu =
  p.active.(cpu) <- true;
  p.ran_on.(cpu) <- true;
  Machine.set_translator ctx.machine ~cpu (Some tr)

let deactivate ctx p tr ~cpu =
  p.active.(cpu) <- false;
  if Machine.active_asid ctx.machine ~cpu = Some tr.Translator.asid then
    Machine.set_translator ctx.machine ~cpu None

let pv_insert ctx ~pfn ~asid ~vpn = Pv.insert ctx.pv ~pfn ~asid ~vpn

let pv_remove ctx ~pfn ~asid ~vpn = Pv.remove ctx.pv ~pfn ~asid ~vpn

(* Charge for zeroing or copying [bytes] of memory. *)
let move_cost ctx bytes = ((bytes + 15) / 16) * (cost ctx).Arch.move_16b

(* [pmap_enter] of a frame run for backends that enter frame by frame:
   [enter_frame] once per hardware page, in ascending order. *)
let each_frame ctx ~va ~pfn ~frames enter_frame =
  let page = page_size ctx in
  for i = 0 to frames - 1 do
    enter_frame ~va:(va + (i * page)) ~pfn:(pfn + i)
  done

(* What each architecture module hands the domain: a pmap constructor plus
   an accounting of hardware structures shared by all pmaps (the RT PC's
   single inverted page table, the SUN 3's context mapping RAM). *)
type factory = {
  new_pmap : unit -> Pmap.t;
  shared_map_bytes : unit -> int;
}
