(* Generic pmap built from lazily-constructed linear page tables.

   The VAX keeps page tables in physical memory; the solution the paper
   chose "was to keep page tables in physical memory, but only to construct
   those parts of the table which were needed to actually map virtual to
   real addresses for pages currently in use" (Section 5.1).  The NS32082
   uses two-level tables with the same character plus hard virtual and
   physical address limits.  Both are instances of this module: a hash of
   page-table pages, each covering [ptes_per_page] consecutive virtual
   pages, created on first use and garbage collected when empty. *)

open Mach_hw

(* A pte is one int: frame number above five flag bits, so a table page
   is a flat int array and reading a pte allocates nothing.  0 is the
   invalid pte. *)
let prot_mask = 0b111       (* Prot.to_bits *)
let valid_bit = 0b1000
let wired_bit = 0b10000
let pfn_shift = 5

let make_pte ~pfn ~prot ~wired =
  (pfn lsl pfn_shift) lor valid_bit
  lor (if wired then wired_bit else 0)
  lor Prot.to_bits prot

let pte_valid pte = pte land valid_bit <> 0
let pte_wired pte = pte land wired_bit <> 0
let pte_pfn pte = pte lsr pfn_shift
let pte_prot pte = Prot.of_bits pte

type tpage = { ptes : int array; mutable valid_count : int }

(* Stands for an absent table page, so a lookup allocates no option. *)
let no_tpage = { ptes = [||]; valid_count = 0 }

(* The table-page directory is keyed by table-page index (vpn divided by
   ptes per page). *)
module Tpages = Backend.Int_tbl

(* [pfn_limit] is the first frame the hardware cannot map. *)
let make_pmap (ctx : Backend.ctx) ~kind ~va_limit ~top_bytes ~pfn_limit =
  let asid = Backend.fresh_asid ctx in
  let stats = Pmap.fresh_stats () in
  let presence = Backend.fresh_presence ctx in
  let page = Backend.page_size ctx in
  let pte_bytes = (Backend.arch ctx).Arch.pte_bytes in
  let ptes_per_page = page / pte_bytes in
  let tables : tpage Tpages.t = Tpages.create 16 in
  let resident = ref 0 in

  (* The last table page looked up, present or not: consecutive pages
     mostly share one, so most lookups need no hashing. *)
  let cached_idx = ref min_int and cached_tp = ref no_tpage in
  let find_tpage idx =
    if idx <> !cached_idx then begin
      cached_idx := idx;
      cached_tp :=
        (match Tpages.find tables idx with
         | tp -> tp
         | exception Not_found -> no_tpage)
    end;
    !cached_tp
  in
  let pte_at vpn =
    let tp = find_tpage (vpn / ptes_per_page) in
    if tp == no_tpage then 0 else tp.ptes.(vpn mod ptes_per_page)
  in
  let create_tpage idx =
    (* Constructing a page-table page costs a page zero. *)
    Backend.charge ctx (Backend.move_cost ctx page);
    let tp = { ptes = Array.make ptes_per_page 0; valid_count = 0 } in
    Tpages.add tables idx tp;
    cached_idx := idx;
    cached_tp := tp;
    tp
  in
  let drop_tpage idx =
    Tpages.remove tables idx;
    if idx = !cached_idx then cached_tp := no_tpage
  in

  (* Invalidate the pte of [vpn], slot [i] of [tp]; the caller decides how
     to flush. *)
  let invalidate_pte vpn tp i =
    let pte = tp.ptes.(i) in
    assert (pte_valid pte);
    tp.ptes.(i) <- 0;
    Backend.pv_remove ctx ~pfn:(pte_pfn pte) ~asid ~vpn;
    Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
    decr resident;
    stats.Pmap.removals <- stats.Pmap.removals + 1;
    tp.valid_count <- tp.valid_count - 1;
    if tp.valid_count = 0 then drop_tpage (vpn / ptes_per_page)
  in

  (* Install a pte for [vpn] in [tp], or in a new table page when [tp]
     is [no_tpage]. *)
  let install tp vpn ~pfn ~prot ~wired =
    let tp =
      if tp == no_tpage then create_tpage (vpn / ptes_per_page) else tp
    in
    let i = vpn mod ptes_per_page in
    assert (not (pte_valid tp.ptes.(i)));
    tp.ptes.(i) <- make_pte ~pfn ~prot ~wired;
    tp.valid_count <- tp.valid_count + 1;
    incr resident;
    Backend.pv_insert ctx ~pfn ~asid ~vpn
  in

  (* TLBs need invalidating only when a previously valid translation
     changes; fresh entries cannot be cached anywhere. *)
  let enter_frame vpn ~pfn ~prot ~wired =
    let idx = vpn / ptes_per_page and i = vpn mod ptes_per_page in
    let tp = find_tpage idx in
    if tp == no_tpage || not (pte_valid tp.ptes.(i)) then
      install tp vpn ~pfn ~prot ~wired
    else if pte_pfn tp.ptes.(i) = pfn then begin
      (* Same frame: update protection in place. *)
      tp.ptes.(i) <- make_pte ~pfn ~prot ~wired;
      Backend.shoot_page ctx presence ~asid ~vpn
    end
    else begin
      invalidate_pte vpn tp i;
      Backend.shoot_page ctx presence ~asid ~vpn;
      (* The table page is gone if that was its last valid pte. *)
      install (find_tpage idx) vpn ~pfn ~prot ~wired
    end;
    Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
    stats.Pmap.enters <- stats.Pmap.enters + 1
  in

  (* A run is checked against the hardware limits once: the frames up to
     the first one out of range are entered, then that one raises.  The
     run's frames share their table pages, so after its first frame a
     lookup mostly hits [find_tpage]'s last page. *)
  let enter ~va ~pfn ~frames ~prot ~wired =
    (* How many leading frames lie below each limit. *)
    let in_va =
      if va < 0 then 0
      else min frames (max 0 ((va_limit - va + page - 1) / page))
    and in_pa = min frames (max 0 (pfn_limit - pfn)) in
    let vpn0 = va / page and ok = min in_va in_pa in
    for i = 0 to ok - 1 do
      enter_frame (vpn0 + i) ~pfn:(pfn + i) ~prot ~wired
    done;
    if ok < frames then
      invalid_arg
        (if in_va <= in_pa then
           "pmap_enter: virtual address beyond hardware limit"
         else "pmap_enter: physical page beyond hardware limit")
  in

  (* Visit the valid ptes whose vpn lies in [lo, hi) in ascending vpn
     order as [f vpn tp i]; [f] may invalidate the pte.  Walk whichever
     side is smaller: the table pages covering the range, looked up one
     by one, or the table pages that exist, sorted, so sparse spaces and
     whole-space sweeps stay cheap. *)
  let iter_valid_in_range lo hi f =
    let visit idx =
      let tp = find_tpage idx in
      if tp != no_tpage then begin
        let first_vpn = idx * ptes_per_page in
        for i = max 0 (lo - first_vpn)
            to min ptes_per_page (hi - first_vpn) - 1 do
          if pte_valid tp.ptes.(i) then f (first_vpn + i) tp i
        done
      end
    in
    if lo < hi then begin
      let lo_idx = lo / ptes_per_page and hi_idx = (hi - 1) / ptes_per_page in
      if hi_idx - lo_idx < Tpages.length tables then
        for idx = lo_idx to hi_idx do visit idx done
      else
        Tpages.fold
          (fun idx _ acc ->
             if idx >= lo_idx && idx <= hi_idx then idx :: acc else acc)
          tables []
        |> List.sort Int.compare
        |> List.iter visit
    end
  in

  (* The batch accumulator coalesces the per-page shootdowns into one
     exchange (and promotes to a whole-space flush past the threshold);
     with batching off each page goes out as its own shootdown.  One page
     goes straight to its pte: its shootdown alone is what a batch of it
     would issue. *)
  let range_op ~start_va ~end_va f =
    let lo = start_va / page in
    let hi = (end_va + page - 1) / page in
    if hi = lo + 1 && lo >= 0 then begin
      let tp = find_tpage (lo / ptes_per_page) and i = lo mod ptes_per_page in
      if tp != no_tpage && pte_valid tp.ptes.(i) then begin
        f lo tp i;
        Backend.shoot_page ctx presence ~asid ~vpn:lo
      end
    end
    else
      Backend.batched ctx (fun () ->
          iter_valid_in_range lo hi (fun vpn tp i ->
              f vpn tp i;
              Backend.shoot_page ctx presence ~asid ~vpn))
  in

  let remove ~start_va ~end_va =
    range_op ~start_va ~end_va invalidate_pte
  in

  let protect ~start_va ~end_va ~prot =
    stats.Pmap.protect_ops <- stats.Pmap.protect_ops + 1;
    let keep = lnot prot_mask lor Prot.to_bits prot in
    range_op ~start_va ~end_va (fun _vpn tp i ->
        tp.ptes.(i) <- tp.ptes.(i) land keep;
        Backend.charge ctx (Backend.cost ctx).Arch.pte_write)
  in

  let extract va =
    let pte = pte_at (va / page) in
    if pte_valid pte then Some (pte_pfn pte) else None
  in

  let lookup vpn =
    let pte = pte_at vpn in
    if pte_valid pte then
      Translator.Mapped { pfn = pte_pfn pte; prot = pte_prot pte }
    else Translator.Missing
  in
  let translator =
    { Translator.asid; lookup;
      walk_cost = (Backend.cost ctx).Arch.tlb_fill }
  in

  (* Drop every non-wired mapping: the pmap-as-cache behaviour. *)
  let collect () =
    let dropped = ref 0 in
    iter_valid_in_range 0 max_int (fun vpn tp i ->
        if not (pte_wired tp.ptes.(i)) then begin
          invalidate_pte vpn tp i;
          incr dropped
        end);
    stats.Pmap.cache_drops <- stats.Pmap.cache_drops + !dropped;
    if !dropped > 0 then Backend.shoot_asid ctx presence ~asid
  in

  (* Every table page goes at once, so the walk visits them as they sit
     in the directory and drops the directory after. *)
  let destroy () =
    let pte_write = (Backend.cost ctx).Arch.pte_write in
    Tpages.iter
      (fun idx tp ->
         let first_vpn = idx * ptes_per_page in
         Array.iteri
           (fun i pte ->
              if pte_valid pte then begin
                Backend.pv_remove ctx ~pfn:(pte_pfn pte) ~asid
                  ~vpn:(first_vpn + i);
                Backend.charge ctx pte_write
              end)
           tp.ptes)
      tables;
    stats.Pmap.removals <- stats.Pmap.removals + !resident;
    resident := 0;
    Backend.shoot_asid ctx presence ~asid;
    Tpages.reset tables;
    cached_idx := min_int;
    cached_tp := no_tpage
  in

  let map_bytes () = top_bytes + (Tpages.length tables * page) in

  (* pmap_copy (Table 3-4, optional): duplicate valid mappings into a
     destination pmap so it avoids its initial faults.  Write permission
     is stripped — the typical caller is fork, where the child's data
     must stay copy-on-write until its first write fault.  Consecutive
     pages mapping consecutive frames at one protection go over as one
     run. *)
  let copy ~dst ~dst_start ~len ~src_start =
    let lo = src_start / page in
    let hi = (src_start + len + page - 1) / page in
    let run_vpn = ref 0 and run_pfn = ref 0 and run_bits = ref 0 in
    let run_frames = ref 0 in
    let flush () =
      if !run_frames > 0 then
        dst.Pmap.enter
          ~va:(dst_start + ((!run_vpn * page) - src_start))
          ~pfn:!run_pfn ~frames:!run_frames
          ~prot:(Prot.of_bits !run_bits) ~wired:false
    in
    iter_valid_in_range lo hi (fun vpn tp i ->
        let pte = tp.ptes.(i) in
        let bits = Prot.to_bits (Prot.remove_write (pte_prot pte)) in
        let n = !run_frames in
        if not (n > 0 && vpn = !run_vpn + n && pte_pfn pte = !run_pfn + n
                && bits = !run_bits)
        then begin
          flush ();
          run_vpn := vpn;
          run_pfn := pte_pfn pte;
          run_bits := bits;
          run_frames := 0
        end;
        incr run_frames);
    flush ()
  in

  {
    Pmap.asid;
    kind;
    (* real reference counting is installed by Pmap_domain *)
    reference = (fun () -> ());
    enter;
    remove;
    protect;
    extract;
    access_check = (fun va -> pte_valid (pte_at (va / page)));
    activate = (fun ~cpu -> Backend.activate ctx presence translator ~cpu);
    deactivate =
      (fun ~cpu -> Backend.deactivate ctx presence translator ~cpu);
    copy = Some copy;
    pageable = None;
    resident_count = (fun () -> !resident);
    map_bytes;
    collect;
    destroy;
    stats;
  }

let make_domain (ctx : Backend.ctx) ~kind ~va_limit ~top_bytes
    ?(pfn_limit = max_int) () =
  { Backend.new_pmap =
      (fun () -> make_pmap ctx ~kind ~va_limit ~top_bytes ~pfn_limit);
    shared_map_bytes = (fun () -> 0) }
