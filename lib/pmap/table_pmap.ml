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

(* The table-page directory, keyed by table-page index (vpn divided by
   ptes per page): small, mostly consecutive ints, so they are their own
   hash. *)
module Tpages = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash i = i land max_int
  end)

let make (ctx : Backend.ctx) ~kind ~va_limit ~top_bytes
    ?(pfn_ok = fun _ -> true) () =
  let asid = Backend.fresh_asid ctx in
  let stats = Pmap.fresh_stats () in
  let presence = Backend.fresh_presence ctx in
  let page = Backend.page_size ctx in
  let pte_bytes = (Backend.arch ctx).Arch.pte_bytes in
  let ptes_per_page = page / pte_bytes in
  let tables : tpage Tpages.t = Tpages.create 16 in
  let resident = ref 0 in

  let pte_at vpn =
    match Tpages.find tables (vpn / ptes_per_page) with
    | tp -> tp.ptes.(vpn mod ptes_per_page)
    | exception Not_found -> 0
  in
  let find_or_create_tpage idx =
    match Tpages.find tables idx with
    | tp -> tp
    | exception Not_found ->
      (* Constructing a page-table page costs a page zero. *)
      Backend.charge ctx (Backend.move_cost ctx page);
      let tp = { ptes = Array.make ptes_per_page 0; valid_count = 0 } in
      Tpages.add tables idx tp;
      tp
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
    if tp.valid_count = 0 then Tpages.remove tables (vpn / ptes_per_page)
  in

  let install tp vpn ~pfn ~prot ~wired =
    let i = vpn mod ptes_per_page in
    assert (not (pte_valid tp.ptes.(i)));
    tp.ptes.(i) <- make_pte ~pfn ~prot ~wired;
    tp.valid_count <- tp.valid_count + 1;
    incr resident;
    Backend.pv_insert ctx ~pfn ~asid ~vpn
  in

  let enter ~va ~pfn ~prot ~wired =
    if va < 0 || va >= va_limit then
      invalid_arg "pmap_enter: virtual address beyond hardware limit";
    if not (pfn_ok pfn) then
      invalid_arg "pmap_enter: physical page beyond hardware limit";
    let vpn = va / page in
    let idx = vpn / ptes_per_page and i = vpn mod ptes_per_page in
    (* TLBs need invalidating only when a previously valid translation
       changes; fresh entries cannot be cached anywhere. *)
    (match Tpages.find tables idx with
     | tp when pte_valid tp.ptes.(i) && pte_pfn tp.ptes.(i) = pfn ->
       (* Same frame: update protection in place. *)
       tp.ptes.(i) <- make_pte ~pfn ~prot ~wired;
       Backend.shoot_page ctx presence ~asid ~vpn
     | tp when pte_valid tp.ptes.(i) ->
       invalidate_pte vpn tp i;
       Backend.shoot_page ctx presence ~asid ~vpn;
       (* The table page is gone if that was its last valid pte. *)
       install (find_or_create_tpage idx) vpn ~pfn ~prot ~wired
     | tp -> install tp vpn ~pfn ~prot ~wired
     | exception Not_found ->
       install (find_or_create_tpage idx) vpn ~pfn ~prot ~wired);
    Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
    stats.Pmap.enters <- stats.Pmap.enters + 1
  in

  (* Visit the valid ptes whose vpn lies in [lo, hi) in ascending vpn
     order as [f vpn tp i]; [f] may invalidate the pte.  Walk whichever
     side is smaller: the table pages covering the range, looked up one
     by one, or the table pages that exist, sorted, so sparse spaces and
     whole-space sweeps stay cheap. *)
  let iter_valid_in_range lo hi f =
    let visit idx =
      match Tpages.find tables idx with
      | exception Not_found -> ()
      | tp ->
        let first_vpn = idx * ptes_per_page in
        for i = max 0 (lo - first_vpn)
            to min ptes_per_page (hi - first_vpn) - 1 do
          if pte_valid tp.ptes.(i) then f (first_vpn + i) tp i
        done
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
     with batching off each page goes out as its own shootdown. *)
  let range_op ~start_va ~end_va f =
    let lo = start_va / page in
    let hi = (end_va + page - 1) / page in
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

  let destroy () =
    iter_valid_in_range 0 max_int invalidate_pte;
    Backend.shoot_asid ctx presence ~asid;
    Tpages.reset tables
  in

  let map_bytes () = top_bytes + (Tpages.length tables * page) in

  (* pmap_copy (Table 3-4, optional): duplicate valid mappings into a
     destination pmap so it avoids its initial faults.  Write permission
     is stripped — the typical caller is fork, where the child's data
     must stay copy-on-write until its first write fault. *)
  let copy ~dst ~dst_start ~len ~src_start =
    let lo = src_start / page in
    let hi = (src_start + len + page - 1) / page in
    iter_valid_in_range lo hi (fun vpn tp i ->
        let pte = tp.ptes.(i) in
        let va = dst_start + ((vpn * page) - src_start) in
        dst.Pmap.enter ~va ~pfn:(pte_pfn pte)
          ~prot:(Prot.remove_write (pte_prot pte)) ~wired:false)
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
