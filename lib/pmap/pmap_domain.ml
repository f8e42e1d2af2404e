open Mach_hw

type t = {
  ctx : Backend.ctx;
  factory : Backend.factory;
  registry : Pmap.t Backend.Int_tbl.t;
  mutable on_first_touch : (pfn:int -> unit) option;
      (* fired when a frame's referenced bit transitions clear -> set;
         the VM layer uses it to observe the first touch of pages it
         mapped speculatively (burst faulting).  Charges nothing. *)
}

let create machine =
  let ctx = Backend.create machine in
  let factory =
    match (Machine.arch machine).Arch.kind with
    | Arch.Vax -> Pmap_vax.make_domain ctx
    | Arch.Rt_pc -> Pmap_rtpc.make_domain ctx
    | Arch.Sun3 -> Pmap_sun3.make_domain ctx
    | Arch.Ns32082 -> Pmap_ns32082.make_domain ctx
    | Arch.Tlb_only -> Pmap_tlbonly.make_domain ctx
  in
  let t =
    { ctx; factory; registry = Backend.Int_tbl.create 16;
      on_first_touch = None }
  in
  Machine.set_on_translated machine (fun ~pfn ~write ->
      let pv = ctx.Backend.pv in
      (match t.on_first_touch with
       | Some f when not (Pv.is_referenced pv ~pfn) -> f ~pfn
       | _ -> ());
      Pv.set_referenced pv ~pfn;
      if write then Pv.set_modified pv ~pfn);
  t

let set_on_first_touch t f = t.on_first_touch <- Some f

let machine t = t.ctx.Backend.machine

(* Wrap the mutation entry points with trace emission and cycle
   attribution.  Instrumenting here covers every architecture backend at
   once; the tracer is read through the machine on each call so enabling
   tracing mid-run works.  When tracing is off each wrapped call pays
   one branch.  The [Pmap] attribution frame brackets the backend call
   itself, so map-update costs land in the Pmap category wherever they
   were triggered from — except TLB-consistency work, which the machine
   charges as [Shootdown_ipi] explicitly.  A traced frame run is entered
   in one call like an untraced one; the trace then gets one [Pmap_enter]
   per frame, all stamped when the run is in (a run that raises records
   none). *)
let instrument t (p : Pmap.t) =
  let m = t.ctx.Backend.machine in
  let page = Backend.page_size t.ctx in
  let asid = p.Pmap.asid in
  let traced () = Mach_obs.Obs.enabled (Machine.tracer m) in
  let note ev =
    let cpu = t.ctx.Backend.cur_cpu in
    Mach_obs.Obs.record (Machine.tracer m) ~ts:(Machine.cycles m ~cpu) ~cpu ev
  in
  let in_pmap f =
    Machine.with_category m ~cpu:t.ctx.Backend.cur_cpu Mach_obs.Obs.Pmap f
  in
  { p with
    Pmap.enter =
      (fun ~va ~pfn ~frames ~prot ~wired ->
         if traced () then begin
           in_pmap (fun () -> p.Pmap.enter ~va ~pfn ~frames ~prot ~wired);
           for i = 0 to frames - 1 do
             note
               (Mach_obs.Obs.Pmap_enter
                  { asid; va = va + (i * page); pfn = pfn + i })
           done
         end
         else p.Pmap.enter ~va ~pfn ~frames ~prot ~wired);
    remove =
      (fun ~start_va ~end_va ->
         if traced () then begin
           in_pmap (fun () -> p.Pmap.remove ~start_va ~end_va);
           note (Mach_obs.Obs.Pmap_remove { asid; start_va; end_va })
         end
         else p.Pmap.remove ~start_va ~end_va);
    protect =
      (fun ~start_va ~end_va ~prot ->
         if traced () then begin
           in_pmap (fun () -> p.Pmap.protect ~start_va ~end_va ~prot);
           note (Mach_obs.Obs.Pmap_protect { asid; start_va; end_va })
         end
         else p.Pmap.protect ~start_va ~end_va ~prot) }

let create_pmap t =
  let p = instrument t (t.factory.Backend.new_pmap ()) in
  (* Wrap with reference counting (pmap_reference/pmap_destroy of Table
     3-3) and keep the registry in step with the pmap's lifetime. *)
  let refs = ref 1 in
  let reference () = incr refs in
  let destroy () =
    assert (!refs > 0);
    decr refs;
    if !refs = 0 then begin
      p.Pmap.destroy ();
      Backend.Int_tbl.remove t.registry p.Pmap.asid
    end
  in
  let p = { p with Pmap.reference; destroy } in
  Backend.Int_tbl.add t.registry p.Pmap.asid p;
  p

let find_pmap t ~asid = Backend.Int_tbl.find_opt t.registry asid

let set_current_cpu t cpu = t.ctx.Backend.cur_cpu <- cpu

let current_cpu t = t.ctx.Backend.cur_cpu

let page_size t = Backend.page_size t.ctx

let batched t f = Backend.batched t.ctx f
let set_batching t on = Backend.set_batching t.ctx on

(* The page-level operations act on a run of [frames] hardware frames
   from [pfn]: the frames of one machine-independent page.  [f pmap va]
   runs for every mapping of each frame, newest first.  Each mapped frame
   gets its own batch, so a frame mapped into many address spaces costs
   one consistency exchange rather than one per mapping — and still one
   per frame, unless the caller holds a batch open around the whole run.
   A frame without mappings opens none. *)
let each_mapping t ~pfn ~frames f =
  let ctx = t.ctx and page = page_size t in
  let rec visit = function
    | [] -> ()
    | m :: rest ->
      f (Backend.Int_tbl.find t.registry (Pv.asid_of m)) (Pv.vpn_of m * page);
      visit rest
  in
  for pfn = pfn to pfn + frames - 1 do
    match Pv.mappings ctx.Backend.pv ~pfn with
    | [] -> ()
    | mappings ->
      Backend.begin_batch ctx;
      (match visit mappings with
       | () -> Backend.end_batch ctx
       | exception e ->
         Backend.end_batch ctx;
         raise e)
  done

(* Urgency is captured per accumulated flush, so restoring [urgent_mode]
   once the run is done is safe even inside a caller's batch. *)
let remove_all t ~pfn ~frames ~urgent =
  let ctx = t.ctx and page = page_size t in
  let saved = ctx.Backend.urgent_mode in
  ctx.Backend.urgent_mode <- urgent;
  match
    each_mapping t ~pfn ~frames (fun p va ->
        p.Pmap.remove ~start_va:va ~end_va:(va + page))
  with
  | () -> ctx.Backend.urgent_mode <- saved
  | exception e ->
    ctx.Backend.urgent_mode <- saved;
    raise e

let copy_on_write t ~pfn ~frames =
  let read_only_mask = Prot.remove_write Prot.all and page = page_size t in
  each_mapping t ~pfn ~frames (fun p va ->
      p.Pmap.protect ~start_va:va ~end_va:(va + page) ~prot:read_only_mask)

let rec any_frame test pv ~pfn ~frames =
  frames > 0
  && (test pv ~pfn || any_frame test pv ~pfn:(pfn + 1) ~frames:(frames - 1))

let every_frame clear pv ~pfn ~frames =
  for pfn = pfn to pfn + frames - 1 do
    clear pv ~pfn
  done

let is_modified t ~pfn ~frames =
  any_frame Pv.is_modified t.ctx.Backend.pv ~pfn ~frames

let is_referenced t ~pfn ~frames =
  any_frame Pv.is_referenced t.ctx.Backend.pv ~pfn ~frames

let clear_modified t ~pfn ~frames =
  every_frame Pv.clear_modified t.ctx.Backend.pv ~pfn ~frames

let clear_referenced t ~pfn ~frames =
  every_frame Pv.clear_referenced t.ctx.Backend.pv ~pfn ~frames

let mapping_count t ~pfn = Pv.mapping_count t.ctx.Backend.pv ~pfn

let mappings_of t ~pfn =
  List.map
    (fun m -> (Pv.asid_of m, Pv.vpn_of m))
    (Pv.mappings t.ctx.Backend.pv ~pfn)

let mapped_by t ~pfn ~asid = Pv.mapped_by t.ctx.Backend.pv ~pfn ~asid

let zero_page t ~pfn =
  Backend.charge t.ctx (Backend.move_cost t.ctx (page_size t));
  Phys_mem.zero_frame (Machine.phys (machine t)) pfn

let copy_page t ~src ~dst =
  Backend.charge t.ctx (Backend.move_cost t.ctx (page_size t));
  Phys_mem.copy_frame (Machine.phys (machine t)) ~src ~dst

let total_map_bytes t =
  Backend.Int_tbl.fold
    (fun _ p acc -> acc + p.Pmap.map_bytes ())
    t.registry
    (t.factory.Backend.shared_map_bytes ())

let total_stats t =
  let acc = Pmap.fresh_stats () in
  Backend.Int_tbl.iter
    (fun _ p ->
       let s = p.Pmap.stats in
       acc.Pmap.enters <- acc.Pmap.enters + s.Pmap.enters;
       acc.Pmap.removals <- acc.Pmap.removals + s.Pmap.removals;
       acc.Pmap.protect_ops <- acc.Pmap.protect_ops + s.Pmap.protect_ops;
       acc.Pmap.alias_evictions <-
         acc.Pmap.alias_evictions + s.Pmap.alias_evictions;
       acc.Pmap.context_steals <-
         acc.Pmap.context_steals + s.Pmap.context_steals;
       acc.Pmap.cache_drops <- acc.Pmap.cache_drops + s.Pmap.cache_drops)
    t.registry;
  acc
