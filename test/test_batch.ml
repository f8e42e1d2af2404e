(* Flush batching tests: Machine.shootdown_batch semantics, the pmap
   layer's batch accumulator and request coalescing, and end-to-end IPI
   counts for multi-page vm_protect/vm_deallocate.  The contract under
   test: batching shrinks the number of consistency exchanges (one IPI
   round per target CPU per operation), never the moment at which
   consistency is restored. *)

open Mach_hw
open Mach_core
open Mach_pmap
module Obs = Mach_obs.Obs

let kb = 1024

(* ---- Machine.shootdown_batch ------------------------------------------ *)

let make_translator ~asid table =
  { Translator.asid;
    lookup =
      (fun vpn ->
         match Hashtbl.find_opt table vpn with
         | Some (pfn, prot) -> Translator.Mapped { pfn; prot }
         | None -> Translator.Missing);
    walk_cost = 20 }

(* A 4-CPU machine with pages 0..3 mapped and every CPU's TLB warm on all
   of them. *)
let batch_setup strategy =
  let m =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus:4
      ~shootdown:strategy ()
  in
  let table = Hashtbl.create 8 in
  for vpn = 0 to 3 do
    Hashtbl.replace table vpn (10 + vpn, Prot.read_write)
  done;
  let tr = make_translator ~asid:1 table in
  let ps = Arch.uvax2.Arch.hw_page_size in
  for cpu = 0 to 3 do
    Machine.set_translator m ~cpu (Some tr);
    for vpn = 0 to 3 do
      ignore (Machine.read_byte m ~cpu ~va:(vpn * ps))
    done
  done;
  (m, table)

let reqs_0_to_3 =
  [ Machine.Flush_range { asid = 1; lo_vpn = 0; hi_vpn = 3 };
    Machine.Flush_page { asid = 1; vpn = 3 } ]

let cached m ~cpu ~vpn =
  List.exists
    (fun (e : Tlb.entry) -> e.Tlb.asid = 1 && e.Tlb.vpn = vpn)
    (Machine.tlb_contents m ~cpu)

let test_batch_one_ipi_per_target () =
  let m, _table = batch_setup Machine.Immediate_ipi in
  Machine.shootdown_batch m ~initiator:0 ~targets:[ 0; 1; 2; 3 ]
    reqs_0_to_3 ~urgent:false;
  (* 3 remote targets, 2 requests: the IPI count follows targets, not
     requests or pages. *)
  Alcotest.(check int) "one IPI per remote target" 3
    (Machine.stats m).Machine.ipis;
  for cpu = 0 to 3 do
    for vpn = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "cpu%d vpn%d flushed" cpu vpn)
        false (cached m ~cpu ~vpn)
    done
  done

let test_batch_empty_and_singleton () =
  let m, _table = batch_setup Machine.Immediate_ipi in
  Machine.shootdown_batch m ~initiator:0 ~targets:[ 0; 1; 2; 3 ] []
    ~urgent:false;
  Alcotest.(check int) "empty batch is a no-op" 0
    (Machine.stats m).Machine.shootdowns;
  Machine.shootdown_batch m ~initiator:0 ~targets:[ 0; 1 ]
    [ Machine.Flush_page { asid = 1; vpn = 0 } ]
    ~urgent:false;
  (* A singleton behaves exactly like Machine.shootdown. *)
  Alcotest.(check int) "one shootdown" 1 (Machine.stats m).Machine.shootdowns;
  Alcotest.(check int) "one IPI" 1 (Machine.stats m).Machine.ipis;
  Alcotest.(check bool) "cpu1 vpn0 flushed" false (cached m ~cpu:1 ~vpn:0);
  Alcotest.(check bool) "cpu1 vpn1 kept" true (cached m ~cpu:1 ~vpn:1)

let test_batch_deferred_waits () =
  let m, _table = batch_setup Machine.Deferred_timer in
  let before = Machine.cycles m ~cpu:0 in
  Machine.shootdown_batch m ~initiator:0 ~targets:[ 0; 1; 2; 3 ]
    reqs_0_to_3 ~urgent:false;
  Alcotest.(check int) "no IPIs" 0 (Machine.stats m).Machine.ipis;
  Alcotest.(check bool) "initiator waited out the tick" true
    (Machine.cycles m ~cpu:0 - before > 1000);
  (* Consistency restored at the tick: nothing pending, flushes landed. *)
  Alcotest.(check int) "nothing pending" 0 (Machine.pending_flushes m ~cpu:1);
  Alcotest.(check int) "deferred flushes counted" 6
    (Machine.stats m).Machine.deferred_flushes;
  Alcotest.(check bool) "cpu2 vpn1 flushed" false (cached m ~cpu:2 ~vpn:1)

let test_batch_lazy_queues () =
  let m, _table = batch_setup Machine.Lazy_local in
  Machine.shootdown_batch m ~initiator:0 ~targets:[ 0; 1; 2; 3 ]
    reqs_0_to_3 ~urgent:false;
  Alcotest.(check int) "no IPIs" 0 (Machine.stats m).Machine.ipis;
  (* Initiator flushed immediately, remotes only queued. *)
  Alcotest.(check bool) "initiator flushed" false (cached m ~cpu:0 ~vpn:1);
  Alcotest.(check bool) "remote still cached" true (cached m ~cpu:1 ~vpn:1);
  Alcotest.(check int) "both requests pending" 2
    (Machine.pending_flushes m ~cpu:1);
  (* A hit inside the batched range counts as a stale use. *)
  let ps = Arch.uvax2.Arch.hw_page_size in
  ignore (Machine.read_byte m ~cpu:1 ~va:ps);
  Alcotest.(check int) "stale use counted" 1
    (Machine.stats m).Machine.stale_tlb_uses;
  Machine.tick m;
  Alcotest.(check bool) "drained at tick" false (cached m ~cpu:1 ~vpn:1)

let test_batch_urgent_overrides_lazy () =
  let m, _table = batch_setup Machine.Lazy_local in
  Machine.shootdown_batch m ~initiator:0 ~targets:[ 0; 1; 2; 3 ]
    reqs_0_to_3 ~urgent:true;
  Alcotest.(check int) "IPIs despite lazy strategy" 3
    (Machine.stats m).Machine.ipis;
  Alcotest.(check int) "nothing pending" 0 (Machine.pending_flushes m ~cpu:1)

let test_flush_range_is_half_open () =
  let m, _table = batch_setup Machine.Immediate_ipi in
  Machine.flush_local m ~cpu:1
    (Machine.Flush_range { asid = 1; lo_vpn = 1; hi_vpn = 3 });
  Alcotest.(check bool) "below kept" true (cached m ~cpu:1 ~vpn:0);
  Alcotest.(check bool) "lo dropped" false (cached m ~cpu:1 ~vpn:1);
  Alcotest.(check bool) "mid dropped" false (cached m ~cpu:1 ~vpn:2);
  Alcotest.(check bool) "hi kept (half-open)" true (cached m ~cpu:1 ~vpn:3)

(* ---- the pmap layer's accumulator -------------------------------------- *)

(* Scattered pages below the promotion threshold coalesce into
   range/page requests delivered as one batched exchange. *)
let test_accumulator_coalesces () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:256 ~cpus:2 () in
  let domain = Pmap_domain.create machine in
  let tr = Obs.create () in
  Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let p = Pmap_domain.create_pmap domain in
  let ps = Arch.uvax2.Arch.hw_page_size in
  p.Pmap.activate ~cpu:0;
  p.Pmap.activate ~cpu:1;
  List.iter
    (fun vpn ->
       p.Pmap.enter ~va:(vpn * ps) ~pfn:(20 + vpn) ~frames:1
         ~prot:Prot.read_write
         ~wired:false)
    [ 0; 1; 2; 10 ];
  Machine.reset_clocks machine;
  Pmap_domain.batched domain (fun () ->
      p.Pmap.remove ~start_va:0 ~end_va:(3 * ps);
      p.Pmap.remove ~start_va:(10 * ps) ~end_va:(11 * ps));
  (* One batched exchange carrying [0,3) as a range plus page 10: one IPI
     to the one remote CPU, and a Shootdown_batch event with 2 requests
     spanning 4 pages. *)
  Alcotest.(check int) "one IPI" 1 (Machine.stats machine).Machine.ipis;
  Alcotest.(check int) "one batched exchange" 1
    (Obs.count tr
       (Obs.Shootdown_batch
          { initiator = 0; targets = 0; requests = 0; span_pages = 0;
            urgent = false; cycles = 0 }));
  let requests = ref 0 and span = ref 0 in
  Mach_obs.Ring.iter
    (fun r ->
       match r.Obs.ev with
       | Obs.Shootdown_batch { requests = rq; span_pages; _ } ->
         requests := rq;
         span := span_pages
       | _ -> ())
    (Obs.ring tr);
  let requests, span = (!requests, !span) in
  Alcotest.(check int) "two coalesced requests" 2 requests;
  Alcotest.(check int) "four pages spanned" 4 span;
  Alcotest.(check (option int)) "all removed" None (p.Pmap.extract 0)

(* Past the threshold the accumulator promotes to a whole-space flush:
   still one exchange, delivered as a plain (singleton) shootdown. *)
let test_accumulator_promotes () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:256 ~cpus:2 () in
  let domain = Pmap_domain.create machine in
  let p = Pmap_domain.create_pmap domain in
  let ps = Arch.uvax2.Arch.hw_page_size in
  p.Pmap.activate ~cpu:0;
  p.Pmap.activate ~cpu:1;
  for vpn = 0 to 15 do
    p.Pmap.enter ~va:(vpn * ps) ~pfn:(20 + vpn) ~frames:1 ~prot:Prot.read_write
      ~wired:false
  done;
  Machine.reset_clocks machine;
  p.Pmap.remove ~start_va:0 ~end_va:(16 * ps);
  Alcotest.(check int) "one IPI for 16 pages" 1
    (Machine.stats machine).Machine.ipis;
  Alcotest.(check int) "one shootdown" 1
    (Machine.stats machine).Machine.shootdowns

(* The threshold counts distinct pages, so shooting each page twice
   changes nothing: 8 distinct pages (16 shots) still go out as coalesced
   page/range requests, and a 9th distinct page turns the lot into
   exactly one whole-space flush.  Either way it is one exchange and one
   IPI to the one remote CPU. *)
let test_accumulator_threshold_counts_distinct_pages () =
  let run vpns =
    let machine =
      Machine.create ~arch:Arch.uvax2 ~memory_frames:256 ~cpus:2 ()
    in
    let domain = Pmap_domain.create machine in
    let tr = Obs.create () in
    Obs.set_enabled tr true;
    Machine.set_tracer machine tr;
    let p = Pmap_domain.create_pmap domain in
    let ps = Arch.uvax2.Arch.hw_page_size in
    p.Pmap.activate ~cpu:0;
    p.Pmap.activate ~cpu:1;
    List.iter
      (fun vpn ->
         p.Pmap.enter ~va:(vpn * ps) ~pfn:(20 + vpn) ~frames:1
           ~prot:Prot.read_write
           ~wired:false)
      vpns;
    Machine.reset_clocks machine;
    Obs.reset tr;
    Pmap_domain.batched domain (fun () ->
        for _ = 1 to 2 do
          List.iter
            (fun vpn ->
               p.Pmap.protect ~start_va:(vpn * ps) ~end_va:((vpn + 1) * ps)
                 ~prot:Prot.read_only)
            vpns
        done);
    let flushes kind =
      let n = ref 0 in
      Mach_obs.Ring.iter
        (fun r ->
           match r.Obs.ev with
           | Obs.Tlb_flush { kind = k; _ } when k = kind -> incr n
           | _ -> ())
        (Obs.ring tr);
      !n
    in
    let batch_requests = ref 0 in
    Mach_obs.Ring.iter
      (fun r ->
         match r.Obs.ev with
         | Obs.Shootdown_batch { requests; _ } -> batch_requests := requests
         | _ -> ())
      (Obs.ring tr);
    let stats = Machine.stats machine in
    ( stats.Machine.ipis, stats.Machine.shootdowns, !batch_requests,
      flushes Obs.Fl_page, flushes Obs.Fl_range, flushes Obs.Fl_asid )
  in
  (* 8 distinct pages: ranges [0,3) and [20,22), pages 5, 7 and 9. *)
  let ipis, shootdowns, requests, pages, ranges, asids =
    run [ 0; 1; 2; 5; 7; 9; 20; 21 ]
  in
  Alcotest.(check int) "8 pages: one IPI" 1 ipis;
  Alcotest.(check int) "8 pages: one exchange" 1 shootdowns;
  Alcotest.(check int) "8 pages: five coalesced requests" 5 requests;
  (* Each request is flushed on the initiator and on the remote CPU. *)
  Alcotest.(check int) "8 pages: page flushes" 6 pages;
  Alcotest.(check int) "8 pages: range flushes" 4 ranges;
  Alcotest.(check int) "8 pages: no whole-space flush" 0 asids;
  let ipis, shootdowns, requests, pages, ranges, asids =
    run [ 0; 1; 2; 5; 7; 9; 20; 21; 30 ]
  in
  Alcotest.(check int) "9 pages: one IPI" 1 ipis;
  Alcotest.(check int) "9 pages: one exchange" 1 shootdowns;
  (* A single request goes out as a plain shootdown, not a batch. *)
  Alcotest.(check int) "9 pages: no multi-request batch" 0 requests;
  Alcotest.(check int) "9 pages: no page flushes" 0 pages;
  Alcotest.(check int) "9 pages: no range flushes" 0 ranges;
  Alcotest.(check int) "9 pages: one whole-space flush per CPU" 2 asids

(* A flushed batch hands its per-asid page sets back for reuse.  Three
   batches in a row — asid A's pages 0-2, then B's page 4, then A's page
   5 — must go out as exactly Flush_range A [0,3), Flush_page B 4 and
   Flush_page A 5: nothing collected by one batch leaks into the next
   through a reused set.  A is active on CPU 0 and B on CPU 1, each with
   pages 0-5 cached in that CPU's TLB. *)
let test_accumulator_reuses_page_sets () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:256 ~cpus:2 () in
  let domain = Pmap_domain.create machine in
  let tr = Obs.create () in
  Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let ps = Arch.uvax2.Arch.hw_page_size in
  let pa = Pmap_domain.create_pmap domain in
  let pb = Pmap_domain.create_pmap domain in
  pa.Pmap.activate ~cpu:0;
  pb.Pmap.activate ~cpu:1;
  for vpn = 0 to 5 do
    pa.Pmap.enter ~va:(vpn * ps) ~pfn:(20 + vpn) ~frames:1 ~prot:Prot.read_write
      ~wired:false;
    pb.Pmap.enter ~va:(vpn * ps) ~pfn:(40 + vpn) ~frames:1 ~prot:Prot.read_write
      ~wired:false;
    ignore (Machine.read_byte machine ~cpu:0 ~va:(vpn * ps));
    ignore (Machine.read_byte machine ~cpu:1 ~va:(vpn * ps))
  done;
  Obs.reset tr;
  let remove (p : Pmap.t) lo hi =
    Pmap_domain.batched domain (fun () ->
        p.Pmap.remove ~start_va:(lo * ps) ~end_va:(hi * ps))
  in
  remove pa 0 3;
  remove pb 4 5;
  remove pa 5 6;
  let flushes = ref [] and batches = ref 0 in
  Mach_obs.Ring.iter
    (fun r ->
       match r.Obs.ev with
       | Obs.Tlb_flush { kind; _ } -> flushes := (r.Obs.cpu, kind) :: !flushes
       | Obs.Shootdown_batch _ -> incr batches
       | _ -> ())
    (Obs.ring tr);
  (* B's page is flushed on the initiator (CPU 0) and on CPU 1, where B
     ran; A's requests stay local to CPU 0. *)
  Alcotest.(check (list (pair int string)))
    "one request per batch"
    [ (0, "range"); (0, "page"); (1, "page"); (0, "page") ]
    (List.rev_map
       (fun (cpu, k) ->
          ( cpu,
            match k with
            | Obs.Fl_page -> "page"
            | Obs.Fl_range -> "range"
            | Obs.Fl_asid -> "asid"
            | Obs.Fl_all -> "all" ))
       !flushes);
  Alcotest.(check int) "no multi-request batch" 0 !batches;
  let cached cpu ~asid =
    List.sort compare
      (List.filter_map
         (fun (e : Tlb.entry) ->
            if e.Tlb.asid = asid then Some e.Tlb.vpn else None)
         (Machine.tlb_contents machine ~cpu))
  in
  Alcotest.(check (list int)) "A keeps pages 3 and 4" [ 3; 4 ]
    (cached 0 ~asid:pa.Pmap.asid);
  Alcotest.(check (list int)) "B loses only page 4" [ 0; 1; 2; 3; 5 ]
    (cached 1 ~asid:pb.Pmap.asid)

(* ---- end-to-end: vm_protect / vm_deallocate --------------------------- *)

let boot ?(arch = Arch.uvax2) ?(cpus = 4) () =
  let machine =
    Machine.create ~arch ~memory_frames:2048 ~cpus
      ~shootdown:Machine.Immediate_ipi ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

(* A 64 KB region mapped and TLB-warm on all four CPUs. *)
let warm_region (machine, kernel, sys) =
  let t = Kernel.create_task kernel () in
  for cpu = 0 to Machine.cpu_count machine - 1 do
    Kernel.run_task kernel ~cpu t
  done;
  let size = 64 * kb in
  let addr = ok (Vm_user.allocate sys t ~size ~anywhere:true ()) in
  let ps = Kernel.page_size kernel in
  for cpu = 0 to Machine.cpu_count machine - 1 do
    let rec sweep va =
      if va < addr + size then begin
        Machine.touch machine ~cpu ~va ~write:true;
        sweep (va + ps)
      end
    in
    sweep addr
  done;
  Machine.reset_clocks machine;
  (t, addr, size)

let test_protect_ipis_scale_with_targets () =
  let machine, kernel, sys = boot () in
  let t, addr, size = warm_region (machine, kernel, sys) in
  Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain 0;
  ok
    (Vm_user.protect sys t ~addr ~size ~set_max:false ~prot:Prot.read_only);
  (* 16 kernel pages revoked, 3 remote CPUs: one IPI per target CPU, not
     per page. *)
  Alcotest.(check int) "IPIs = target CPUs" 3
    (Machine.stats machine).Machine.ipis;
  Alcotest.(check int) "no stale uses under Immediate_ipi" 0
    (Machine.stats machine).Machine.stale_tlb_uses;
  (* The revocation really landed everywhere. *)
  for cpu = 0 to 3 do
    try
      Machine.write_byte machine ~cpu ~va:addr 'X';
      Alcotest.fail "stale writable TLB entry survived"
    with Machine.Memory_violation _ -> ()
  done

let test_deallocate_ipis_scale_with_targets () =
  let machine, kernel, sys = boot () in
  let t, addr, size = warm_region (machine, kernel, sys) in
  Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain 0;
  ok (Vm_user.deallocate sys t ~addr ~size);
  Alcotest.(check bool) "IPIs bounded by target CPUs"
    true
    ((Machine.stats machine).Machine.ipis <= 3);
  Alcotest.(check int) "no stale uses under Immediate_ipi" 0
    (Machine.stats machine).Machine.stale_tlb_uses;
  for cpu = 0 to 3 do
    try
      ignore (Machine.read_byte machine ~cpu ~va:addr);
      Alcotest.fail "deallocated page still readable"
    with Machine.Memory_violation _ -> ()
  done

(* ---- qcheck: TLBs agree with page tables across all backends ----------- *)

let archs =
  [ Arch.uvax2; Arch.rt_pc; Arch.sun3_160; Arch.ns32082; Arch.rp3_tlb ]

(* Two pmaps (two asids); [p] picks one.  Both CPUs start on the first,
   so its removals shoot a live TLB on the other CPU; [Switch] brings in
   the second.  [Batch] runs its ops inside one open batch, so its
   flushes may span both asids and mix page sets with whole-space
   flushes ([Collect]). *)
type op =
  | Enter of int * int * int (* p, vpn, pfn *)
  | Remove of int * int * int (* p, lo_vpn, pages *)
  | Protect of int * int * int (* p, lo_vpn, pages *)
  | Collect of int (* p *)
  | Touch of int * int (* cpu, vpn *)
  | Switch of int * int (* cpu, p *)
  | Batching of bool
  | Batch of op list

let op_gen =
  QCheck2.Gen.(
    let pmap_op =
      oneof
        [ map3 (fun p v f -> Enter (p, v, f)) (int_range 0 1) (int_range 0 31)
            (int_range 1 63);
          map3 (fun p v n -> Remove (p, v, n)) (int_range 0 1) (int_range 0 31)
            (int_range 1 12);
          map3 (fun p v n -> Protect (p, v, n)) (int_range 0 1)
            (int_range 0 31) (int_range 1 12);
          map (fun p -> Collect p) (int_range 0 1) ]
    in
    frequency
      [ (4, pmap_op);
        (2, map2 (fun c v -> Touch (c, v)) (int_range 0 1) (int_range 0 31));
        (1, map2 (fun c p -> Switch (c, p)) (int_range 0 1) (int_range 0 1));
        (1, map (fun b -> Batching b) bool);
        (1, map (fun ops -> Batch ops) (list_size (int_range 2 4) pmap_op)) ])

(* Under Immediate_ipi there is never a pending invalidation, so at any
   point every cached TLB entry must agree with the page tables — batched
   or not.  The model maps drive fault-time re-entry into the pmap active
   on the faulting CPU, so TLB-only machines can make progress and
   collected mappings come back. *)
let mixed_ops_agree arch ops =
  let machine =
    Machine.create ~arch ~memory_frames:256 ~cpus:2
      ~shootdown:Machine.Immediate_ipi ()
  in
  let domain = Pmap_domain.create machine in
  let pmaps = Array.init 2 (fun _ -> Pmap_domain.create_pmap domain) in
  let models : (int, int * Prot.t) Hashtbl.t array =
    Array.init 2 (fun _ -> Hashtbl.create 32)
  in
  let active = [| 0; 0 |] in
  let ps = arch.Arch.hw_page_size in
  Machine.set_fault_handler machine (fun ~cpu f ->
      let vpn = f.Machine.fault_va / ps in
      let i = active.(cpu) in
      match Hashtbl.find_opt models.(i) vpn with
      | Some (pfn, prot) ->
        pmaps.(i).Pmap.enter ~va:(vpn * ps) ~pfn ~frames:1 ~prot ~wired:false
      | None ->
        raise
          (Machine.Memory_violation
             { va = f.Machine.fault_va; write = f.Machine.fault_write;
               reason = "unmapped" }))
  ;
  pmaps.(0).Pmap.activate ~cpu:0;
  pmaps.(0).Pmap.activate ~cpu:1;
  let rec apply = function
    | Enter (i, vpn, pfn) ->
      Hashtbl.replace models.(i) vpn (pfn, Prot.read_write);
      pmaps.(i).Pmap.enter ~va:(vpn * ps) ~pfn ~frames:1 ~prot:Prot.read_write
        ~wired:false
    | Remove (i, lo, n) ->
      for vpn = lo to lo + n - 1 do
        Hashtbl.remove models.(i) vpn
      done;
      pmaps.(i).Pmap.remove ~start_va:(lo * ps) ~end_va:((lo + n) * ps)
    | Protect (i, lo, n) ->
      for vpn = lo to lo + n - 1 do
        match Hashtbl.find_opt models.(i) vpn with
        | Some (pfn, prot) ->
          Hashtbl.replace models.(i) vpn (pfn, Prot.inter prot Prot.read_only)
        | None -> ()
      done;
      pmaps.(i).Pmap.protect ~start_va:(lo * ps) ~end_va:((lo + n) * ps)
        ~prot:Prot.read_only
    | Collect i -> pmaps.(i).Pmap.collect ()
    | Touch (cpu, vpn) ->
      (try ignore (Machine.read_byte machine ~cpu ~va:(vpn * ps))
       with Machine.Memory_violation _ -> ())
    | Switch (cpu, i) ->
      pmaps.(active.(cpu)).Pmap.deactivate ~cpu;
      active.(cpu) <- i;
      pmaps.(i).Pmap.activate ~cpu
    | Batching on -> Pmap_domain.set_batching domain on
    | Batch ops -> Pmap_domain.batched domain (fun () -> List.iter apply ops)
  in
  List.iter apply ops;
  let agreed = ref true in
  for cpu = 0 to 1 do
    List.iter
      (fun (e : Tlb.entry) ->
         Array.iter
           (fun (p : Pmap.t) ->
              if e.Tlb.asid = p.Pmap.asid then
                match p.Pmap.extract (e.Tlb.vpn * ps) with
                | Some pfn when pfn = e.Tlb.pfn -> ()
                | _ -> agreed := false)
           pmaps)
      (Machine.tlb_contents machine ~cpu)
  done;
  !agreed && (Machine.stats machine).Machine.stale_tlb_uses = 0

let mixed_ops_qcheck arch =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "TLBs agree with page tables after mixed ops [%s]"
         arch.Arch.name)
    ~count:60
    QCheck2.Gen.(list_size (int_range 10 50) op_gen)
    (fun ops -> mixed_ops_agree arch ops)

let () =
  Alcotest.run "batch"
    [ ( "machine",
        [ Alcotest.test_case "one IPI per target" `Quick
            test_batch_one_ipi_per_target;
          Alcotest.test_case "empty and singleton batches" `Quick
            test_batch_empty_and_singleton;
          Alcotest.test_case "deferred batch waits out the tick" `Quick
            test_batch_deferred_waits;
          Alcotest.test_case "lazy batch queues all requests" `Quick
            test_batch_lazy_queues;
          Alcotest.test_case "urgent overrides lazy" `Quick
            test_batch_urgent_overrides_lazy;
          Alcotest.test_case "range flush is half-open" `Quick
            test_flush_range_is_half_open ] );
      ( "accumulator",
        [ Alcotest.test_case "coalesces adjacent pages" `Quick
            test_accumulator_coalesces;
          Alcotest.test_case "promotes past the threshold" `Quick
            test_accumulator_promotes;
          Alcotest.test_case "threshold counts distinct pages" `Quick
            test_accumulator_threshold_counts_distinct_pages;
          Alcotest.test_case "reused page sets start empty" `Quick
            test_accumulator_reuses_page_sets ] );
      ( "end_to_end",
        [ Alcotest.test_case "vm_protect: IPIs follow targets" `Quick
            test_protect_ipis_scale_with_targets;
          Alcotest.test_case "vm_deallocate: IPIs follow targets" `Quick
            test_deallocate_ipis_scale_with_targets ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (List.map mixed_ops_qcheck archs) ) ]
