(* Object locking and burst faulting.

   The contracts under test: the lock layer is cycle-invisible on one
   CPU and burst=1 (demand page only) is byte- and cycle-identical to
   burst=0; bursting at
   any width is invisible to data; burst-mapped neighbours are counted
   as prefetch and their first touch as a hit even though they never
   fault; and multi-CPU lock stalls are deterministic — replay-identical
   across runs, with or without chaos injection — and conserved in the
   cycle attribution. *)

open Mach_hw
open Mach_core
open Mach_pagers
module Fail = Mach_fail.Fail
module Obs = Mach_obs.Obs

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

(* uVAX II, 512 B hardware pages, multiple 8 => 4 KB system pages. *)
let boot ?(frames = 2048) ?(cpus = 1) () =
  let machine =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:frames ~cpus ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let pmap_of task =
  match (Task.map task).Types.map_pmap with
  | Some p -> p
  | None -> assert false

(* ---- burst accounting ---------------------------------------------------- *)

(* Zero-fill 32 pages, drop every mapping, touch the region again
   sequentially: with burst=8 that second sweep is 4 faults, each
   mapping 7 neighbours, and every neighbour's first touch counts as a
   prefetch hit (none of them fault). *)
let test_burst_counts () =
  let machine, kernel, sys = boot () in
  sys.Vm_sys.burst_max <- 8;
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let n = 32 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  for i = 0 to n - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps)) 'b'
  done;
  let pmap = pmap_of task in
  pmap.Mach_pmap.Pmap.remove ~start_va:addr ~end_va:(addr + (n * ps));
  let s = sys.Vm_sys.stats in
  let f0 = s.Vm_sys.faults in
  for i = 0 to n - 1 do
    Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:true
  done;
  Alcotest.(check int) "faults in the sweep" 4 (s.Vm_sys.faults - f0);
  Alcotest.(check int) "burst faults" 4 s.Vm_sys.burst_faults;
  Alcotest.(check int) "neighbours mapped" 28 s.Vm_sys.burst_mapped;
  Alcotest.(check int) "counted as prefetch" 28 s.Vm_sys.prefetch_issued;
  Alcotest.(check int) "first touches are hits" 28 s.Vm_sys.prefetch_hits;
  Alcotest.(check int) "no stalls on one CPU" 0 s.Vm_sys.lock_stalls

(* ---- qcheck: burst transparency ------------------------------------------- *)

(* Random streams of reads, writes and pmap drops over a 16-page
   region, replayed under two burst limits; ends with a full read of
   the region.  Returns the bytes read, the CPU clock and the fault
   count. *)
let burst_run ops burst =
  let machine, kernel, sys = boot () in
  sys.Vm_sys.burst_max <- burst;
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  let pmap = pmap_of task in
  List.iter
    (fun (i, kind) ->
       match kind with
       | 0 -> Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:false
       | 1 ->
         Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps))
           (Char.chr (0x40 + i))
       | _ ->
         pmap.Mach_pmap.Pmap.remove ~start_va:(addr + (i * ps))
           ~end_va:(addr + (n * ps)))
    ops;
  let bytes =
    Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:(n * ps))
  in
  (bytes, Machine.cycles machine ~cpu:0, sys.Vm_sys.stats.Vm_sys.faults)

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 24) (pair (int_range 0 15) (int_range 0 2)))

(* burst=0 and burst=1 both collect no neighbours: the two runs must be
   indistinguishable, to the cycle. *)
let burst1_is_legacy =
  QCheck2.Test.make ~name:"burst=1 byte- and cycle-identical to burst=0"
    ~count:40 ops_gen
    (fun ops -> burst_run ops 0 = burst_run ops 1)

(* Bursting any width must be invisible to data and never add faults. *)
let burst_transparent =
  QCheck2.Test.make ~name:"burst=8 byte-identical, never more faults"
    ~count:40 ops_gen
    (fun ops ->
       let b0, _, f0 = burst_run ops 0 in
       let b8, _, f8 = burst_run ops 8 in
       b0 = b8 && f8 <= f0)

(* ---- 4-CPU contention: deterministic and conserved ------------------------ *)

(* Four CPUs zero-fill disjoint stripes of one shared object in a
   round-robin interleave (writer sections overlap on the virtual
   clocks), then twice drop their stripe's mappings and re-touch it.
   With [chaos_seed] the default pager is chaos-wrapped and memory is
   pressured, so pageout and pagein churn through the injector too. *)
let contention_run ?chaos_seed ?(frames = 4096) () =
  let machine, kernel, sys = boot ~frames ~cpus:4 () in
  let tr = Obs.create ~capacity:(1 lsl 12) () in
  Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let fp =
    match chaos_seed with
    | None -> None
    | Some seed ->
      let inj = Fail.create ~seed in
      List.iter
        (fun (site, plan) -> Fail.attach inj ~site plan)
        (Option.value ~default:[] (Fail.profile "flaky"));
      sys.Vm_sys.pager_decorator <- Some (Chaos_pager.wrap sys inj);
      Some (fun () -> Fail.fingerprint inj)
  in
  let task = Kernel.create_task kernel () in
  for cpu = 0 to 3 do
    Kernel.run_task kernel ~cpu task
  done;
  let ps = sys.Vm_sys.page_size in
  let stripe_pages = 32 in
  let stripe = stripe_pages * ps in
  let addr = ok (Vm_user.allocate sys task ~size:(4 * stripe) ~anywhere:true ()) in
  let pmap = pmap_of task in
  (* Clocks, attribution and lock stamps zeroed together: conservation
     is exact from here, and stamps from before the reset are expired. *)
  Machine.reset_clocks machine;
  let sweep () =
    for p = 0 to stripe_pages - 1 do
      for cpu = 0 to 3 do
        Machine.touch machine ~cpu
          ~va:(addr + (cpu * stripe) + (p * ps))
          ~write:true
      done
    done
  in
  sweep ();
  for _ = 1 to 2 do
    for cpu = 0 to 3 do
      Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain cpu;
      pmap.Mach_pmap.Pmap.remove
        ~start_va:(addr + (cpu * stripe))
        ~end_va:(addr + ((cpu + 1) * stripe))
    done;
    sweep ()
  done;
  let clocks = List.init 4 (fun cpu -> Machine.cycles machine ~cpu) in
  let conserved =
    List.for_all
      (fun cpu -> Obs.attr_cpu_total tr ~cpu = Machine.cycles machine ~cpu)
      [ 0; 1; 2; 3 ]
  in
  let s = sys.Vm_sys.stats in
  ( s.Vm_sys.lock_stalls, s.Vm_sys.lock_stall_cycles, clocks, conserved,
    Obs.attr_grand_total tr Obs.Lock_wait,
    match fp with None -> "" | Some f -> f () )

let test_contention_deterministic () =
  let stalls1, cyc1, clocks1, conserved1, attr1, _ = contention_run () in
  let stalls2, cyc2, clocks2, _, _, _ = contention_run () in
  Alcotest.(check bool) "locks contended" true (stalls1 > 0);
  Alcotest.(check int) "replay-identical stalls" stalls1 stalls2;
  Alcotest.(check int) "replay-identical stall cycles" cyc1 cyc2;
  Alcotest.(check (list int)) "replay-identical clocks" clocks1 clocks2;
  Alcotest.(check bool) "attribution conserved per CPU" true conserved1;
  Alcotest.(check int) "Lock_wait attribution equals the stat" cyc1 attr1

let test_contention_chaos_replay () =
  let run () = contention_run ~chaos_seed:9 ~frames:1280 () in
  let stalls1, cyc1, clocks1, conserved1, _, fp1 = run () in
  let stalls2, cyc2, clocks2, _, _, fp2 = run () in
  Alcotest.(check bool) "locks contended under chaos" true (stalls1 > 0);
  Alcotest.(check int) "replay-identical stalls" stalls1 stalls2;
  Alcotest.(check int) "replay-identical stall cycles" cyc1 cyc2;
  Alcotest.(check (list int)) "replay-identical clocks" clocks1 clocks2;
  Alcotest.(check string) "chaos fingerprint stable" fp1 fp2;
  Alcotest.(check bool) "attribution conserved under chaos" true conserved1

let () =
  Alcotest.run "mpfault"
    [ ( "burst",
        [ Alcotest.test_case "neighbour accounting" `Quick test_burst_counts ]
      );
      ( "contention",
        [ Alcotest.test_case "4-CPU stalls replay identically" `Quick
            test_contention_deterministic;
          Alcotest.test_case "replay holds under chaos" `Quick
            test_contention_chaos_replay ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ burst1_is_legacy; burst_transparent ] ) ]
