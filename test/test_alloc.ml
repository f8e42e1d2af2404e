(* The free-page allocator: one shared FIFO behind per-CPU magazines.

   The contracts under test: the free pages are never lost or invented
   no matter how traffic, reconfiguration and magazine drains
   interleave (conservation); a CPU whose magazine and the shared queue
   are both dry steals from another CPU's magazine, and such a run
   replays identically; magazines flush back to the shared queue when
   memory pressure is declared; and explicitly configuring magazines
   off is byte- and cycle-identical to the untouched seed allocator. *)

open Mach_hw
open Mach_core

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

(* ---- qcheck: conservation ------------------------------------------------ *)

(* Random streams of allocations (any CPU), frees (to any CPU's
   magazine), magazine drains and live reconfigurations.  After every
   single step the allocator must account for exactly [total - held]
   free pages and pass the structural audit. *)
let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (triple (int_range 0 6) (int_range 0 3) (int_range 0 7)))

let conservation =
  QCheck2.Test.make ~name:"free hierarchy conserved under random traffic"
    ~count:30 ops_gen
    (fun ops ->
       let _, _, sys = boot () in
       let res = sys.Vm_sys.resident in
       Resident.configure res ~cpus:4 ~cache:4;
       let total = Resident.total_pages res in
       let held = ref [] in
       let nheld = ref 0 in
       List.for_all
         (fun (tag, cpu, k) ->
            (match tag with
             | 0 | 1 | 2 ->
               (match Resident.alloc ~cpu res with
                | Some p ->
                  held := p :: !held;
                  incr nheld
                | None -> ())
             | 3 | 4 ->
               (match !held with
                | [] -> ()
                | p :: rest ->
                  held := rest;
                  decr nheld;
                  Resident.free_page ~cpu res p)
             | 5 -> Resident.drain_caches res
             | _ ->
               Resident.configure res ~cpus:(1 + (k land 3))
                 ~cache:(if k land 4 = 0 then 0 else 4));
            Resident.check_conservation res
            && Resident.free_count res = total - !nheld)
         ops)

(* ---- magazine steals ------------------------------------------------------ *)

(* Two CPUs with 4-page magazines on a 32-page machine.  A seeded LCG
   mixes allocations and frees on both CPUs, mostly allocations, so the
   shared queue runs dry while the other CPU's magazine still holds
   pages and allocation has to steal.  The whole run — the pfn sequence
   and every counter — must replay identically. *)
let steal_run seed =
  let machine =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:256 ~cpus:2 ()
  in
  let res = Resident.create ~phys:(Machine.phys machine) ~multiple:8 () in
  Resident.configure res ~cpus:2 ~cache:4;
  let total = Resident.total_pages res in
  let rng = ref seed in
  let next bound =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    (* The low bits of a power-of-two LCG have tiny periods. *)
    (!rng lsr 16) mod bound
  in
  let held = ref [] in
  let nheld = ref 0 in
  let pfns = ref [] in
  let conserved = ref true in
  for _ = 1 to 400 do
    (if next 4 = 0 then (
       match !held with
       | [] -> ()
       | p :: rest ->
         held := rest;
         decr nheld;
         Resident.free_page ~cpu:(next 2) res p)
     else
       match Resident.alloc ~cpu:(next 2) res with
       | Some p ->
         held := p :: !held;
         incr nheld;
         pfns := Types.(p.pfn) :: !pfns
       | None -> ());
    if not (Resident.check_conservation res
            && Resident.free_count res = total - !nheld)
    then conserved := false
  done;
  let k = Resident.counters res in
  ( !pfns, !conserved,
    (k.Resident.pcpu_hits, k.Resident.pcpu_refills, k.Resident.page_steals) )

let test_steal_deterministic () =
  let pfns1, conserved, ((_, _, steals) as k1) = steal_run 42 in
  let pfns2, _, k2 = steal_run 42 in
  Alcotest.(check bool) "steals happened" true (steals > 0);
  Alcotest.(check bool) "conserved at every step" true conserved;
  Alcotest.(check (list int)) "replay-identical pfn sequence" pfns1 pfns2;
  Alcotest.(check (triple int int int)) "replay-identical counters" k1 k2

(* ---- magazine drain on pressure ------------------------------------------ *)

let test_pressure_drains_magazines () =
  let _, _, sys = boot () in
  let res = sys.Vm_sys.resident in
  Resident.configure res ~cpus:1 ~cache:8;
  let held =
    List.init 8 (fun _ -> Option.get (Resident.alloc ~cpu:0 res))
  in
  List.iter (fun p -> Resident.free_page ~cpu:0 res p) held;
  Alcotest.(check bool) "magazine stocked" true (Resident.cached_count res > 0);
  Vm_sys.set_mem_pressure sys true;
  Alcotest.(check int) "pressure flushed it" 0 (Resident.cached_count res);
  Alcotest.(check bool) "still conserved" true (Resident.check_conservation res)

(* ---- flat configuration is the seed allocator ----------------------------- *)

(* Zero-fill 24 pages, drop the mappings, touch them all again, read
   everything back.  Explicitly configuring magazines off must be
   indistinguishable — bytes, clock, fault count — from never touching
   the allocator at all. *)
let ident_run ~configure =
  let machine, kernel, sys = boot () in
  if configure then Vm_sys.configure_allocator ~cache:0 sys;
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let n = 24 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  for i = 0 to n - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps))
      (Char.chr (0x41 + (i mod 26)))
  done;
  let pmap =
    match (Task.map task).Types.map_pmap with
    | Some p -> p
    | None -> assert false
  in
  pmap.Mach_pmap.Pmap.remove ~start_va:addr ~end_va:(addr + (n * ps));
  for i = 0 to n - 1 do
    Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:true
  done;
  let bytes =
    Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:(n * ps))
  in
  (bytes, Machine.cycles machine ~cpu:0, sys.Vm_sys.stats.Vm_sys.faults)

let test_flat_is_seed () =
  let b0, c0, f0 = ident_run ~configure:false in
  let b1, c1, f1 = ident_run ~configure:true in
  Alcotest.(check string) "byte-identical" b0 b1;
  Alcotest.(check int) "cycle-identical" c0 c1;
  Alcotest.(check int) "fault-identical" f0 f1

let () =
  Alcotest.run "alloc"
    [ ( "magazines",
        [ Alcotest.test_case "pressure drains per-CPU caches" `Quick
            test_pressure_drains_magazines;
          Alcotest.test_case "steals replay identically" `Quick
            test_steal_deterministic ] );
      ( "identity",
        [ Alcotest.test_case "flat config matches the seed allocator" `Quick
            test_flat_is_seed ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ conservation ] ) ]
