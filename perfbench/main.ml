(* One measured process: generate a workload from the seed, boot and set
   it up (timed as set-up), run the measured phase in batches with a
   fixed calibration loop between them, and print one JSON line of raw
   results.  perfbench/run.py runs several of these and aggregates. *)

open Mach_hw
open Mach_core
open Perfbench
module Obs = Mach_obs.Obs
module J = Mach_obs.Jout

let batches = 32

(* The calibration loop: fixed work that loads the host the way the
   simulator does, scattered reads and writes of memory larger than the
   L2 cache and short-lived copies out of page-sized buffers (the
   simulator's Phys_mem traffic).  Host noise that slows the simulator
   slows this loop too, so measured time divided by its time is steadier
   than either alone.  It allocates only short-lived blocks, so it does
   not make the major GC do work for the simulator's heap. *)
let table = Array.make (1 lsl 21) 0
let frames = Array.init 4096 (fun i -> Bytes.make 4096 (Char.chr (i land 0xff)))

let calibrate () =
  let mask = Array.length table - 1 and x = ref 0x2545F491 in
  for _ = 1 to 50_000 do
    let v = !x in
    let v = v lxor ((v lsl 13) land 0xffff_ffff) in
    let v = v lxor (v lsr 17) in
    let v = v lxor ((v lsl 5) land 0xffff_ffff) in
    x := v;
    let i = v land mask in
    Array.unsafe_set table i (Array.unsafe_get table i + 1)
  done;
  for i = 1 to 10_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fff_ffff;
    ignore
      (Sys.opaque_identity (Bytes.sub frames.(!x land 4095) (i land 1023) 512))
  done

(* A "Vm...:" line of /proc/self/status, in kB. *)
let status_kb field =
  let ic = open_in "/proc/self/status" in
  let prefix = field ^ ":" in
  let n = String.length prefix in
  let rec loop () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = prefix ->
      Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB"
        Fun.id
    | _ -> loop ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop

(* Host ns that [Drive.lib] adds to its sum for an empty stretch: the
   cost of its own clock and counter reads. *)
let empty_lib_ns (d : Drive.t) =
  let n = 100_000 and ns0 = d.Drive.lib_ns in
  for _ = 1 to n do Drive.lib d ignore done;
  float_of_int (d.Drive.lib_ns - ns0) /. float_of_int n

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let ints l = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) l)

let snapshot (d : Drive.t) =
  let s = d.Drive.sys.Vm_sys.stats in
  let pm = Mach_pmap.Pmap_domain.total_stats d.Drive.kernel.Kernel.domain in
  let rc = Resident.counters d.Drive.sys.Vm_sys.resident in
  [ ("fault.faults", s.Vm_sys.faults);
    ("fault.zero_fills", s.Vm_sys.zero_fills);
    ("fault.cow_copies", s.Vm_sys.cow_copies);
    ("fault.fast_reloads", s.Vm_sys.fast_reloads);
    ("fault.burst_mapped", s.Vm_sys.burst_mapped);
    ("object.shadows_created", s.Vm_sys.shadows_created);
    ("object.collapses", s.Vm_sys.collapses);
    ("object.cache_hits", s.Vm_sys.cache_hits);
    ("object.cache_misses", s.Vm_sys.cache_misses);
    ("object.lock_stalls", s.Vm_sys.lock_stalls);
    ("pageout.pageouts", s.Vm_sys.pageouts);
    ("pageout.reactivations", s.Vm_sys.reactivations);
    ("pageout.clustered", s.Vm_sys.clustered_pageouts);
    ("pageout.alloc_waits", s.Vm_sys.alloc_waits);
    ("pageout.oom_kills", s.Vm_sys.oom_kills);
    ("cluster.prefetch_issued", s.Vm_sys.prefetch_issued);
    ("cluster.prefetch_hits", s.Vm_sys.prefetch_hits);
    ("cluster.prefetch_wasted", s.Vm_sys.prefetch_wasted);
    ("cluster.stream_resets", s.Vm_sys.stream_resets);
    ("pager.reads", s.Vm_sys.pager_reads);
    ("pager.retries", s.Vm_sys.pager_retries);
    ("pmap.enters",
     pm.Mach_pmap.Pmap.enters + d.Drive.exited.Mach_pmap.Pmap.enters);
    ("pmap.removals",
     pm.Mach_pmap.Pmap.removals + d.Drive.exited.Mach_pmap.Pmap.removals);
    ("resident.pcpu_hits", rc.Resident.pcpu_hits);
    ("resident.page_steals", rc.Resident.page_steals) ]

(* Everything simulated, in cycles and counts: identical for every
   process given one seed. *)
let sim_results (d : Drive.t) ~before ~lat =
  let m = d.Drive.machine in
  let ms = Machine.stats m in
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let n = Array.length sorted in
  ints
    (List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (snapshot d)
     @ [ ("hw.faults", ms.Machine.faults); ("hw.ipis", ms.Machine.ipis);
         ("hw.shootdowns", ms.Machine.shootdowns);
         ("hw.tlb_hits", ms.Machine.tlb_hit_count);
         ("hw.tlb_misses", ms.Machine.tlb_miss_count);
         ("disk.ops", ms.Machine.disk_ops);
         ("disk.bytes", ms.Machine.disk_bytes);
         ("disk.wait_cycles", ms.Machine.disk_wait_cycles);
         ("pager.swap_used", d.Drive.sys.Vm_sys.swap_used);
         ("resident.free_pages_min", d.Drive.free_min);
         ("sim.oom_killed_tasks", Drive.oom_killed d);
         ("sim.cycles_per_ms", (Machine.arch m).Arch.cycles_per_ms);
         ("sim.max_cycles", Machine.max_cycles m);
         ("sim.measured_ops", n);
         ("sim.op_p50_cycles", percentile sorted 0.50);
         ("sim.op_p99_cycles", percentile sorted 0.99);
         ("sim.ops_beyond_p99",
          let p99 = percentile sorted 0.99 in
          Array.fold_left (fun k c -> if c > p99 then k + 1 else k) 0 sorted)
       ])

(* Host ns per call, by the name of the library function ([count] and
   [sum] each); accesses are split by whether they faulted. *)
let layer_ns (d : Drive.t) =
  let tbl = Hashtbl.create 32 in
  let add k ns =
    let n, sum = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0) in
    Hashtbl.replace tbl k (n + 1, sum + ns)
  in
  List.iter
    (fun (s : Drive.span) ->
       let ns = s.Drive.sp_t1 - s.Drive.sp_t0 in
       match s.Drive.sp_name with
       | "Machine.touch" | "Machine.read" | "Machine.write" ->
         add (if s.Drive.sp_faults = 0 then "hw.touch_hit_ns"
              else "fault.touch_fault_ns") ns
       | "Pmap.remove" -> add "pmap.remove_ns" ns
       | "Kernel.fork_task" -> add "object.fork_ns" ns
       | "Vm_user.allocate" -> add "map.allocate_ns" ns
       | "Vm_user.deallocate" -> add "map.deallocate_ns" ns
       | "Vnode_pager.map_file" -> add "map.exec_ns" ns
       | "Vnode_pager.read_through_object" -> add "pager.read_ns" ns
       | _ -> ())
    d.Drive.spans;
  J.Obj
    (Hashtbl.fold
       (fun k (n, sum) acc -> (k, ints [ ("count", n); ("sum", sum) ]) :: acc)
       tbl [])

(* Simulated cycles per attribution category, summed over CPUs, and
   whether every CPU's categories sum to its clock. *)
let attribution (d : Drive.t) =
  let m = d.Drive.machine in
  let tr = Machine.tracer m in
  let conserved = ref true in
  for cpu = 0 to Machine.cpu_count m - 1 do
    if Obs.attr_cpu_total tr ~cpu <> Machine.cycles m ~cpu then
      conserved := false
  done;
  ( !conserved,
    ints
      (List.map (fun c -> (Obs.category_name c, Obs.attr_grand_total tr c))
         Obs.categories) )

let write_spans path (d : Drive.t) =
  let base =
    List.fold_left (fun b (s : Drive.span) -> min b s.Drive.sp_t0) max_int
      d.Drive.spans
  in
  let span (s : Drive.span) =
    J.Obj
      [ ("id", J.Int s.Drive.sp_id); ("parent", J.Int s.Drive.sp_parent);
        ("op", J.Int s.Drive.sp_op); ("name", J.Str s.Drive.sp_name);
        ("cpu", J.Int s.Drive.sp_cpu);
        ("host_start_ns", J.Int (s.Drive.sp_t0 - base));
        ("host_end_ns", J.Int (s.Drive.sp_t1 - base));
        ("sim_start_cycles", J.Int s.Drive.sp_c0);
        ("sim_end_cycles", J.Int s.Drive.sp_c1);
        ("faults", J.Int s.Drive.sp_faults) ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "{\"spans\":[\n";
      List.iteri
        (fun i s ->
           if i > 0 then output_string oc ",\n";
           output_string oc (J.to_string (span s)))
        (List.rev d.Drive.spans);
      output_string oc "\n]}\n")

let run ~workload ~seed ~tracing ~spans =
  let w = Gen.make ~name:workload ~seed in
  Gc.compact ();
  (* Memory held so far (the workload, the calibration buffers) is the
     benchmark's own: peak RSS is reported above this. *)
  let base_rss_kb = status_kb "VmRSS" in
  let t0 = Drive.now_ns () in
  let d = Drive.boot ~tracing w in
  Array.iter (fun op -> ignore (Drive.step d op)) w.Gen.setup;
  let setup_ns = Drive.now_ns () - t0 in
  let m = d.Drive.machine in
  (* Measure from here: clocks, machine statistics and attribution are
     zeroed together, so the conservation check is exact. *)
  Machine.reset_clocks m;
  d.Drive.free_min <- Resident.free_count d.Drive.sys.Vm_sys.resident;
  d.Drive.spans <- [];
  d.Drive.lib_ns <- 0;
  d.Drive.lib_words <- 0;
  d.Drive.lib_calls <- 0;
  let before = snapshot d in
  let n = Array.length w.Gen.ops in
  let lat = Array.make n 0 in
  let gc0 = Gc.quick_stat () in
  let run_ns = ref 0 and calib_ns = ref 0 in
  for b = 0 to batches - 1 do
    let lo = n * b / batches and hi = n * (b + 1) / batches in
    let t0 = Drive.now_ns () in
    for i = lo to hi - 1 do
      lat.(i) <- Drive.step d w.Gen.ops.(i)
    done;
    let t1 = Drive.now_ns () in
    calibrate ();
    run_ns := !run_ns + (t1 - t0);
    calib_ns := !calib_ns + (Drive.now_ns () - t1)
  done;
  let gc1 = Gc.quick_stat () in
  let peak_rss_kb = status_kb "VmHWM" - base_rss_kb in
  let lib_ns = d.Drive.lib_ns and lib_words = d.Drive.lib_words in
  let lib_calls = d.Drive.lib_calls in
  let empty_ns = empty_lib_ns d in
  let conserved, attr =
    if tracing then attribution d else (true, J.Obj [])
  in
  Option.iter (fun p -> write_spans p d) spans;
  let result =
    J.Obj
      [ ("workload", J.Str workload); ("seed", J.Int seed);
        ("traced", J.Bool tracing);
        ("attempted", J.Int d.Drive.attempted);
        ("failed", J.Int d.Drive.failed);
        ("first_error",
         match d.Drive.first_error with None -> J.Null | Some e -> J.Str e);
        ("sim", sim_results d ~before ~lat);
        ("host",
         ints
           [ ("setup_ns", setup_ns); ("run_ns", !run_ns);
             ("lib_ns", lib_ns); ("calib_ns", !calib_ns);
             ("lib_calls", lib_calls);
             ("empty_lib_ps", int_of_float (empty_ns *. 1000.));
             ("peak_rss_kb", peak_rss_kb); ("base_rss_kb", base_rss_kb);
             ("lib_minor_words", lib_words);
             ("gc_major_collections",
              gc1.Gc.major_collections - gc0.Gc.major_collections);
             ("gc_top_heap_words", gc1.Gc.top_heap_words) ]);
        ("layer_ns", if tracing then layer_ns d else J.Obj []);
        ("attr_cycles", attr); ("attr_conserved", J.Bool conserved) ]
  in
  print_endline (J.to_string result)

let () =
  let workload = ref "" and seed = ref 1 in
  let tracing = ref false and spans = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME fork_compile|mp_shared|overcommit");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--trace", Arg.Set tracing, " enable the Obs tracer and call spans");
      ("--spans", Arg.Set_string spans, "FILE write the call spans here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--trace] [--spans FILE]";
  if not (List.mem_assoc !workload Gen.workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~tracing:!tracing
    ~spans:(if !spans = "" then None else Some !spans)
