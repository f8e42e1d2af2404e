(* Tests for the machine-dependent pmap layer: the Table 3-3 contract
   across all five architectures, the pmap-as-cache property, and the
   architecture-specific behaviours of Section 5.1. *)

open Mach_hw
open Mach_pmap

let archs =
  [ Arch.uvax2; Arch.rt_pc; Arch.sun3_160; Arch.ns32082; Arch.rp3_tlb ]

let setup arch =
  let machine = Machine.create ~arch ~memory_frames:256 ~cpus:2 () in
  let domain = Pmap_domain.create machine in
  (machine, domain)

let page arch = arch.Arch.hw_page_size

(* Run [f] once per architecture, as separate alcotest cases. *)
let per_arch name f =
  List.map
    (fun arch ->
       Alcotest.test_case
         (Printf.sprintf "%s [%s]" name arch.Arch.name)
         `Quick
         (fun () -> f arch))
    archs

(* ---- the common Table 3-3 contract ------------------------------------- *)

let test_enter_extract arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.enter ~va:(3 * ps) ~pfn:7 ~frames:1 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (option int)) "extract" (Some 7) (p.Pmap.extract (3 * ps));
  Alcotest.(check (option int)) "extract mid-page" (Some 7)
    (p.Pmap.extract ((3 * ps) + (ps / 2)));
  Alcotest.(check (option int)) "unmapped" None (p.Pmap.extract (9 * ps));
  Alcotest.(check bool) "access_check" true (p.Pmap.access_check (3 * ps));
  Alcotest.(check int) "resident" 1 (p.Pmap.resident_count ())

let test_remove_range arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  for i = 0 to 9 do
    p.Pmap.enter ~va:(i * ps) ~pfn:(10 + i) ~frames:1 ~prot:Prot.read_write
      ~wired:false
  done;
  p.Pmap.remove ~start_va:(2 * ps) ~end_va:(5 * ps);
  Alcotest.(check (option int)) "below kept" (Some 11) (p.Pmap.extract ps);
  Alcotest.(check (option int)) "removed" None (p.Pmap.extract (3 * ps));
  Alcotest.(check (option int)) "above kept" (Some 15)
    (p.Pmap.extract (5 * ps));
  Alcotest.(check int) "resident" 7 (p.Pmap.resident_count ())

let test_replace_mapping arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.enter ~va:0 ~pfn:1 ~frames:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.enter ~va:0 ~pfn:2 ~frames:1 ~prot:Prot.read_only ~wired:false;
  Alcotest.(check (option int)) "replaced" (Some 2) (p.Pmap.extract 0);
  Alcotest.(check int) "one mapping" 1 (p.Pmap.resident_count ());
  (* The pv layer tracks the replacement too. *)
  Alcotest.(check int) "old frame unmapped" 0
    (Pmap_domain.mapping_count domain ~pfn:1);
  Alcotest.(check int) "new frame mapped" 1
    (Pmap_domain.mapping_count domain ~pfn:2)

let test_destroy_clears_pv arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.enter ~va:0 ~pfn:5 ~frames:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.enter ~va:ps ~pfn:6 ~frames:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.destroy ();
  Alcotest.(check int) "pv empty 5" 0 (Pmap_domain.mapping_count domain ~pfn:5);
  Alcotest.(check int) "pv empty 6" 0 (Pmap_domain.mapping_count domain ~pfn:6);
  Alcotest.(check bool) "unregistered" true
    (Pmap_domain.find_pmap domain ~asid:p.Pmap.asid = None)

let test_remove_all arch =
  let _m, domain = setup arch in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  let ps = page arch in
  (* On the RT PC two pmaps cannot both map frame 9 (one mapping per
     physical page), so only p1 maps there and the common contract is
     checked: remove_all empties the pv list. *)
  p1.Pmap.enter ~va:0 ~pfn:9 ~frames:1 ~prot:Prot.read_write ~wired:false;
  if arch.Arch.kind <> Arch.Rt_pc then
    p2.Pmap.enter ~va:(4 * ps) ~pfn:9 ~frames:1
      ~prot:Prot.read_write ~wired:false;
  Alcotest.(check bool) "mapped" true
    (Pmap_domain.mapping_count domain ~pfn:9 >= 1);
  Pmap_domain.remove_all domain ~pfn:9 ~frames:1 ~urgent:true;
  Alcotest.(check int) "all gone" 0 (Pmap_domain.mapping_count domain ~pfn:9);
  Alcotest.(check (option int)) "p1 dropped" None (p1.Pmap.extract 0);
  Alcotest.(check (option int)) "p2 dropped" None (p2.Pmap.extract (4 * ps))

(* The page-level operations act on a run of frames: here the 8 uVAX II
   frames of one 4 KB machine-independent page, mapped in two pmaps (p1
   active on CPU 0, p2 on CPU 1).  Each mapped frame is one exchange; an
   unmapped run costs nothing. *)
let test_page_run () =
  let arch = Arch.uvax2 in
  let machine, domain = setup arch in
  let ps = page arch and base = 16 and frames = 8 in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  p1.Pmap.activate ~cpu:0;
  p2.Pmap.activate ~cpu:1;
  for f = 0 to frames - 1 do
    p1.Pmap.enter ~va:(f * ps) ~pfn:(base + f) ~frames:1 ~prot:Prot.read_write
      ~wired:false;
    p2.Pmap.enter ~va:((64 + f) * ps) ~pfn:(base + f) ~frames:1
      ~prot:Prot.read_write
      ~wired:false
  done;
  let pv_entries () =
    List.fold_left ( + ) 0
      (List.init frames (fun f ->
           Pmap_domain.mapping_count domain ~pfn:(base + f)))
  in
  let bit test ~pfn = test domain ~pfn ~frames:1 in
  Alcotest.(check int) "16 pv entries" 16 (pv_entries ());
  Alcotest.(check bool) "clean page" false
    (Pmap_domain.is_modified domain ~pfn:base ~frames);
  Machine.set_fault_handler machine (fun ~cpu:_ _ ->
      Alcotest.fail "unexpected fault");
  Machine.write_byte machine ~cpu:0 ~va:(5 * ps) 'd';
  Alcotest.(check bool) "one dirty frame dirties the page" true
    (Pmap_domain.is_modified domain ~pfn:base ~frames);
  Alcotest.(check bool) "frames before it are clean" false
    (Pmap_domain.is_modified domain ~pfn:base ~frames:5);
  for f = 0 to frames - 1 do
    Machine.write_byte machine ~cpu:1 ~va:((64 + f) * ps) 'w'
  done;
  Pmap_domain.clear_modified domain ~pfn:base ~frames;
  Pmap_domain.clear_referenced domain ~pfn:base ~frames;
  for f = 0 to frames - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "frame %d bits cleared" f)
      false
      (bit Pmap_domain.is_modified ~pfn:(base + f)
       || bit Pmap_domain.is_referenced ~pfn:(base + f))
  done;
  let cycles () =
    Machine.cycles machine ~cpu:0 + Machine.cycles machine ~cpu:1
  in
  Machine.reset_clocks machine;
  Pmap_domain.remove_all domain ~pfn:base ~frames ~urgent:false;
  Alcotest.(check int) "all 16 pv entries dropped" 0 (pv_entries ());
  Alcotest.(check int) "one shootdown per mapped frame" frames
    (Machine.stats machine).Machine.shootdowns;
  Alcotest.(check (option int)) "p1 unmapped" None (p1.Pmap.extract (7 * ps));
  Alcotest.(check (option int)) "p2 unmapped" None
    (p2.Pmap.extract (71 * ps));
  Machine.reset_clocks machine;
  Pmap_domain.remove_all domain ~pfn:base ~frames ~urgent:true;
  Pmap_domain.copy_on_write domain ~pfn:base ~frames;
  Alcotest.(check int) "unmapped run: no shootdown" 0
    (Machine.stats machine).Machine.shootdowns;
  Alcotest.(check int) "unmapped run: no cycles" 0 (cycles ())

let test_protect_lowers arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.activate ~cpu:0;
  p.Pmap.enter ~va:0 ~pfn:3 ~frames:1 ~prot:Prot.read_write ~wired:false;
  (* The handler reloads dropped mappings at the currently intended
     protection (the fast-reload path on TLB-only machines) and records
     genuine protection faults. *)
  let cur_prot = ref Prot.read_write in
  let prot_faults = ref 0 in
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      (match f.Machine.fault_kind with
       | `Protection -> incr prot_faults
       | `Invalid -> ());
      p.Pmap.enter ~va:0 ~pfn:3 ~frames:1 ~prot:!cur_prot ~wired:false);
  ignore (Machine.read_byte machine ~cpu:0 ~va:0);
  Machine.write_byte machine ~cpu:0 ~va:0 'x';
  Alcotest.(check int) "no protection faults before" 0 !prot_faults;
  p.Pmap.protect ~start_va:0 ~end_va:ps ~prot:Prot.read_only;
  cur_prot := Prot.read_only;
  (* Reads still work; a write now protection-faults. *)
  ignore (Machine.read_byte machine ~cpu:0 ~va:0);
  Alcotest.(check int) "read needs no protection fault" 0 !prot_faults;
  cur_prot := Prot.read_write;
  Machine.write_byte machine ~cpu:0 ~va:0 'y';
  Alcotest.(check bool) "write faulted after protect" true (!prot_faults >= 1)

let test_copy_on_write_all_maps arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.enter ~va:0 ~pfn:3 ~frames:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.activate ~cpu:0;
  Pmap_domain.copy_on_write domain ~pfn:3 ~frames:1;
  let faulted = ref false in
  Machine.set_fault_handler machine (fun ~cpu:_ _ ->
      faulted := true;
      p.Pmap.enter ~va:0 ~pfn:3 ~frames:1 ~prot:Prot.read_write ~wired:false);
  Machine.write_byte machine ~cpu:0 ~va:0 'y';
  Alcotest.(check bool) "write faulted after pmap_copy_on_write" true
    !faulted

(* The central property: a pmap may drop any non-wired mapping at any
   time, because machine-independent state can rebuild it at fault time.
   Here the rebuild is simulated by a fault handler that re-enters from a
   model table; memory contents must be unaffected. *)
let test_pmap_is_a_cache arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  let model = Hashtbl.create 16 in
  for i = 0 to 7 do
    Hashtbl.replace model i (20 + i);
    p.Pmap.enter ~va:(i * ps) ~pfn:(20 + i) ~frames:1 ~prot:Prot.read_write
      ~wired:false
  done;
  p.Pmap.activate ~cpu:0;
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      let vpn = f.Machine.fault_va / ps in
      match Hashtbl.find_opt model vpn with
      | Some pfn ->
        p.Pmap.enter ~va:(vpn * ps) ~pfn ~frames:1
          ~prot:Prot.read_write ~wired:false
      | None -> Alcotest.fail "fault outside model");
  for i = 0 to 7 do
    Machine.write machine ~cpu:0 ~va:(i * ps)
      (Bytes.of_string (Printf.sprintf "page%03d" i))
  done;
  (* Drop everything, then observe identical contents. *)
  p.Pmap.collect ();
  Alcotest.(check int) "all dropped" 0 (p.Pmap.resident_count ());
  for i = 0 to 7 do
    Alcotest.(check string)
      (Printf.sprintf "contents %d" i)
      (Printf.sprintf "page%03d" i)
      (Bytes.to_string (Machine.read machine ~cpu:0 ~va:(i * ps) ~len:7))
  done;
  Alcotest.(check bool) "drops counted" true
    (p.Pmap.stats.Pmap.cache_drops >= 8)

let test_modify_reference_bits arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.activate ~cpu:0;
  p.Pmap.enter ~va:0 ~pfn:4 ~frames:1 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check bool) "initially clean" false
    (Pmap_domain.is_modified domain ~pfn:4 ~frames:1);
  ignore (Machine.read_byte machine ~cpu:0 ~va:0);
  Alcotest.(check bool) "referenced" true
    (Pmap_domain.is_referenced domain ~pfn:4 ~frames:1);
  Alcotest.(check bool) "not modified by read" false
    (Pmap_domain.is_modified domain ~pfn:4 ~frames:1);
  Machine.write_byte machine ~cpu:0 ~va:0 'm';
  Alcotest.(check bool) "modified" true
    (Pmap_domain.is_modified domain ~pfn:4 ~frames:1);
  Pmap_domain.clear_modified domain ~pfn:4 ~frames:1;
  Pmap_domain.clear_referenced domain ~pfn:4 ~frames:1;
  Alcotest.(check bool) "cleared" false
    (Pmap_domain.is_modified domain ~pfn:4 ~frames:1
     || Pmap_domain.is_referenced domain ~pfn:4 ~frames:1)

let test_activate_switches arch =
  let machine, domain = setup arch in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  (* Reload handler for architectures whose mappings live only in TLBs. *)
  let active = ref p1 in
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      let p = !active in
      match p.Pmap.extract f.Machine.fault_va with
      | Some pfn ->
        p.Pmap.enter ~va:f.Machine.fault_va ~pfn ~frames:1 ~prot:Prot.read_write
          ~wired:false
      | None -> Alcotest.fail "fault on unmapped address");
  p1.Pmap.enter ~va:0 ~pfn:1 ~frames:1 ~prot:Prot.read_write ~wired:false;
  p2.Pmap.enter ~va:0 ~pfn:2 ~frames:1 ~prot:Prot.read_write ~wired:false;
  Phys_mem.write (Machine.phys machine) 1 ~offset:0 (Bytes.of_string "one");
  Phys_mem.write (Machine.phys machine) 2 ~offset:0 (Bytes.of_string "two");
  p1.Pmap.activate ~cpu:0;
  Alcotest.(check string) "p1 view" "one"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:0 ~len:3));
  p1.Pmap.deactivate ~cpu:0;
  active := p2;
  p2.Pmap.activate ~cpu:0;
  Alcotest.(check string) "p2 view" "two"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:0 ~len:3))

let test_zero_copy_page arch =
  let machine, domain = setup arch in
  let phys = Machine.phys machine in
  Phys_mem.write phys 1 ~offset:0 (Bytes.of_string "zzz");
  Pmap_domain.copy_page domain ~src:1 ~dst:2;
  Alcotest.(check bool) "copied" true (Phys_mem.frame_equal phys 1 2);
  Pmap_domain.zero_page domain ~pfn:1;
  Alcotest.(check char) "zeroed" '\000' (Phys_mem.read_byte phys 1 ~offset:0)

let test_wired_survives_collect arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.enter ~va:0 ~pfn:3 ~frames:1 ~prot:Prot.read_write ~wired:true;
  p.Pmap.enter ~va:ps ~pfn:4 ~frames:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.collect ();
  Alcotest.(check (option int)) "wired kept" (Some 3) (p.Pmap.extract 0);
  Alcotest.(check (option int)) "unwired dropped" None (p.Pmap.extract ps);
  Alcotest.(check int) "one left" 1 (p.Pmap.resident_count ())

let test_remove_empty_range arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.enter ~va:0 ~pfn:3 ~frames:1 ~prot:Prot.read_write ~wired:false;
  (* Removing a range with no mappings is a harmless no-op. *)
  p.Pmap.remove ~start_va:(10 * ps) ~end_va:(20 * ps);
  Alcotest.(check int) "untouched" 1 (p.Pmap.resident_count ())

let test_double_activate_idempotent arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.enter ~va:0 ~pfn:2 ~frames:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.activate ~cpu:0;
  p.Pmap.activate ~cpu:0;
  Machine.set_fault_handler machine (fun ~cpu:_ _ ->
      p.Pmap.enter ~va:0 ~pfn:2 ~frames:1 ~prot:Prot.read_write ~wired:false);
  Machine.write_byte machine ~cpu:0 ~va:0 'a';
  Alcotest.(check char) "works" 'a' (Machine.read_byte machine ~cpu:0 ~va:0)

let test_reference_counting arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.enter ~va:0 ~pfn:3 ~frames:1 ~prot:Prot.read_write ~wired:false;
  (* Two tasks share the pmap: the first destroy only drops a
     reference. *)
  p.Pmap.reference ();
  p.Pmap.destroy ();
  Alcotest.(check (option int)) "still alive" (Some 3) (p.Pmap.extract 0);
  Alcotest.(check bool) "still registered" true
    (Pmap_domain.find_pmap domain ~asid:p.Pmap.asid <> None);
  p.Pmap.destroy ();
  Alcotest.(check bool) "gone after last reference" true
    (Pmap_domain.find_pmap domain ~asid:p.Pmap.asid = None);
  Alcotest.(check int) "pv cleaned" 0 (Pmap_domain.mapping_count domain ~pfn:3)

(* ---- architecture-specific behaviours ----------------------------------- *)

let test_vax_table_gc () =
  let _m, domain = setup Arch.uvax2 in
  let p = Pmap_domain.create_pmap domain in
  let base = p.Pmap.map_bytes () in
  (* Map two pages far apart: two table pages appear; removing the
     mappings garbage collects them. *)
  p.Pmap.enter ~va:0 ~pfn:1 ~frames:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.enter ~va:(100 * 1024 * 1024) ~pfn:2 ~frames:1 ~prot:Prot.read_write
    ~wired:false;
  Alcotest.(check bool) "tables grew" true (p.Pmap.map_bytes () > base);
  p.Pmap.remove ~start_va:0 ~end_va:512;
  p.Pmap.remove ~start_va:(100 * 1024 * 1024)
    ~end_va:((100 * 1024 * 1024) + 512);
  Alcotest.(check int) "tables collected" base (p.Pmap.map_bytes ())

let test_rtpc_alias_eviction () =
  let _m, domain = setup Arch.rt_pc in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  let ps = page Arch.rt_pc in
  p1.Pmap.enter ~va:0 ~pfn:9 ~frames:1 ~prot:Prot.read_write ~wired:false;
  (* p2 mapping the same physical page evicts p1's mapping. *)
  p2.Pmap.enter ~va:(5 * ps) ~pfn:9 ~frames:1 ~prot:Prot.read_only ~wired:false;
  Alcotest.(check (option int)) "p1 evicted" None (p1.Pmap.extract 0);
  Alcotest.(check (option int)) "p2 mapped" (Some 9)
    (p2.Pmap.extract (5 * ps));
  Alcotest.(check int) "alias eviction counted" 1
    p2.Pmap.stats.Pmap.alias_evictions;
  Alcotest.(check int) "exactly one mapping" 1
    (Pmap_domain.mapping_count domain ~pfn:9);
  (* Bouncing back evicts p2 in turn. *)
  p1.Pmap.enter ~va:0 ~pfn:9 ~frames:1 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (option int)) "p2 evicted back" None
    (p2.Pmap.extract (5 * ps))

let test_rtpc_map_bytes_constant () =
  let _m, domain = setup Arch.rt_pc in
  let p = Pmap_domain.create_pmap domain in
  let before = Pmap_domain.total_map_bytes domain in
  for i = 0 to 19 do
    p.Pmap.enter ~va:(i * 2048 * 1000) ~pfn:i ~frames:1 ~prot:Prot.read_write
      ~wired:false
  done;
  (* The inverted table never grows with address-space size. *)
  Alcotest.(check int) "constant" before (Pmap_domain.total_map_bytes domain)

let test_sun3_context_steal () =
  let _m, domain = setup Arch.sun3_160 in
  let ps = page Arch.sun3_160 in
  (* 9 pmaps compete for 8 contexts. *)
  let pmaps = List.init 9 (fun _ -> Pmap_domain.create_pmap domain) in
  List.iteri
    (fun i p ->
       p.Pmap.enter ~va:0 ~pfn:i ~frames:1 ~prot:Prot.read_write ~wired:false)
    pmaps;
  (* The 9th enter stole the least-recently-used context (the first
     pmap's); its mappings are gone and will be rebuilt by faults. *)
  let first = List.hd pmaps in
  let ninth = List.nth pmaps 8 in
  Alcotest.(check (option int)) "victim lost mappings" None
    (first.Pmap.extract 0);
  Alcotest.(check (option int)) "thief mapped" (Some 8)
    (ninth.Pmap.extract 0);
  Alcotest.(check int) "steal counted" 1 ninth.Pmap.stats.Pmap.context_steals;
  Alcotest.(check int) "victim pv cleaned" 0
    (Pmap_domain.mapping_count domain ~pfn:0);
  (* The victim coming back steals another context and can re-enter. *)
  first.Pmap.enter ~va:ps ~pfn:20 ~frames:1 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (option int)) "victim recovered" (Some 20)
    (first.Pmap.extract ps)

let test_ns32082_limits () =
  let _m, domain = setup Arch.ns32082 in
  let p = Pmap_domain.create_pmap domain in
  Alcotest.check_raises "VA beyond 16MB"
    (Invalid_argument "pmap_enter: virtual address beyond hardware limit")
    (fun () ->
       p.Pmap.enter ~va:(17 * 1024 * 1024) ~pfn:1 ~frames:1
         ~prot:Prot.read_write
         ~wired:false);
  (* In-range addresses and frames work normally. *)
  p.Pmap.enter ~va:0 ~pfn:1 ~frames:1 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (option int)) "in range ok" (Some 1) (p.Pmap.extract 0)

let test_ns32082_pa_limit () =
  (* Build a machine larger than 32 MB of physical memory: frames beyond
     the limit must be rejected by pmap_enter. *)
  let arch = Arch.ns32082 in
  let frames = (40 * 1024 * 1024) / arch.Arch.hw_page_size in
  let machine = Machine.create ~arch ~memory_frames:frames () in
  let domain = Pmap_domain.create machine in
  let p = Pmap_domain.create_pmap domain in
  let beyond = (33 * 1024 * 1024) / arch.Arch.hw_page_size in
  Alcotest.check_raises "PA beyond 32MB"
    (Invalid_argument "pmap_enter: physical page beyond hardware limit")
    (fun () ->
       p.Pmap.enter ~va:0 ~pfn:beyond ~frames:1
         ~prot:Prot.read_write ~wired:false)

let test_tlbonly_no_structures () =
  let machine, domain = setup Arch.rp3_tlb in
  let p = Pmap_domain.create_pmap domain in
  let ps = page Arch.rp3_tlb in
  p.Pmap.activate ~cpu:0;
  p.Pmap.enter ~va:0 ~pfn:3 ~frames:1 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check int) "map_bytes 0" 0 (p.Pmap.map_bytes ());
  (* First access hits the TLB that enter filled; no fault. *)
  Machine.set_fault_handler machine (fun ~cpu:_ _ ->
      Alcotest.fail "unexpected fault");
  Machine.write_byte machine ~cpu:0 ~va:8 'q';
  (* Evict by filling the TLB with other translations, then the next
     access must fault to software for reload. *)
  let reloads = ref 0 in
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      incr reloads;
      let vpn = f.Machine.fault_va / ps in
      match p.Pmap.extract (vpn * ps) with
      | Some pfn ->
        p.Pmap.enter ~va:(vpn * ps) ~pfn ~frames:1
          ~prot:Prot.read_write ~wired:false
      | None -> Alcotest.fail "no soft mapping");
  for i = 1 to Arch.rp3_tlb.Arch.tlb_entries + 4 do
    p.Pmap.enter ~va:(i * ps) ~pfn:(3 + i) ~frames:1 ~prot:Prot.read_write
      ~wired:false
  done;
  Alcotest.(check char) "data survives reload" 'q'
    (Machine.read_byte machine ~cpu:0 ~va:8);
  Alcotest.(check bool) "reload happened" true (!reloads >= 1)

(* ---- qcheck: random op sequences vs a model ----------------------------- *)

(* Apply random enter/remove ops to a (non-RT) pmap and a Hashtbl model;
   extract must agree afterwards.  The RT PC is excluded because foreign
   pmaps can evict mappings; it has its own tests above. *)
let pmap_model_test arch =
  let open QCheck2 in
  Test.make
    ~name:(Printf.sprintf "pmap agrees with model [%s]" arch.Arch.name)
    ~count:60
    Gen.(list (triple (int_range 0 2) (int_range 0 19) (int_range 0 49)))
    (fun ops ->
       let _m, domain = setup arch in
       let p = Pmap_domain.create_pmap domain in
       let ps = page arch in
       let model = Hashtbl.create 16 in
       List.iter
         (fun (op, vpn, pfn) ->
            match op with
            | 0 ->
              p.Pmap.enter ~va:(vpn * ps) ~pfn ~frames:1 ~prot:Prot.read_write
                ~wired:false;
              Hashtbl.replace model vpn pfn
            | 1 ->
              p.Pmap.remove ~start_va:(vpn * ps) ~end_va:((vpn + 1) * ps);
              Hashtbl.remove model vpn
            | _ ->
              (* range remove of three pages *)
              p.Pmap.remove ~start_va:(vpn * ps) ~end_va:((vpn + 3) * ps);
              Hashtbl.remove model vpn;
              Hashtbl.remove model (vpn + 1);
              Hashtbl.remove model (vpn + 2))
         ops;
       let ok = ref true in
       for vpn = 0 to 25 do
         let expected = Hashtbl.find_opt model vpn in
         if p.Pmap.extract (vpn * ps) <> expected then ok := false
       done;
       !ok && p.Pmap.resident_count () = Hashtbl.length model)

let model_archs = [ Arch.uvax2; Arch.sun3_160; Arch.ns32082; Arch.rp3_tlb ]

(* The linear page-table pmap (VAX, NS32082) against a map model, with
   range operations narrow enough to walk the covering table pages one by
   one and wide enough to walk the sorted table pages instead, plus the
   whole-space sweeps of collect and destroy.  After every operation:
   extract over the whole span, resident count, table-page bytes, the
   Pmap.stats counters, and what the MMU actually lets a read and a write
   do through the (shot-down) TLB. *)
type table_op =
  | T_enter of int * int * Prot.t * bool
  | T_remove of int * int
  | T_protect of int * int * Prot.t
  | T_collect

let show_table_op = function
  | T_enter (vpn, pfn, prot, wired) ->
    Printf.sprintf "enter(%d->%d %s%s)" vpn pfn (Prot.to_string prot)
      (if wired then " wired" else "")
  | T_remove (lo, hi) -> Printf.sprintf "remove[%d,%d)" lo hi
  | T_protect (lo, hi, prot) ->
    Printf.sprintf "protect[%d,%d) %s" lo hi (Prot.to_string prot)
  | T_collect -> "collect"

let table_pmap_range_test arch =
  let open QCheck2 in
  let ptes = page arch / arch.Arch.pte_bytes in
  let span = 6 * ptes in
  let vpn =
    Gen.(map2 (fun idx off -> (idx * ptes) + off) (int_range 0 5)
           (oneof [ oneofl [ 0; 1; ptes - 2; ptes - 1 ];
                    int_range 0 (ptes - 1) ]))
  in
  let range =
    Gen.(map2 (fun lo len -> (lo, lo + len)) vpn
           (oneof [ int_range 1 3; int_range ptes (5 * ptes) ]))
  in
  let prot =
    Gen.oneofl
      [ Prot.none; Prot.read_only; Prot.read_write; Prot.read_execute;
        Prot.all ]
  in
  let op =
    Gen.(frequency
           [ (8, map3 (fun (v, pfn) prot wired -> T_enter (v, pfn, prot, wired))
                   (pair vpn (int_range 0 255)) prot
                   (frequency [ (4, pure false); (1, pure true) ]));
             (3, map (fun (lo, hi) -> T_remove (lo, hi)) range);
             (3, map2 (fun (lo, hi) p -> T_protect (lo, hi, p)) range prot);
             (1, pure T_collect) ])
  in
  Test.make
    ~name:(Printf.sprintf "table pmap ranges agree with model [%s]"
             arch.Arch.name)
    ~count:60
    ~print:(fun ops -> String.concat "; " (List.map show_table_op ops))
    Gen.(list_size (int_range 1 40) op)
    (fun ops ->
       let m, domain = setup arch in
       let p = Pmap_domain.create_pmap domain in
       p.Pmap.activate ~cpu:0;
       let ps = page arch in
       let base_bytes = p.Pmap.map_bytes () in
       let model = Hashtbl.create 64 in
       let enters = ref 0 and removals = ref 0 and protects = ref 0 in
       let drops = ref 0 in
       let drop_if f =
         let doomed =
           Hashtbl.fold (fun v e acc -> if f v e then v :: acc else acc)
             model []
         in
         List.iter (Hashtbl.remove model) doomed;
         removals := !removals + List.length doomed;
         List.length doomed
       in
       let mmu_allows va ~write =
         match Machine.translate m ~cpu:0 ~va ~write with
         | pfn -> Some pfn
         | exception Machine.Memory_violation _ -> None
       in
       let agrees () =
         let ok = ref true in
         for v = 0 to span + (5 * ptes) do
           let expected =
             Option.map (fun (pfn, _, _) -> pfn) (Hashtbl.find_opt model v)
           in
           if p.Pmap.extract (v * ps) <> expected then ok := false
         done;
         Hashtbl.iter
           (fun v (pfn, prot, _) ->
              let via write =
                if Prot.allows prot ~write then Some pfn else None
              in
              if mmu_allows (v * ps) ~write:false <> via false
              || mmu_allows (v * ps) ~write:true <> via true
              then ok := false)
           model;
         let table_pages =
           Hashtbl.fold (fun v _ acc -> (v / ptes) :: acc) model []
           |> List.sort_uniq compare |> List.length
         in
         let s = p.Pmap.stats in
         !ok
         && p.Pmap.resident_count () = Hashtbl.length model
         && p.Pmap.map_bytes () = base_bytes + (table_pages * ps)
         && s.Pmap.enters = !enters
         && s.Pmap.removals = !removals
         && s.Pmap.protect_ops = !protects
         && s.Pmap.cache_drops = !drops
       in
       let step = function
         | T_enter (v, pfn, prot, wired) ->
           p.Pmap.enter ~va:(v * ps) ~pfn ~frames:1 ~prot ~wired;
           incr enters;
           (match Hashtbl.find_opt model v with
            | Some (old, _, _) when old <> pfn -> incr removals
            | Some _ | None -> ());
           Hashtbl.replace model v (pfn, prot, wired)
         | T_remove (lo, hi) ->
           p.Pmap.remove ~start_va:(lo * ps) ~end_va:(hi * ps);
           ignore (drop_if (fun v _ -> v >= lo && v < hi))
         | T_protect (lo, hi, prot) ->
           p.Pmap.protect ~start_va:(lo * ps) ~end_va:(hi * ps) ~prot;
           incr protects;
           Hashtbl.filter_map_inplace
             (fun v (pfn, old, wired) ->
                if v >= lo && v < hi then Some (pfn, Prot.inter old prot, wired)
                else Some (pfn, old, wired))
             model
         | T_collect ->
           p.Pmap.collect ();
           drops := !drops + drop_if (fun _ (_, _, wired) -> not wired)
       in
       List.for_all (fun o -> step o; agrees ()) ops
       &&
       (p.Pmap.destroy ();
        p.Pmap.resident_count () = 0
        && p.Pmap.map_bytes () = base_bytes
        && List.for_all
             (fun pfn -> Pmap_domain.mapping_count domain ~pfn = 0)
             (List.init 256 Fun.id)))

(* ---- page runs ----------------------------------------------------------- *)

(* [enter ~frames:n] must be exactly [n] one-frame enters in ascending
   order.  Twin domains replay the same history — a second pmap mapping
   the run's frames first (so pv lists hold two entries), a prelude in
   the first pmap — and then one enters the run as one call, the other
   frame by frame.  Both pmaps run on both CPUs, so replacing a cached
   translation costs IPIs.  Afterwards everything observable must agree:
   the raised exception, extract, pv lists and their order, counters,
   cycles, shootdowns and IPIs. *)
type run = { vpn : int; pfn : int; frames : int; prot : Prot.t }

let run_cases arch =
  let ps = page arch in
  let ptes =
    if arch.Arch.pte_bytes > 0 then ps / arch.Arch.pte_bytes else 64
  in
  let run ?(prot = Prot.read_write) vpn pfn frames =
    { vpn; pfn; frames; prot }
  in
  let past_limit =
    match arch.Arch.kind with
    | Arch.Rt_pc -> run 2 253 8 (* the inverted table has 256 frames *)
    | Arch.Tlb_only -> run (-3) 10 8 (* no limit but non-negative va *)
    | Arch.Vax | Arch.Sun3 | Arch.Ns32082 ->
      run ((arch.Arch.user_va_limit / ps) - 3) 10 8
  in
  [ ("fresh run", [], run 2 10 8);
    ("same frames, lower protection", [ run 2 10 8 ],
     run ~prot:Prot.read_only 2 10 8);
    ("other frames", [ run 2 10 8 ], run 2 40 8);
    ("over a lone mapping", [ run 2 10 1 ], run 2 40 8);
    ("across a table page", [ run (ptes - 1) 60 1 ], run (ptes - 3) 10 8);
    ("past the hardware limit", [ run 2 30 1 ], past_limit) ]

let twin_check arch ~memory_frames (case, prelude, r) =
  let ps = page arch in
  let boot () =
    let m = Machine.create ~arch ~memory_frames ~cpus:2 () in
    let d = Pmap_domain.create m in
    let pa = Pmap_domain.create_pmap d and pb = Pmap_domain.create_pmap d in
    pa.Pmap.activate ~cpu:0;
    pb.Pmap.activate ~cpu:1;
    pa.Pmap.activate ~cpu:1;
    for i = 0 to r.frames - 1 do
      (* Frames the hardware cannot map stay unmapped here. *)
      try
        pb.Pmap.enter ~va:((200 + i) * ps) ~pfn:(r.pfn + i) ~frames:1
          ~prot:Prot.read_write ~wired:false
      with Invalid_argument _ -> ()
    done;
    List.iter
      (fun q ->
         for i = 0 to q.frames - 1 do
           pa.Pmap.enter ~va:((q.vpn + i) * ps) ~pfn:(q.pfn + i) ~frames:1
             ~prot:q.prot ~wired:false
         done)
      prelude;
    (m, d, pa)
  in
  let attempt f = match f () with () -> None | exception e -> Some e in
  let m1, d1, p1 = boot () and m2, d2, p2 = boot () in
  let raised1 =
    attempt (fun () ->
        p1.Pmap.enter ~va:(r.vpn * ps) ~pfn:r.pfn ~frames:r.frames
          ~prot:r.prot ~wired:false)
  in
  let raised2 =
    attempt (fun () ->
        for i = 0 to r.frames - 1 do
          p2.Pmap.enter ~va:((r.vpn + i) * ps) ~pfn:(r.pfn + i) ~frames:1
            ~prot:r.prot ~wired:false
        done)
  in
  let vpns =
    List.concat_map
      (fun q -> List.init (q.frames + 4) (fun i -> q.vpn - 2 + i))
      (r :: prelude)
  in
  let pfns =
    List.concat_map
      (fun q -> List.init (q.frames + 4) (fun i -> q.pfn - 2 + i))
      (r :: prelude)
    |> List.filter (fun pfn -> pfn >= 0 && pfn < memory_frames)
  in
  let observe m d p =
    let s = p.Pmap.stats and st = Machine.stats m in
    ( List.map (fun v -> p.Pmap.extract (v * ps)) vpns,
      List.map (fun pfn -> Pmap_domain.mappings_of d ~pfn) pfns,
      [ s.Pmap.enters; s.Pmap.removals; s.Pmap.protect_ops;
        s.Pmap.alias_evictions; s.Pmap.context_steals; s.Pmap.cache_drops;
        p.Pmap.resident_count (); p.Pmap.map_bytes ();
        Machine.cycles m ~cpu:0; Machine.cycles m ~cpu:1;
        st.Machine.shootdowns; st.Machine.ipis ] )
  in
  let show = Option.map Printexc.to_string in
  let what s = case ^ ": " ^ s in
  Alcotest.(check (option string)) (what "same exception") (show raised2)
    (show raised1);
  let x1, pv1, n1 = observe m1 d1 p1 and x2, pv2, n2 = observe m2 d2 p2 in
  Alcotest.(check (list (option int))) (what "extract") x2 x1;
  Alcotest.(check (list (list (pair int int))))
    (what "pv lists, in order") pv2 pv1;
  Alcotest.(check (list int))
    (what "counters, resident, bytes, cycles, shootdowns, IPIs") n2 n1

let test_run_equivalence arch =
  List.iter (twin_check arch ~memory_frames:256) (run_cases arch)

(* The NS32082 reaches only 32 MB of physical memory: a run across that
   limit on a larger machine raises at the first frame beyond it. *)
let test_run_equivalence_pa_limit () =
  let arch = Arch.ns32082 in
  let ps = page arch in
  let limit = (32 * 1024 * 1024) / ps in
  twin_check arch ~memory_frames:((40 * 1024 * 1024) / ps)
    ( "past the physical limit",
      [],
      { vpn = 2; pfn = limit - 3; frames = 8; prot = Prot.read_write } )

(* Traced, a run still leaves one Pmap_enter event per frame. *)
let test_run_traced () =
  let arch = Arch.uvax2 in
  let m, d = setup arch in
  let tr = Mach_obs.Obs.create () in
  Mach_obs.Obs.set_enabled tr true;
  Machine.set_tracer m tr;
  let p = Pmap_domain.create_pmap d in
  let ps = page arch in
  p.Pmap.enter ~va:(4 * ps) ~pfn:16 ~frames:8 ~prot:Prot.read_write
    ~wired:false;
  let enters = ref [] in
  Mach_obs.Ring.iter
    (fun r ->
       match r.Mach_obs.Obs.ev with
       | Mach_obs.Obs.Pmap_enter { va; pfn; _ } ->
         enters := (va / ps, pfn) :: !enters
       | _ -> ())
    (Mach_obs.Obs.ring tr);
  Alcotest.(check (list (pair int int))) "one event per frame"
    (List.init 8 (fun i -> (4 + i, 16 + i)))
    (List.rev !enters)

(* Exchange counts pinned on a 4-CPU VAX 8200: a page of 8 frames mapped
   in two pmaps, one run on CPUs 0-1, the other on CPUs 2-3, the kernel
   on CPU 0.  Each mapped frame is exactly one exchange whatever the
   number of pmaps mapping it, each reaching the 3 remote CPUs once; a
   frame mapped in one pmap reaches only that pmap's remote CPU.  Pv
   lists put the newest mapping first. *)
let test_exchange_counts () =
  let arch = Arch.vax8200 in
  let machine =
    Machine.create ~arch ~memory_frames:256 ~cpus:4 ()
  in
  let domain = Pmap_domain.create machine in
  let ps = page arch and base = 16 and frames = 8 in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  List.iter (fun cpu -> p1.Pmap.activate ~cpu) [ 0; 1 ];
  List.iter (fun cpu -> p2.Pmap.activate ~cpu) [ 2; 3 ];
  let map_both () =
    p1.Pmap.enter ~va:0 ~pfn:base ~frames ~prot:Prot.read_write ~wired:false;
    p2.Pmap.enter ~va:(64 * ps) ~pfn:base ~frames ~prot:Prot.read_write
      ~wired:false
  in
  let counts f =
    Machine.reset_clocks machine;
    f ();
    let s = Machine.stats machine in
    (s.Machine.shootdowns, s.Machine.ipis)
  in
  map_both ();
  for f = 0 to frames - 1 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "frame %d: newest first" f)
      [ (p2.Pmap.asid, 64 + f); (p1.Pmap.asid, f) ]
      (Pmap_domain.mappings_of domain ~pfn:(base + f))
  done;
  Alcotest.(check (pair int int)) "copy_on_write: 8 exchanges, 24 IPIs"
    (frames, 3 * frames)
    (counts (fun () -> Pmap_domain.copy_on_write domain ~pfn:base ~frames));
  Alcotest.(check (list (pair int int))) "protecting keeps the order"
    [ (p2.Pmap.asid, 64); (p1.Pmap.asid, 0) ]
    (Pmap_domain.mappings_of domain ~pfn:base);
  Alcotest.(check (pair int int)) "remove_all: 8 exchanges, 24 IPIs"
    (frames, 3 * frames)
    (counts (fun () ->
         Pmap_domain.remove_all domain ~pfn:base ~frames ~urgent:false));
  Alcotest.(check int) "all unmapped" 0
    (Pmap_domain.mapping_count domain ~pfn:base);
  p1.Pmap.enter ~va:0 ~pfn:base ~frames ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (pair int int)) "one pmap: 8 exchanges, 8 IPIs"
    (frames, frames)
    (counts (fun () ->
         Pmap_domain.remove_all domain ~pfn:base ~frames ~urgent:true));
  Alcotest.(check (pair int int)) "unmapped page: nothing" (0, 0)
    (counts (fun () -> Pmap_domain.copy_on_write domain ~pfn:base ~frames))

(* Asids are never reused and keys hold them in 22 bits: the last asid a
   key can hold is handed out, and the pmap creation after it fails.  An
   entry of that asid at the highest vpn survives packing. *)
let test_asid_limit () =
  let machine =
    Machine.create ~arch:Arch.rp3_tlb ~memory_frames:16 ~cpus:1 ()
  in
  let ctx = Backend.create machine in
  let last = Tlb.asid_limit - 1 and top_vpn = (1 lsl 40) - 1 in
  ctx.Backend.next_asid <- last;
  Alcotest.(check int) "last asid handed out" last (Backend.fresh_asid ctx);
  Alcotest.check_raises "then creation fails"
    (Invalid_argument "pmap_create: asids exhausted") (fun () ->
        ignore (Backend.fresh_asid ctx));
  Pv.insert ctx.Backend.pv ~pfn:3 ~asid:last ~vpn:top_vpn;
  Alcotest.(check (list (pair int int))) "entry unpacks"
    [ (last, top_vpn) ]
    (List.map
       (fun m -> (Pv.asid_of m, Pv.vpn_of m))
       (Pv.mappings ctx.Backend.pv ~pfn:3));
  Alcotest.check_raises "a vpn past 40 bits is refused"
    (Invalid_argument "Pv.insert: asid or virtual page out of range")
    (fun () -> Pv.insert ctx.Backend.pv ~pfn:3 ~asid:1 ~vpn:(1 lsl 40));
  Pv.remove ctx.Backend.pv ~pfn:3 ~asid:last ~vpn:top_vpn;
  Alcotest.(check int) "removed" 0 (Pv.mapping_count ctx.Backend.pv ~pfn:3)

let () =
  Alcotest.run "mach_pmap"
    [ ("enter/extract", per_arch "enter/extract" test_enter_extract);
      ("remove", per_arch "remove range" test_remove_range);
      ("replace", per_arch "replace mapping" test_replace_mapping);
      ("destroy", per_arch "destroy clears pv" test_destroy_clears_pv);
      ( "remove_all",
        per_arch "remove_all" test_remove_all
        @ [ Alcotest.test_case "page run of 8 frames" `Quick test_page_run ] );
      ("protect", per_arch "protect lowers" test_protect_lowers);
      ( "copy_on_write",
        per_arch "pmap_copy_on_write" test_copy_on_write_all_maps );
      ("cache", per_arch "pmap is a cache" test_pmap_is_a_cache);
      ("bits", per_arch "modify/reference bits" test_modify_reference_bits);
      ("activate", per_arch "activate switches" test_activate_switches);
      ("page ops", per_arch "zero/copy page" test_zero_copy_page);
      ("wired", per_arch "wired survives collect" test_wired_survives_collect);
      ("empty remove", per_arch "remove empty range" test_remove_empty_range);
      ( "reactivate",
        per_arch "double activate" test_double_activate_idempotent );
      ("refcount", per_arch "pmap_reference" test_reference_counting);
      ( "page run",
        per_arch "run equals single frames" test_run_equivalence
        @ [ Alcotest.test_case "run equals single frames, NS32082 PA limit"
              `Quick test_run_equivalence_pa_limit;
            Alcotest.test_case "traced run: one event per frame" `Quick
              test_run_traced;
            Alcotest.test_case "VAX 8200 exchange counts" `Quick
              test_exchange_counts;
            Alcotest.test_case "asid limit" `Quick test_asid_limit ] );
      ( "vax",
        [ Alcotest.test_case "page tables grow and collect" `Quick
            test_vax_table_gc ] );
      ( "rt_pc",
        [ Alcotest.test_case "alias eviction" `Quick test_rtpc_alias_eviction;
          Alcotest.test_case "map bytes constant" `Quick
            test_rtpc_map_bytes_constant ] );
      ( "sun3",
        [ Alcotest.test_case "context steal" `Quick test_sun3_context_steal ]
      );
      ( "ns32082",
        [ Alcotest.test_case "VA limit" `Quick test_ns32082_limits;
          Alcotest.test_case "PA limit" `Quick test_ns32082_pa_limit ] );
      ( "tlb_only",
        [ Alcotest.test_case "no hardware structures" `Quick
            test_tlbonly_no_structures ] );
      ( "model",
        List.map
          (fun arch -> QCheck_alcotest.to_alcotest (pmap_model_test arch))
          model_archs
        @ List.map
            (fun arch ->
               QCheck_alcotest.to_alcotest (table_pmap_range_test arch))
            [ Arch.uvax2; Arch.ns32082 ] ) ]
