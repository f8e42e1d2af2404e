(* Tests for mach_hw: protections, physical memory, TLB and the machine's
   translation/fault/shootdown behaviour. *)

open Mach_hw

(* ---- Prot -------------------------------------------------------------- *)

let prot_gen =
  QCheck2.Gen.(
    map3
      (fun r w x -> Prot.make ~read:r ~write:w ~execute:x)
      bool bool bool)

let prot_qcheck name f = QCheck2.Test.make ~name ~count:200 prot_gen f

let prot_pair_qcheck name f =
  QCheck2.Test.make ~name ~count:200 (QCheck2.Gen.pair prot_gen prot_gen) f

let test_prot_constants () =
  Alcotest.(check bool) "none is none" true (Prot.is_none Prot.none);
  Alcotest.(check bool) "rw not none" false (Prot.is_none Prot.read_write);
  Alcotest.(check string) "pp all" "rwx" (Prot.to_string Prot.all);
  Alcotest.(check string) "pp ro" "r--" (Prot.to_string Prot.read_only);
  Alcotest.(check string) "pp rx" "r-x" (Prot.to_string Prot.read_execute)

let test_prot_allows () =
  Alcotest.(check bool) "ro allows read" true
    (Prot.allows Prot.read_only ~write:false);
  Alcotest.(check bool) "ro rejects write" false
    (Prot.allows Prot.read_only ~write:true);
  Alcotest.(check bool) "rw allows write" true
    (Prot.allows Prot.read_write ~write:true);
  Alcotest.(check bool) "none rejects read" false
    (Prot.allows Prot.none ~write:false)

let test_prot_remove_write () =
  Alcotest.(check bool) "no write" false
    (Prot.allows (Prot.remove_write Prot.all) ~write:true);
  Alcotest.(check bool) "keeps read" true
    (Prot.allows (Prot.remove_write Prot.all) ~write:false)

let prot_lattice_tests =
  [ prot_pair_qcheck "inter is subset of both" (fun (p, q) ->
        Prot.subset (Prot.inter p q) ~of_:p
        && Prot.subset (Prot.inter p q) ~of_:q);
    prot_pair_qcheck "union contains both" (fun (p, q) ->
        Prot.subset p ~of_:(Prot.union p q)
        && Prot.subset q ~of_:(Prot.union p q));
    prot_qcheck "subset reflexive" (fun p -> Prot.subset p ~of_:p);
    prot_qcheck "none subset of all" (fun p ->
        Prot.subset Prot.none ~of_:p && Prot.subset p ~of_:Prot.all);
    prot_pair_qcheck "inter commutative" (fun (p, q) ->
        Prot.equal (Prot.inter p q) (Prot.inter q p));
    prot_qcheck "remove_write idempotent" (fun p ->
        Prot.equal
          (Prot.remove_write (Prot.remove_write p))
          (Prot.remove_write p)) ]

(* ---- Phys_mem ----------------------------------------------------------- *)

let test_phys_rw () =
  let m = Phys_mem.create ~page_size:512 ~frames:8 () in
  Phys_mem.write m 3 ~offset:100 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Phys_mem.read m 3 ~offset:100 ~len:5));
  Alcotest.(check char) "byte" 'e' (Phys_mem.read_byte m 3 ~offset:101)

let test_phys_zero_copy () =
  let m = Phys_mem.create ~page_size:128 ~frames:4 () in
  Phys_mem.write m 0 ~offset:0 (Bytes.make 128 'z');
  Phys_mem.copy_frame m ~src:0 ~dst:1;
  Alcotest.(check bool) "copied" true (Phys_mem.frame_equal m 0 1);
  Phys_mem.zero_frame m 0;
  Alcotest.(check char) "zeroed" '\000' (Phys_mem.read_byte m 0 ~offset:50);
  Alcotest.(check bool) "now differ" false (Phys_mem.frame_equal m 0 1)

let test_phys_holes () =
  let m = Phys_mem.create ~page_size:512 ~frames:10 ~holes:[ (4, 6) ] () in
  Alcotest.(check bool) "3 exists" true (Phys_mem.frame_exists m 3);
  Alcotest.(check bool) "5 absent" false (Phys_mem.frame_exists m 5);
  Alcotest.(check int) "present count" 7
    (List.length (Phys_mem.present_frames m));
  Alcotest.check_raises "access hole"
    (Invalid_argument "Phys_mem: access to absent frame") (fun () ->
        ignore (Phys_mem.read m 5 ~offset:0 ~len:1))

let test_phys_bounds () =
  let m = Phys_mem.create ~page_size:64 ~frames:2 () in
  Alcotest.check_raises "overrun"
    (Invalid_argument "Phys_mem.read: out of frame") (fun () ->
        ignore (Phys_mem.read m 0 ~offset:60 ~len:8))

let test_phys_bad_page_size () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Phys_mem.create: page size must be a power of two")
    (fun () -> ignore (Phys_mem.create ~page_size:100 ~frames:2 ()))

let test_phys_lazy_reads () =
  let m = Phys_mem.create ~page_size:64 ~frames:4 () in
  let materialized = Phys_mem.materialized_frames in
  Alcotest.(check string) "never written reads zeros" (String.make 8 '\000')
    (Bytes.to_string (Phys_mem.read m 2 ~offset:10 ~len:8));
  Alcotest.(check char) "byte is zero" '\000'
    (Phys_mem.read_byte m 2 ~offset:63);
  let buf = Bytes.make 6 'x' in
  Phys_mem.blit_out m 2 ~offset:0 ~dst:buf ~dst_off:2 ~len:4;
  Alcotest.(check string) "blit_out zeros" "xx\000\000\000\000"
    (Bytes.to_string buf);
  Phys_mem.zero_frame m 2;
  Phys_mem.copy_frame m ~src:1 ~dst:2;
  Alcotest.(check bool) "equal zero frames" true (Phys_mem.frame_equal m 1 2);
  Alcotest.(check int) "reads, zero and copy materialize nothing" 0
    (materialized m);
  Phys_mem.write_byte m 3 ~offset:5 'q';
  Alcotest.(check int) "one write, one frame" 1 (materialized m);
  Phys_mem.write m 3 ~offset:0 (Bytes.of_string "ab");
  Phys_mem.zero_frame m 3;
  Alcotest.(check int) "zeroing keeps the storage" 1 (materialized m);
  Alcotest.(check bool) "zeroed in place" true (Phys_mem.frame_equal m 3 0);
  Alcotest.(check bool) "zero image intact" true
    (Phys_mem.zero_image_intact m)

let test_phys_copy_from_zero () =
  let m = Phys_mem.create ~page_size:64 ~frames:3 () in
  Phys_mem.write m 1 ~offset:0 (Bytes.make 64 'z');
  Phys_mem.copy_frame m ~src:0 ~dst:1;
  Alcotest.(check bool) "destination zeroed" true (Phys_mem.frame_equal m 0 1);
  Phys_mem.blit_in m 2 ~offset:4 ~src:(Bytes.of_string "hello") ~src_off:1
    ~len:3;
  Alcotest.(check string) "blit_in lands at offset" "\000ell\000"
    (Bytes.to_string (Phys_mem.read m 2 ~offset:3 ~len:5));
  Alcotest.(check int) "two frames written" 2
    (Phys_mem.materialized_frames m);
  Alcotest.(check bool) "zero image intact" true
    (Phys_mem.zero_image_intact m)

let test_phys_holes_every_accessor () =
  let m = Phys_mem.create ~page_size:64 ~frames:4 ~holes:[ (2, 2) ] () in
  let buf = Bytes.create 8 in
  let absent name f =
    Alcotest.check_raises name
      (Invalid_argument "Phys_mem: access to absent frame") f
  in
  absent "read" (fun () -> ignore (Phys_mem.read m 2 ~offset:0 ~len:1));
  absent "write" (fun () -> Phys_mem.write m 2 ~offset:0 buf);
  absent "read_byte" (fun () -> ignore (Phys_mem.read_byte m 2 ~offset:0));
  absent "write_byte" (fun () -> Phys_mem.write_byte m 2 ~offset:0 'a');
  absent "blit_in" (fun () ->
      Phys_mem.blit_in m 2 ~offset:0 ~src:buf ~src_off:0 ~len:8);
  absent "blit_out" (fun () ->
      Phys_mem.blit_out m 2 ~offset:0 ~dst:buf ~dst_off:0 ~len:8);
  absent "zero_frame" (fun () -> Phys_mem.zero_frame m 2);
  absent "copy_frame src" (fun () -> Phys_mem.copy_frame m ~src:2 ~dst:0);
  absent "copy_frame dst" (fun () -> Phys_mem.copy_frame m ~src:0 ~dst:2);
  absent "frame_equal" (fun () -> ignore (Phys_mem.frame_equal m 0 2));
  Alcotest.(check int) "nothing materialized" 0
    (Phys_mem.materialized_frames m)

let test_phys_blit_bounds () =
  let m = Phys_mem.create ~page_size:64 ~frames:2 () in
  let buf = Bytes.create 16 in
  let raises name msg f = Alcotest.check_raises name (Invalid_argument msg) f in
  raises "blit_in past frame end" "Phys_mem.blit_in: out of frame" (fun () ->
      Phys_mem.blit_in m 0 ~offset:60 ~src:buf ~src_off:0 ~len:8);
  raises "blit_in negative offset" "Phys_mem.blit_in: out of frame"
    (fun () -> Phys_mem.blit_in m 0 ~offset:(-1) ~src:buf ~src_off:0 ~len:1);
  raises "blit_in past source end" "Phys_mem.blit_in: out of buffer"
    (fun () -> Phys_mem.blit_in m 0 ~offset:0 ~src:buf ~src_off:12 ~len:8);
  raises "blit_out past frame end" "Phys_mem.blit_out: out of frame"
    (fun () -> Phys_mem.blit_out m 1 ~offset:0 ~dst:buf ~dst_off:0 ~len:65);
  raises "blit_out negative length" "Phys_mem.blit_out: out of frame"
    (fun () -> Phys_mem.blit_out m 1 ~offset:0 ~dst:buf ~dst_off:0 ~len:(-1));
  raises "blit_out past buffer end" "Phys_mem.blit_out: out of buffer"
    (fun () -> Phys_mem.blit_out m 1 ~offset:0 ~dst:buf ~dst_off:(-1) ~len:4);
  raises "write_byte past frame end" "Phys_mem.write_byte: out of frame"
    (fun () -> Phys_mem.write_byte m 0 ~offset:64 'a');
  Alcotest.(check int) "rejected writes materialize nothing" 0
    (Phys_mem.materialized_frames m)

(* ---- Tlb ----------------------------------------------------------------- *)

let entry ~asid ~vpn ~pfn = { Tlb.asid; vpn; pfn; prot = Prot.read_write }

let test_tlb_hit_miss () =
  let t = Tlb.create ~capacity:4 in
  Alcotest.(check bool) "miss" true (Tlb.lookup t ~asid:1 ~vpn:5 = None);
  Tlb.insert t (entry ~asid:1 ~vpn:5 ~pfn:9);
  (match Tlb.lookup t ~asid:1 ~vpn:5 with
   | Some e -> Alcotest.(check int) "pfn" 9 e.Tlb.pfn
   | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "hits" 1 (Tlb.hits t);
  Alcotest.(check int) "misses" 1 (Tlb.misses t)

let test_tlb_fifo_eviction () =
  let t = Tlb.create ~capacity:2 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.insert t (entry ~asid:1 ~vpn:2 ~pfn:2);
  Tlb.insert t (entry ~asid:1 ~vpn:3 ~pfn:3);
  Alcotest.(check bool) "oldest gone" true (Tlb.lookup t ~asid:1 ~vpn:1 = None);
  Alcotest.(check bool) "newest present" true
    (Tlb.lookup t ~asid:1 ~vpn:3 <> None)

let test_tlb_replace_same_key () =
  let t = Tlb.create ~capacity:2 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:42);
  (match Tlb.lookup t ~asid:1 ~vpn:1 with
   | Some e -> Alcotest.(check int) "updated" 42 e.Tlb.pfn
   | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "one entry" 1 (List.length (Tlb.entries t))

let test_tlb_invalidate () =
  let t = Tlb.create ~capacity:8 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.insert t (entry ~asid:1 ~vpn:2 ~pfn:2);
  Tlb.insert t (entry ~asid:2 ~vpn:1 ~pfn:3);
  Tlb.invalidate_page t ~asid:1 ~vpn:1;
  Alcotest.(check bool) "page gone" true (Tlb.lookup t ~asid:1 ~vpn:1 = None);
  Tlb.invalidate_asid t ~asid:1;
  Alcotest.(check bool) "asid gone" true (Tlb.lookup t ~asid:1 ~vpn:2 = None);
  Alcotest.(check bool) "other asid stays" true
    (Tlb.lookup t ~asid:2 ~vpn:1 <> None);
  Tlb.invalidate_all t;
  Alcotest.(check int) "empty" 0 (List.length (Tlb.entries t))

let test_tlb_zero_capacity () =
  let t = Tlb.create ~capacity:0 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Alcotest.(check bool) "never caches" true (Tlb.lookup t ~asid:1 ~vpn:1 = None)

(* A translation invalidated and then inserted again is one translation:
   [entries] must not list it once per queue slot it ever had. *)
let test_tlb_entries_once () =
  let t = Tlb.create ~capacity:4 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.invalidate_page t ~asid:1 ~vpn:1;
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:2);
  Alcotest.(check (list (pair int int))) "listed once" [ (1, 2) ]
    (List.map (fun e -> (e.Tlb.vpn, e.Tlb.pfn)) (Tlb.entries t))

(* The documented deviation from strict FIFO: a re-inserted translation
   takes over its invalidated predecessor's queue slot, so it is evicted
   before an entry that was inserted after that predecessor. *)
let test_tlb_reinsert_keeps_old_slot () =
  let t = Tlb.create ~capacity:2 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.insert t (entry ~asid:1 ~vpn:2 ~pfn:2);
  Tlb.invalidate_page t ~asid:1 ~vpn:1;
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.insert t (entry ~asid:1 ~vpn:3 ~pfn:3);
  Alcotest.(check bool) "re-inserted 1 evicted" true
    (Tlb.lookup t ~asid:1 ~vpn:1 = None);
  Alcotest.(check bool) "2 stays" true (Tlb.lookup t ~asid:1 ~vpn:2 <> None);
  Alcotest.(check (list int)) "eviction order" [ 2; 3 ]
    (List.map (fun e -> e.Tlb.vpn) (Tlb.entries t))

(* A list model of the TLB's replacement semantics: a table of live
   translations and the queue of keys in insertion order, dead keys
   included, compacted to first occurrences of live keys once it grows
   past twice the capacity.  The TLB must agree with it on every lookup,
   the hit and miss counts and the [entries] order. *)
module Tlb_model = struct
  type t = {
    cap : int;
    mutable live : ((int * int) * Tlb.entry) list;
    mutable queue : (int * int) list;  (* oldest first *)
    mutable hits : int;
    mutable misses : int;
  }

  let create cap = { cap; live = []; queue = []; hits = 0; misses = 0 }
  let mem m k = List.mem_assoc k m.live
  let remove m k = m.live <- List.remove_assoc k m.live

  let first_live m =
    List.fold_left
      (fun acc k ->
         if mem m k && not (List.mem k acc) then acc @ [ k ] else acc)
      [] m.queue

  let rec evict m =
    match m.queue with
    | [] -> ()
    | k :: rest ->
      m.queue <- rest;
      if mem m k then remove m k else evict m

  let insert m (e : Tlb.entry) =
    if m.cap > 0 then begin
      let k = (e.Tlb.asid, e.Tlb.vpn) in
      if not (mem m k) then begin
        if List.length m.live >= m.cap then evict m;
        if List.length m.queue > 2 * m.cap then m.queue <- first_live m;
        m.queue <- m.queue @ [ k ]
      end;
      m.live <- (k, e) :: List.remove_assoc k m.live
    end

  let lookup m ~asid ~vpn =
    match List.assoc_opt (asid, vpn) m.live with
    | Some e -> m.hits <- m.hits + 1; Some e
    | None -> m.misses <- m.misses + 1; None

  let drop m p = m.live <- List.filter (fun (k, _) -> not (p k)) m.live

  let entries m = List.map (fun k -> List.assoc k m.live) (first_live m)
end

type tlb_op =
  | Insert of int * int * int
  | Inval_page of int * int
  | Inval_range of int * int * int
  | Inval_asid of int
  | Inval_all
  | Lookup of int * int

let show_tlb_op = function
  | Insert (a, v, p) -> Printf.sprintf "insert(%d,%d->%d)" a v p
  | Inval_page (a, v) -> Printf.sprintf "inval_page(%d,%d)" a v
  | Inval_range (a, lo, hi) -> Printf.sprintf "inval_range(%d,[%d,%d))" a lo hi
  | Inval_asid a -> Printf.sprintf "inval_asid(%d)" a
  | Inval_all -> "inval_all"
  | Lookup (a, v) -> Printf.sprintf "lookup(%d,%d)" a v

let tlb_op_gen =
  let open QCheck2.Gen in
  let asid = int_range 1 3 and vpn = int_range 0 11 in
  frequency
    [ (6, map3 (fun a v p -> Insert (a, v, p)) asid vpn (int_range 0 99));
      (2, map2 (fun a v -> Inval_page (a, v)) asid vpn);
      (1, map3 (fun a lo n -> Inval_range (a, lo, lo + n)) asid vpn
            (int_range 0 14));
      (1, map (fun a -> Inval_asid a) asid);
      (1, pure Inval_all);
      (5, map2 (fun a v -> Lookup (a, v)) asid vpn) ]

let tlb_matches_model =
  QCheck2.Test.make ~name:"tlb replacement matches its list model" ~count:300
    ~print:(fun (cap, ops) ->
        Printf.sprintf "capacity %d: %s" cap
          (String.concat "; " (List.map show_tlb_op ops)))
    QCheck2.Gen.(pair (int_range 0 6) (list_size (int_range 0 80) tlb_op_gen))
    (fun (cap, ops) ->
       let t = Tlb.create ~capacity:cap and m = Tlb_model.create cap in
       List.for_all
         (fun op ->
            let agree_lookup =
              match op with
              | Insert (asid, vpn, pfn) ->
                let e = { Tlb.asid; vpn; pfn; prot = Prot.read_write } in
                Tlb.insert t e;
                Tlb_model.insert m e;
                true
              | Inval_page (asid, vpn) ->
                Tlb.invalidate_page t ~asid ~vpn;
                Tlb_model.drop m (fun k -> k = (asid, vpn));
                true
              | Inval_range (asid, lo_vpn, hi_vpn) ->
                Tlb.invalidate_range t ~asid ~lo_vpn ~hi_vpn;
                Tlb_model.drop m (fun (a, v) ->
                    a = asid && v >= lo_vpn && v < hi_vpn);
                true
              | Inval_asid asid ->
                Tlb.invalidate_asid t ~asid;
                Tlb_model.drop m (fun (a, _) -> a = asid);
                true
              | Inval_all ->
                Tlb.invalidate_all t;
                m.Tlb_model.live <- [];
                m.Tlb_model.queue <- [];
                true
              | Lookup (asid, vpn) ->
                Tlb.lookup t ~asid ~vpn = Tlb_model.lookup m ~asid ~vpn
            in
            agree_lookup
            && Tlb.hits t = m.Tlb_model.hits
            && Tlb.misses t = m.Tlb_model.misses
            && Tlb.entries t = Tlb_model.entries m)
         ops)

(* ---- Machine ------------------------------------------------------------ *)

(* A tiny translator over a mutable mapping table. *)
let make_translator ~asid table =
  { Translator.asid;
    lookup =
      (fun vpn ->
         match Hashtbl.find_opt table vpn with
         | Some (pfn, prot) -> Translator.Mapped { pfn; prot }
         | None -> Translator.Missing);
    walk_cost = 10 }

let test_machine ?(cpus = 1) () =
  Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus ()

let test_machine_translate_and_data () =
  let m = test_machine () in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (7, Prot.read_write);
  Hashtbl.replace table 1 (3, Prot.read_write);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  (* Write spanning the page boundary at 512. *)
  Machine.write m ~cpu:0 ~va:508 (Bytes.of_string "ABCDEFGH");
  Alcotest.(check string) "spanning read" "ABCDEFGH"
    (Bytes.to_string (Machine.read m ~cpu:0 ~va:508 ~len:8));
  (* Data physically landed in frames 7 then 3. *)
  Alcotest.(check string) "frame 7 tail" "ABCD"
    (Bytes.to_string (Phys_mem.read (Machine.phys m) 7 ~offset:508 ~len:4));
  Alcotest.(check string) "frame 3 head" "EFGH"
    (Bytes.to_string (Phys_mem.read (Machine.phys m) 3 ~offset:0 ~len:4))

let test_machine_fault_handler_repairs () =
  let m = test_machine () in
  let table = Hashtbl.create 8 in
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  let faults = ref 0 in
  Machine.set_fault_handler m (fun ~cpu:_ f ->
      incr faults;
      Hashtbl.replace table (f.Machine.fault_va / 512) (5, Prot.read_write));
  Machine.write_byte m ~cpu:0 ~va:100 'x';
  Alcotest.(check int) "one fault" 1 !faults;
  Alcotest.(check char) "then works" 'x' (Machine.read_byte m ~cpu:0 ~va:100);
  Alcotest.(check int) "no more faults" 1 !faults

let test_machine_violation_without_handler () =
  let m = test_machine () in
  Machine.set_translator m ~cpu:0
    (Some (make_translator ~asid:1 (Hashtbl.create 1)));
  (try
     ignore (Machine.read_byte m ~cpu:0 ~va:0);
     Alcotest.fail "expected violation"
   with Machine.Memory_violation _ -> ())

let test_machine_unresolved_fault () =
  let m = test_machine () in
  Machine.set_translator m ~cpu:0
    (Some (make_translator ~asid:1 (Hashtbl.create 1)));
  (* A handler that claims success but fixes nothing must not loop
     forever. *)
  Machine.set_fault_handler m (fun ~cpu:_ _ -> ());
  (try
     ignore (Machine.read_byte m ~cpu:0 ~va:0);
     Alcotest.fail "expected Unresolved_fault"
   with Machine.Unresolved_fault _ -> ())

let test_machine_protection_fault_on_write () =
  let m = test_machine () in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (2, Prot.read_only);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  let upgraded = ref false in
  Machine.set_fault_handler m (fun ~cpu:_ f ->
      Alcotest.(check bool) "protection kind" true
        (f.Machine.fault_kind = `Protection);
      upgraded := true;
      Hashtbl.replace table 0 (2, Prot.read_write));
  ignore (Machine.read_byte m ~cpu:0 ~va:8);
  Alcotest.(check bool) "read ok without fault" false !upgraded;
  Machine.write_byte m ~cpu:0 ~va:8 'w';
  Alcotest.(check bool) "write faulted and repaired" true !upgraded

let test_machine_clock_charging () =
  let m = test_machine ~cpus:2 () in
  Machine.charge m ~cpu:0 100;
  Machine.charge m ~cpu:1 250;
  Alcotest.(check int) "cpu0" 100 (Machine.cycles m ~cpu:0);
  Alcotest.(check int) "cpu1" 250 (Machine.cycles m ~cpu:1);
  Alcotest.(check int) "max" 250 (Machine.max_cycles m);
  Machine.reset_clocks m;
  Alcotest.(check int) "reset" 0 (Machine.max_cycles m)

let test_machine_disk_charge () =
  let m = test_machine () in
  Machine.charge_disk m ~cpu:0 ~write:false ~bytes:4096;
  let s = Machine.stats m in
  Alcotest.(check int) "ops" 1 s.Machine.disk_ops;
  Alcotest.(check int) "bytes" 4096 s.Machine.disk_bytes;
  Alcotest.(check bool) "charged" true (Machine.cycles m ~cpu:0 > 0)

let shootdown_setup strategy =
  let m =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus:2
      ~shootdown:strategy ()
  in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (7, Prot.read_write);
  let tr = make_translator ~asid:1 table in
  Machine.set_translator m ~cpu:0 (Some tr);
  Machine.set_translator m ~cpu:1 (Some tr);
  (* Warm both TLBs. *)
  ignore (Machine.read_byte m ~cpu:0 ~va:0);
  ignore (Machine.read_byte m ~cpu:1 ~va:0);
  (m, table)

let test_shootdown_immediate () =
  let m, table = shootdown_setup Machine.Immediate_ipi in
  Hashtbl.remove table 0;
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ]
    (Machine.Flush_page { asid = 1; vpn = 0 }) ~urgent:false;
  Alcotest.(check int) "one IPI" 1 (Machine.stats m).Machine.ipis;
  (* CPU 1's TLB entry is gone: the next access faults. *)
  Machine.set_fault_handler m (fun ~cpu:_ _ ->
      Hashtbl.replace table 0 (7, Prot.read_write));
  ignore (Machine.read_byte m ~cpu:1 ~va:0);
  Alcotest.(check int) "faulted" 1 (Machine.stats m).Machine.faults

let test_shootdown_deferred_waits () =
  let m, _table = shootdown_setup Machine.Deferred_timer in
  let before = Machine.cycles m ~cpu:0 in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ] (Machine.Flush_asid 1)
    ~urgent:false;
  Alcotest.(check int) "no IPIs" 0 (Machine.stats m).Machine.ipis;
  Alcotest.(check bool) "initiator waited for the tick" true
    (Machine.cycles m ~cpu:0 - before > 1000);
  Alcotest.(check int) "flush applied at tick" 0
    (Machine.pending_flushes m ~cpu:1)

let test_shootdown_lazy_stale () =
  let m, _table = shootdown_setup Machine.Lazy_local in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ]
    (Machine.Flush_page { asid = 1; vpn = 0 }) ~urgent:false;
  Alcotest.(check int) "pending on remote" 1
    (Machine.pending_flushes m ~cpu:1);
  (* CPU 1 still hits its stale entry; the machine counts it. *)
  ignore (Machine.read_byte m ~cpu:1 ~va:0);
  Alcotest.(check int) "stale use counted" 1
    (Machine.stats m).Machine.stale_tlb_uses;
  Machine.tick m;
  Alcotest.(check int) "drained" 0 (Machine.pending_flushes m ~cpu:1);
  Alcotest.(check bool) "deferred flush counted" true
    ((Machine.stats m).Machine.deferred_flushes >= 1)

let test_shootdown_urgent_overrides_lazy () =
  let m, _table = shootdown_setup Machine.Lazy_local in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ]
    (Machine.Flush_page { asid = 1; vpn = 0 }) ~urgent:true;
  Alcotest.(check int) "IPI despite lazy strategy" 1
    (Machine.stats m).Machine.ipis;
  Alcotest.(check int) "nothing pending" 0 (Machine.pending_flushes m ~cpu:1)

(* A shootdown with no remote target flushes the initiator's TLB alone:
   it counts once, interrupts nobody, and costs the same cycles whether
   or not it is traced. *)
let test_shootdown_local_only () =
  let run ~traced targets =
    let m, _table = shootdown_setup Machine.Immediate_ipi in
    if traced then begin
      let tr = Mach_obs.Obs.create () in
      Mach_obs.Obs.set_enabled tr true;
      Machine.set_tracer m tr
    end;
    Machine.shootdown m ~initiator:0 ~targets
      (Machine.Flush_page { asid = 1; vpn = 0 }) ~urgent:true;
    let s = Machine.stats m in
    ( [ s.Machine.shootdowns; s.Machine.ipis;
        Machine.cycles m ~cpu:0; Machine.cycles m ~cpu:1 ],
      [ List.length (Machine.tlb_contents m ~cpu:0);
        List.length (Machine.tlb_contents m ~cpu:1) ] )
  in
  List.iter
    (fun targets ->
       let counts, tlbs = run ~traced:false targets in
       Alcotest.(check (list int)) "initiator flushed, remote kept" [ 0; 1 ]
         tlbs;
       Alcotest.(check (list int)) "one exchange, no IPI" [ 1; 0 ]
         (List.filteri (fun i _ -> i < 2) counts);
       Alcotest.(check (pair (list int) (list int))) "same when traced"
         (counts, tlbs) (run ~traced:true targets))
    [ []; [ 0 ] ]

let test_rmw_bug_reporting () =
  (* On the NS32082, a write that protection-faults is reported as a
     read. *)
  let m = Machine.create ~arch:Arch.ns32082 ~memory_frames:64 () in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (1, Prot.read_only);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  let reported = ref None in
  Machine.set_fault_handler m (fun ~cpu:_ f ->
      reported := Some f.Machine.fault_write;
      Hashtbl.replace table 0 (1, Prot.read_write));
  Machine.write_byte m ~cpu:0 ~va:4 'w';
  Alcotest.(check (option bool)) "write reported as read" (Some false)
    !reported

let test_no_address_space () =
  let m = test_machine () in
  (try
     ignore (Machine.read_byte m ~cpu:0 ~va:0);
     Alcotest.fail "expected violation"
   with Machine.Memory_violation { reason; _ } ->
     Alcotest.(check string) "reason" "no address space" reason)

let test_tlb_used_on_second_access () =
  let m = test_machine () in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (7, Prot.read_write);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  ignore (Machine.read_byte m ~cpu:0 ~va:0);
  let misses = Machine.tlb_misses m in
  ignore (Machine.read_byte m ~cpu:0 ~va:4);
  Alcotest.(check int) "no new misses" misses (Machine.tlb_misses m);
  Alcotest.(check bool) "hit recorded" true (Machine.tlb_hits m >= 1)

(* ---- Arch sanity ---------------------------------------------------------- *)

let test_arch_catalogue () =
  Alcotest.(check int) "seven architectures" 7 (List.length Arch.all);
  let names = List.map (fun a -> a.Arch.name) Arch.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun a ->
       let p = a.Arch.hw_page_size in
       Alcotest.(check bool) (a.Arch.name ^ ": page power of two") true
         (p > 0 && p land (p - 1) = 0);
       Alcotest.(check bool) (a.Arch.name ^ ": positive clock") true
         (a.Arch.cycles_per_ms > 0);
       let c = a.Arch.cost in
       Alcotest.(check bool) (a.Arch.name ^ ": sane costs") true
         (c.Arch.mem_op > 0 && c.Arch.move_16b > 0
          && c.Arch.fault_overhead > 0 && c.Arch.disk_latency > 0))
    Arch.all

let test_cycles_to_ms () =
  Alcotest.(check (float 0.001)) "1 ms on uVAX II" 1.0
    (Arch.cycles_to_ms Arch.uvax2 Arch.uvax2.Arch.cycles_per_ms);
  Alcotest.(check (float 0.001)) "half ms" 0.5
    (Arch.cycles_to_ms Arch.vax8650 (Arch.vax8650.Arch.cycles_per_ms / 2))

let test_machine_zero_len_access () =
  let m = test_machine () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 0 (1, Prot.read_write);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  Alcotest.(check int) "empty read" 0
    (Bytes.length (Machine.read m ~cpu:0 ~va:0 ~len:0));
  Machine.write m ~cpu:0 ~va:0 (Bytes.create 0)

let () =
  Alcotest.run "mach_hw"
    [ ( "prot",
        [ Alcotest.test_case "constants" `Quick test_prot_constants;
          Alcotest.test_case "allows" `Quick test_prot_allows;
          Alcotest.test_case "remove_write" `Quick test_prot_remove_write ]
        @ List.map QCheck_alcotest.to_alcotest prot_lattice_tests );
      ( "phys_mem",
        [ Alcotest.test_case "read/write" `Quick test_phys_rw;
          Alcotest.test_case "zero/copy frames" `Quick test_phys_zero_copy;
          Alcotest.test_case "holes" `Quick test_phys_holes;
          Alcotest.test_case "bounds" `Quick test_phys_bounds;
          Alcotest.test_case "bad page size" `Quick test_phys_bad_page_size;
          Alcotest.test_case "lazy reads" `Quick test_phys_lazy_reads;
          Alcotest.test_case "copy from zero" `Quick test_phys_copy_from_zero;
          Alcotest.test_case "holes on every accessor" `Quick
            test_phys_holes_every_accessor;
          Alcotest.test_case "blit bounds" `Quick test_phys_blit_bounds ]
      );
      ( "tlb",
        [ Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "fifo eviction" `Quick test_tlb_fifo_eviction;
          Alcotest.test_case "replace same key" `Quick
            test_tlb_replace_same_key;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
          Alcotest.test_case "zero capacity" `Quick test_tlb_zero_capacity;
          Alcotest.test_case "entries lists a translation once" `Quick
            test_tlb_entries_once;
          Alcotest.test_case "re-insert keeps its old slot" `Quick
            test_tlb_reinsert_keeps_old_slot;
          QCheck_alcotest.to_alcotest tlb_matches_model ]
      );
      ( "machine",
        [ Alcotest.test_case "translate + data" `Quick
            test_machine_translate_and_data;
          Alcotest.test_case "fault handler repairs" `Quick
            test_machine_fault_handler_repairs;
          Alcotest.test_case "violation without handler" `Quick
            test_machine_violation_without_handler;
          Alcotest.test_case "unresolved fault detected" `Quick
            test_machine_unresolved_fault;
          Alcotest.test_case "protection fault on write" `Quick
            test_machine_protection_fault_on_write;
          Alcotest.test_case "clock charging" `Quick
            test_machine_clock_charging;
          Alcotest.test_case "disk charge" `Quick test_machine_disk_charge;
          Alcotest.test_case "no address space" `Quick test_no_address_space;
          Alcotest.test_case "TLB used on second access" `Quick
            test_tlb_used_on_second_access;
          Alcotest.test_case "rmw bug reporting" `Quick test_rmw_bug_reporting
        ] );
      ( "arch",
        [ Alcotest.test_case "catalogue" `Quick test_arch_catalogue;
          Alcotest.test_case "cycles_to_ms" `Quick test_cycles_to_ms;
          Alcotest.test_case "zero-length access" `Quick
            test_machine_zero_len_access ] );
      ( "shootdown",
        [ Alcotest.test_case "immediate IPI" `Quick test_shootdown_immediate;
          Alcotest.test_case "deferred waits for tick" `Quick
            test_shootdown_deferred_waits;
          Alcotest.test_case "lazy leaves stale entries" `Quick
            test_shootdown_lazy_stale;
          Alcotest.test_case "urgent overrides lazy" `Quick
            test_shootdown_urgent_overrides_lazy;
          Alcotest.test_case "local only" `Quick test_shootdown_local_only ] ) ]
