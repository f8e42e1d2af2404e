(* Property-based tests (qcheck) across the substrate: data structures
   against reference models, and whole-system data-preservation
   properties under randomized operation sequences. *)

open Mach_hw
open Mach_core
open Mach_pagers

let kb = 1024

let boot () =
  let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:1024 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

(* ---- TLB vs a model map -------------------------------------------------- *)

(* A TLB holding at most N entries never returns a translation that was
   not inserted (and not since invalidated). *)
let tlb_soundness =
  let open QCheck2 in
  Test.make ~name:"tlb never invents translations" ~count:200
    Gen.(list (triple (int_range 0 3) (int_range 0 9) (int_range 0 30)))
    (fun ops ->
       let t = Tlb.create ~capacity:4 in
       let model = Hashtbl.create 16 in
       List.iter
         (fun (op, asid, vpn) ->
            match op with
            | 0 ->
              Tlb.insert t { Tlb.asid; vpn; pfn = vpn + 100; prot = Prot.read_write };
              Hashtbl.replace model (asid, vpn) (vpn + 100)
            | 1 ->
              Tlb.invalidate_page t ~asid ~vpn;
              Hashtbl.remove model (asid, vpn)
            | 2 ->
              Tlb.invalidate_asid t ~asid;
              Hashtbl.iter
                (fun (a, v) _ ->
                   if a = asid then Hashtbl.remove model (a, v))
                (Hashtbl.copy model)
            | _ -> (
                match Tlb.lookup t ~asid ~vpn with
                | Some e ->
                  (* a hit must agree with the model *)
                  if Hashtbl.find_opt model (asid, vpn) <> Some e.Tlb.pfn
                  then failwith "tlb invented a translation"
                | None -> ()))
         ops;
       true)

(* ---- Page_io round trips -------------------------------------------------- *)

let page_io_roundtrip =
  let open QCheck2 in
  Test.make ~name:"page_io copy_in/copy_out round trip" ~count:100
    Gen.(pair (int_range 0 4000) (string_size (int_range 1 96)))
    (fun (off, s) ->
       let _, _, sys = boot () in
       let off = min off (sys.Vm_sys.page_size - String.length s) in
       let p = Vm_sys.grab_page sys in
       Page_io.zero sys p;
       Page_io.copy_in sys p ~off (Bytes.of_string s);
       let back = Page_io.copy_out sys p ~off ~len:(String.length s) in
       Resident.free_page sys.Vm_sys.resident p;
       Bytes.to_string back = s)

let page_io_fill_pads =
  let open QCheck2 in
  Test.make ~name:"page_io fill zero-pads the tail" ~count:50
    Gen.(string_size (int_range 0 200))
    (fun s ->
       let _, _, sys = boot () in
       let p = Vm_sys.grab_page sys in
       (* dirty the frame first *)
       Page_io.copy_in sys p ~off:0 (Bytes.make sys.Vm_sys.page_size 'x');
       Page_io.fill sys p (Bytes.of_string s);
       let whole = Page_io.contents sys p in
       Resident.free_page sys.Vm_sys.resident p;
       String.length s = 0
       || (Bytes.to_string (Bytes.sub whole 0 (String.length s)) = s
           && Bytes.get whole (String.length s) = '\000'))

let page_io_fill_offset =
  let open QCheck2 in
  Test.make ~name:"page_io fill from an offset equals the padded slice"
    ~count:50
    Gen.(pair (string_size (int_range 0 9000)) (int_range 0 9000))
    (fun (s, src_off) ->
       let _, _, sys = boot () in
       let ps = sys.Vm_sys.page_size in
       let src_off = min src_off (String.length s) in
       let p = Vm_sys.grab_page sys in
       Page_io.copy_in sys p ~off:0 (Bytes.make ps 'x');
       Page_io.fill sys p ~src_off (Bytes.of_string s);
       let whole = Page_io.contents sys p in
       Resident.free_page sys.Vm_sys.resident p;
       let avail = min ps (String.length s - src_off) in
       Bytes.to_string whole
       = String.sub s src_off avail ^ String.make (ps - avail) '\000')

(* ---- Lazy Phys_mem vs an eager bytes model ------------------------------- *)

type phys_op =
  | Write of int * int * string
  | Write_byte of int * int * char
  | Blit_in of int * int * string * int
  | Zero_frame of int
  | Copy_frame of int * int

let phys_lazy_model =
  let open QCheck2 in
  let ps = 32 and frames = 5 in
  let frame = Gen.int_range 0 (frames - 1) in
  let op =
    Gen.(
      frame >>= fun f ->
      int_range 0 (ps - 1) >>= fun off ->
      oneof
        [ map (fun s -> Write (f, off, s)) (string_size (int_range 0 (ps - off)));
          map (fun c -> Write_byte (f, off, c)) (oneof [ return '\000'; char ]);
          (string_size (int_range 0 (ps - off)) >>= fun s ->
           map (fun a -> Blit_in (f, off, "pad" ^ s, a)) (int_range 0 3));
          return (Zero_frame f);
          map (fun g -> Copy_frame (f, g)) frame ])
  in
  Test.make ~name:"lazy phys_mem agrees with an eager bytes model" ~count:300
    Gen.(list_size (int_range 0 40) op)
    (fun ops ->
       let m = Phys_mem.create ~page_size:ps ~frames () in
       let model = Array.init frames (fun _ -> Bytes.make ps '\000') in
       let apply = function
         | Write (f, off, s) ->
           Phys_mem.write m f ~offset:off (Bytes.of_string s);
           Bytes.blit_string s 0 model.(f) off (String.length s)
         | Write_byte (f, off, c) ->
           Phys_mem.write_byte m f ~offset:off c;
           Bytes.set model.(f) off c
         | Blit_in (f, off, src, src_off) ->
           let len = min (String.length src - src_off) (ps - off) in
           Phys_mem.blit_in m f ~offset:off ~src:(Bytes.of_string src)
             ~src_off ~len;
           Bytes.blit_string src src_off model.(f) off len
         | Zero_frame f ->
           Phys_mem.zero_frame m f;
           Bytes.fill model.(f) 0 ps '\000'
         | Copy_frame (src, dst) ->
           Phys_mem.copy_frame m ~src ~dst;
           Bytes.blit model.(src) 0 model.(dst) 0 ps
       in
       List.iter apply ops;
       let agrees f =
         let out = Bytes.create ps in
         Phys_mem.blit_out m f ~offset:0 ~dst:out ~dst_off:0 ~len:ps;
         Bytes.equal out model.(f)
         && Bytes.equal (Phys_mem.read m f ~offset:0 ~len:ps) model.(f)
       in
       List.for_all agrees (List.init frames Fun.id)
       && Phys_mem.zero_image_intact m
       && Phys_mem.materialized_frames m <= frames)

(* ---- Simfs vs a byte-array model ------------------------------------------ *)

let simfs_model =
  let open QCheck2 in
  Test.make ~name:"simfs agrees with a bytes model" ~count:100
    Gen.(list (pair (int_range 0 6000) (string_size (int_range 1 700))))
    (fun writes ->
       let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
       let fs = Simfs.create machine () in
       Simfs.install_file fs ~name:"/m" ~data:(Bytes.create 0);
       let model = ref (Bytes.create 0) in
       List.iter
         (fun (offset, s) ->
            let data = Bytes.of_string s in
            Simfs.write fs ~cpu:0 ~name:"/m" ~offset ~data;
            let needed = offset + Bytes.length data in
            if Bytes.length !model < needed then begin
              let grown = Bytes.make needed '\000' in
              Bytes.blit !model 0 grown 0 (Bytes.length !model);
              model := grown
            end;
            Bytes.blit data 0 !model offset (Bytes.length data))
         writes;
       let size = Simfs.file_size fs ~name:"/m" in
       size = Bytes.length !model
       && Bytes.equal (Simfs.read fs ~cpu:0 ~name:"/m" ~offset:0 ~len:size)
            !model)

(* ---- buffer cache is transparent ------------------------------------------ *)

let buffer_cache_transparent =
  let open QCheck2 in
  Test.make ~name:"buffer cache returns exactly what simfs holds" ~count:60
    Gen.(list (pair (int_range 0 3) (int_range 0 5000)))
    (fun reads ->
       let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
       let fs = Simfs.create machine () in
       let files =
         List.init 4 (fun i ->
             let name = Printf.sprintf "/f%d" i in
             let data =
               Bytes.init ((i + 1) * 3000) (fun j ->
                   Char.chr (((i * 37) + j) mod 256))
             in
             Simfs.install_file fs ~name ~data;
             (name, data))
       in
       let cache = Mach_bsd.Buffer_cache.create fs ~buffers:3 in
       List.for_all
         (fun (idx, offset) ->
            let name, data = List.nth files idx in
            let len = 512 in
            let expected =
              if offset >= Bytes.length data then Bytes.create 0
              else
                Bytes.sub data offset
                  (min len (Bytes.length data - offset))
            in
            Bytes.equal
              (Mach_bsd.Buffer_cache.read cache ~cpu:0 ~name ~offset ~len)
              expected)
         reads)

(* ---- whole-system data properties ------------------------------------------ *)

(* Protection cycling never changes data. *)
let protect_preserves_data =
  let open QCheck2 in
  Test.make ~name:"protect down/up cycles preserve memory contents"
    ~count:40
    Gen.(list (int_range 0 7))
    (fun pages ->
       let machine, kernel, sys = boot () in
       let t = Kernel.create_task kernel () in
       Kernel.run_task kernel ~cpu:0 t;
       let a =
         match Vm_user.allocate sys t ~size:(32 * kb) ~anywhere:true () with
         | Ok a -> a
         | Error _ -> failwith "alloc"
       in
       for i = 0 to 7 do
         Machine.write machine ~cpu:0 ~va:(a + (i * 4 * kb))
           (Bytes.of_string (Printf.sprintf "data%d" i))
       done;
       List.iter
         (fun page ->
            let addr = a + (page * 4 * kb) in
            ignore
              (Vm_user.protect sys t ~addr ~size:(4 * kb) ~set_max:false
                 ~prot:Prot.read_only);
            ignore
              (Vm_user.protect sys t ~addr ~size:(4 * kb) ~set_max:false
                 ~prot:Prot.read_write))
         pages;
       List.for_all
         (fun i ->
            Bytes.to_string
              (Machine.read machine ~cpu:0 ~va:(a + (i * 4 * kb)) ~len:5)
            = Printf.sprintf "data%d" i)
         [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* vm_copy equals vm_read/vm_write composition. *)
let vm_copy_equals_read_write =
  let open QCheck2 in
  Test.make ~name:"vm_copy equals read-then-write" ~count:40
    Gen.(string_size (int_range 1 2000))
    (fun s ->
       let _, kernel, sys = boot () in
       let t = Kernel.create_task kernel () in
       Kernel.run_task kernel ~cpu:0 t;
       let alloc () =
         match Vm_user.allocate sys t ~size:(8 * kb) ~anywhere:true () with
         | Ok a -> a
         | Error _ -> failwith "alloc"
       in
       let src = alloc () and via_copy = alloc () and via_rw = alloc () in
       (match Vm_user.write sys t ~addr:src ~data:(Bytes.of_string s) with
        | Ok () -> ()
        | Error _ -> failwith "write");
       (match Vm_user.copy sys t ~src ~dst:via_copy ~size:(8 * kb) with
        | Ok () -> ()
        | Error _ -> failwith "copy");
       (match Vm_user.read sys t ~addr:src ~size:(8 * kb) with
        | Ok data ->
          (match Vm_user.write sys t ~addr:via_rw ~data with
           | Ok () -> ()
           | Error _ -> failwith "write2")
        | Error _ -> failwith "read");
       let get addr =
         match Vm_user.read sys t ~addr ~size:(String.length s) with
         | Ok b -> Bytes.to_string b
         | Error _ -> failwith "readback"
       in
       get via_copy = s && get via_rw = s)

(* Extracted map copies carry exactly the source bytes at insertion
   time, wherever they are inserted. *)
let map_copy_roundtrip =
  let open QCheck2 in
  Test.make ~name:"extract/insert map copy preserves bytes" ~count:40
    Gen.(string_size (int_range 1 1000))
    (fun s ->
       let machine, kernel, sys = boot () in
       let src_task = Kernel.create_task kernel () in
       Kernel.run_task kernel ~cpu:0 src_task;
       let a =
         match Vm_user.allocate sys src_task ~size:(8 * kb) ~anywhere:true () with
         | Ok a -> a
         | Error _ -> failwith "alloc"
       in
       Machine.write machine ~cpu:0 ~va:a (Bytes.of_string s);
       let copy =
         match Vm_map.extract_copy sys (Task.map src_task) ~addr:a ~size:(8 * kb) with
         | Ok c -> c
         | Error _ -> failwith "extract"
       in
       let dst_task = Kernel.create_task kernel () in
       let b =
         match Vm_map.insert_copy sys (Task.map dst_task) copy () with
         | Ok b -> b
         | Error _ -> failwith "insert"
       in
       Kernel.run_task kernel ~cpu:0 dst_task;
       let got =
         Bytes.to_string
           (Machine.read machine ~cpu:0 ~va:b ~len:(String.length s))
       in
       got = s)

let () =
  Alcotest.run "properties"
    [ ( "models",
        List.map QCheck_alcotest.to_alcotest
          [ tlb_soundness; simfs_model; buffer_cache_transparent;
            phys_lazy_model ] );
      ( "page_io",
        List.map QCheck_alcotest.to_alcotest
          [ page_io_roundtrip; page_io_fill_pads; page_io_fill_offset ] );
      ( "system",
        List.map QCheck_alcotest.to_alcotest
          [ protect_preserves_data; vm_copy_equals_read_write;
            map_copy_roundtrip ] ) ]
