(* Replays generated ops against a freshly booted kernel through the
   library's public entry points, keeping an expected copy of every byte
   the workload writes and checking every read against it.  Host time and
   minor-heap words are summed only over the stretches of an op that run
   library code ([lib]); making record bytes, keeping the expected copy
   and comparing with it happen outside them.  With tracing on, each call
   into a library module is also recorded as a span. *)

open Mach_hw
open Mach_core
open Mach_pagers
module IM = Map.Make (Int)

type slot = {
  task : Task.t;
  mutable regions : (int * int) IM.t;  (* region id -> base, pages *)
  mutable expect : Bytes.t IM.t;       (* page va -> contents; absent = 0s *)
  owned : (int, unit) Hashtbl.t;
      (* pages whose image in [expect] no other task shares since the
         last fork, so a write may update it in place *)
}

type span = {
  sp_id : int;
  sp_parent : int;  (* 0 for an op span *)
  sp_op : int;      (* index of the benchmark op; shared by its spans *)
  sp_name : string;
  sp_cpu : int;
  sp_t0 : int;      (* host ns, monotonic *)
  sp_t1 : int;
  sp_c0 : int;      (* simulated cycles on [sp_cpu] *)
  sp_c1 : int;
  sp_faults : int;  (* faults delivered during the span *)
}

type t = {
  machine : Machine.t;
  kernel : Kernel.t;
  sys : Vm_sys.t;
  fs : Simfs.t;
  slots : (int, slot) Hashtbl.t;
  files : (string, Bytes.t) Hashtbl.t;  (* expected file contents *)
  exited : Mach_pmap.Pmap.stats;        (* pmap counters of dead tasks *)
  tracing : bool;
  mutable spans : span list;            (* newest first *)
  mutable next_span : int;
  mutable cur_op : int;
  mutable cur_span : int;
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
  mutable free_min : int;
  mutable lib_ns : int;     (* host ns inside [lib] *)
  mutable lib_words : int;  (* minor-heap words allocated inside [lib] *)
  mutable lib_calls : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let boot ?(tracing = false) (w : Gen.t) =
  let arch = w.Gen.arch in
  let machine =
    Machine.create ~arch
      ~memory_frames:(w.Gen.mem_bytes / arch.Arch.hw_page_size)
      ~cpus:w.Gen.cpus ()
  in
  if tracing then begin
    let tr = Mach_obs.Obs.create ~capacity:(1 lsl 12) () in
    Mach_obs.Obs.set_enabled tr true;
    Machine.set_tracer machine tr
  end;
  (* As on real Mach, the boot-time page size is at least 4 KB. *)
  let kernel =
    Kernel.create ~page_multiple:(max 1 (Gen.page / arch.Arch.hw_page_size))
      machine
  in
  let sys = Kernel.sys kernel in
  assert (Kernel.page_size kernel = Gen.page);
  Vm_sys.set_swap_capacity sys w.Gen.swap_bytes;
  let fs = Simfs.create machine () in
  let files = Hashtbl.create 64 in
  List.iter
    (fun (name, data) ->
       Simfs.install_file fs ~name ~data:(Bytes.copy data);
       Hashtbl.replace files name data)
    w.Gen.files;
  { machine; kernel; sys; fs; slots = Hashtbl.create 64; files;
    exited = Mach_pmap.Pmap.fresh_stats (); tracing; spans = [];
    next_span = 1; cur_op = 0; cur_span = 0; attempted = 0; failed = 0;
    first_error = None; free_min = max_int; lib_ns = 0; lib_words = 0;
    lib_calls = 0 }

(* A stretch of an op that runs library code: its host time and its
   minor-heap allocation are what the host metrics measure. *)
let lib t f =
  let t0 = now_ns () in
  let w0 = Gc.minor_words () in
  let finish () =
    let w1 = Gc.minor_words () in
    let t1 = now_ns () in
    t.lib_words <- t.lib_words + int_of_float (w1 -. w0);
    t.lib_ns <- t.lib_ns + (t1 - t0);
    t.lib_calls <- t.lib_calls + 1
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let span t ~name ~cpu ~parent f =
  let id = t.next_span in
  t.next_span <- id + 1;
  let st = Machine.stats t.machine in
  let f0 = st.Machine.faults and c0 = Machine.cycles t.machine ~cpu in
  let t0 = now_ns () in
  let finish () =
    let t1 = now_ns () in
    t.spans <-
      { sp_id = id; sp_parent = parent; sp_op = t.cur_op; sp_name = name;
        sp_cpu = cpu; sp_t0 = t0; sp_t1 = t1; sp_c0 = c0;
        sp_c1 = Machine.cycles t.machine ~cpu;
        sp_faults = st.Machine.faults - f0 }
      :: t.spans
  in
  match f id with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* One call into a library module: a child span of the current op. *)
let call t ~cpu name f =
  if not t.tracing then f ()
  else span t ~name ~cpu ~parent:t.cur_span (fun _ -> f ())

exception Mismatch of string

let slot t i = Hashtbl.find t.slots i

let region s r = IM.find r s.regions

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Kr.to_string e)

let running t ~cpu s =
  match Kernel.current_task t.kernel ~cpu with
  | Some cur when cur == s.task -> ()
  | Some _ | None ->
    call t ~cpu "Kernel.run_task" (fun () ->
        Kernel.run_task t.kernel ~cpu s.task)

let on_cpu t cpu =
  Mach_pmap.Pmap_domain.set_current_cpu t.kernel.Kernel.domain cpu

(* [got] must be the [len] bytes of [src] from [off], cut at the end of
   [src]; compared in place, so checking copies nothing. *)
let check ~what src ~off ~len got =
  let len = max 0 (min len (Bytes.length src - off)) in
  let rec same i =
    if i + 8 <= len then
      Int64.equal (Bytes.get_int64_ne src (off + i)) (Bytes.get_int64_ne got i)
      && same (i + 8)
    else i >= len || (Bytes.get src (off + i) = Bytes.get got i && same (i + 1))
  in
  if not (Bytes.length got = len && same 0) then raise (Mismatch what)

let zero_page = Bytes.make Gen.page '\000'

let expected_page s va =
  match IM.find_opt va s.expect with Some b -> b | None -> zero_page

(* The page image a write into [va] updates: in place when this task owns
   it, else a private copy. *)
let own_page s va =
  match IM.find_opt va s.expect with
  | Some b when Hashtbl.mem s.owned va -> b
  | prev ->
    let b = Bytes.copy (Option.value prev ~default:zero_page) in
    s.expect <- IM.add va b s.expect;
    Hashtbl.replace s.owned va ();
    b

(* The syscall charge a UNIX read()/write() pays, as Mach_os charges it. *)
let syscall t ~cpu =
  on_cpu t cpu;
  Vm_sys.charge t.sys (Vm_sys.cost t.sys).Arch.syscall

let exec_op t (op : Gen.op) =
  let m = t.machine in
  let page_va s r page = fst (region s r) + (page * Gen.page) in
  match op with
  | Spawn { slot = i } ->
    let task =
      lib t (fun () ->
          call t ~cpu:0 "Kernel.create_task" (fun () ->
              Kernel.create_task t.kernel ~name:(Printf.sprintf "t%d" i) ()))
    in
    Hashtbl.replace t.slots i
      { task; regions = IM.empty; expect = IM.empty;
        owned = Hashtbl.create 16 }
  | Run { slot = i; cpu } ->
    let s = slot t i in
    lib t (fun () -> running t ~cpu s)
  | Fork { parent; child; cpu } ->
    let p = slot t parent in
    let task =
      lib t (fun () ->
          call t ~cpu "Kernel.fork_task" (fun () ->
              Kernel.fork_task t.kernel ~cpu p.task))
    in
    (* Both now share every page image. *)
    Hashtbl.reset p.owned;
    Hashtbl.replace t.slots child
      { task; regions = p.regions; expect = p.expect;
        owned = Hashtbl.create 16 }
  | Exit { slot = i; cpu } ->
    let s = slot t i in
    lib t (fun () ->
        call t ~cpu "Kernel.terminate_task" (fun () ->
            Kernel.terminate_task t.kernel ~cpu s.task));
    let open Mach_pmap.Pmap in
    let ps = (Task.pmap s.task).stats and d = t.exited in
    d.enters <- d.enters + ps.enters;
    d.removals <- d.removals + ps.removals;
    Hashtbl.remove t.slots i
  | Alloc { slot = i; cpu; region = r; pages } ->
    let s = slot t i in
    let base =
      ok "vm_allocate"
        (lib t (fun () ->
             running t ~cpu s;
             call t ~cpu "Vm_user.allocate" (fun () ->
                 Vm_user.allocate t.sys s.task ~size:(pages * Gen.page)
                   ~anywhere:true ())))
    in
    s.regions <- IM.add r (base, pages) s.regions
  | Dealloc { slot = i; cpu; region = r } ->
    let s = slot t i in
    let base, pages = region s r in
    ok "vm_deallocate"
      (lib t (fun () ->
           running t ~cpu s;
           call t ~cpu "Vm_user.deallocate" (fun () ->
               Vm_user.deallocate t.sys s.task ~addr:base
                 ~size:(pages * Gen.page))));
    s.regions <- IM.remove r s.regions;
    s.expect <-
      IM.filter (fun va _ -> va < base || va >= base + (pages * Gen.page))
        s.expect
  | Put { slot = i; cpu; region = r; page; off; len; stamp; verify; think } ->
    let s = slot t i in
    let va = page_va s r page in
    let data = Gen.fill ~stamp len in
    let enter () =
      running t ~cpu s;
      Machine.charge m ~cpu think
    in
    let write () =
      call t ~cpu "Machine.write" (fun () ->
          Machine.write m ~cpu ~va:(va + off) data)
    in
    if verify then begin
      let got =
        lib t (fun () ->
            enter ();
            call t ~cpu "Machine.read" (fun () ->
                Machine.read m ~cpu ~va:(va + off) ~len))
      in
      check ~what:(Printf.sprintf "task %d va %#x" i (va + off))
        (expected_page s va) ~off ~len got;
      lib t write
    end
    else lib t (fun () -> enter (); write ());
    Bytes.blit data 0 (own_page s va) off len
  | Get { slot = i; cpu; region = r; page; off; len; think } ->
    let s = slot t i in
    let va = page_va s r page in
    let got =
      lib t (fun () ->
          running t ~cpu s;
          Machine.charge m ~cpu think;
          call t ~cpu "Machine.read" (fun () ->
              Machine.read m ~cpu ~va:(va + off) ~len))
    in
    check ~what:(Printf.sprintf "task %d va %#x" i (va + off))
      (expected_page s va) ~off ~len got
  | Touch { slot = i; cpu; region = r; page; write; think } ->
    let s = slot t i in
    let va = page_va s r page in
    lib t (fun () ->
        running t ~cpu s;
        Machine.charge m ~cpu think;
        call t ~cpu "Machine.touch" (fun () ->
            Machine.touch m ~cpu ~va ~write))
  | Exec { slot = i; cpu; file; check_off; check_len } ->
    let s = slot t i in
    let got =
      lib t (fun () ->
          running t ~cpu s;
          let addr, size =
            ok "map_file"
              (call t ~cpu "Vnode_pager.map_file" (fun () ->
                   Vnode_pager.map_file t.sys t.fs s.task ~name:file ()))
          in
          (* Demand-page the whole text in, as running it would. *)
          let rec touch va =
            if va < addr + size then begin
              call t ~cpu "Machine.touch" (fun () ->
                  Machine.touch m ~cpu ~va ~write:false);
              touch (va + Gen.page)
            end
          in
          touch addr;
          call t ~cpu "Machine.read" (fun () ->
              Machine.read m ~cpu ~va:(addr + check_off) ~len:check_len))
    in
    check ~what:("text of " ^ file) (Hashtbl.find t.files file)
      ~off:check_off ~len:check_len got
  | Read_file { cpu; file; off; len; stream } ->
    let got =
      lib t (fun () ->
          syscall t ~cpu;
          call t ~cpu "Vnode_pager.read_through_object" (fun () ->
              Vnode_pager.read_through_object t.sys ~stream:(-1, stream) t.fs
                ~name:file ~offset:off ~len))
    in
    check ~what:("read of " ^ file) (Hashtbl.find t.files file) ~off ~len
      got
  | Write_file { cpu; file; len; stamp } ->
    let data = Gen.fill ~stamp len in
    lib t (fun () ->
        syscall t ~cpu;
        call t ~cpu "Simfs.write" (fun () ->
            Simfs.write t.fs ~cpu ~name:file ~offset:0 ~data));
    Hashtbl.replace t.files file data
  | Remove { slot = i; cpu; region = r; first; count } ->
    let s = slot t i in
    let start_va = page_va s r first in
    lib t (fun () ->
        on_cpu t cpu;
        call t ~cpu "Pmap.remove" (fun () ->
            (Task.pmap s.task).Mach_pmap.Pmap.remove ~start_va
              ~end_va:(start_va + (count * Gen.page))))
  | Protect { slot = i; cpu; region = r; write } ->
    let s = slot t i in
    let base, pages = region s r in
    let prot = if write then Prot.read_write else Prot.read_only in
    ok "vm_protect"
      (lib t (fun () ->
           on_cpu t cpu;
           call t ~cpu "Vm_user.protect" (fun () ->
               Vm_user.protect t.sys s.task ~addr:base
                 ~size:(pages * Gen.page) ~set_max:false ~prot)))

let op_cpu : Gen.op -> int = function
  | Spawn _ -> 0
  | Run { cpu; _ } | Fork { cpu; _ } | Exit { cpu; _ } | Alloc { cpu; _ }
  | Dealloc { cpu; _ } | Put { cpu; _ } | Get { cpu; _ } | Touch { cpu; _ }
  | Exec { cpu; _ } | Read_file { cpu; _ } | Write_file { cpu; _ }
  | Remove { cpu; _ } | Protect { cpu; _ } -> cpu

let op_name : Gen.op -> string = function
  | Spawn _ -> "op.spawn" | Run _ -> "op.run" | Fork _ -> "op.fork"
  | Exit _ -> "op.exit" | Alloc _ -> "op.alloc" | Dealloc _ -> "op.dealloc"
  | Put _ -> "op.put" | Get _ -> "op.get" | Touch _ -> "op.touch"
  | Exec _ -> "op.exec" | Read_file _ -> "op.read_file"
  | Write_file _ -> "op.write_file" | Remove _ -> "op.remove"
  | Protect _ -> "op.protect"

let fail t msg =
  t.failed <- t.failed + 1;
  if t.first_error = None then
    t.first_error <- Some (Printf.sprintf "op %d: %s" t.cur_op msg)

(* Run one op; returns its latency in simulated cycles on its CPU.  An op
   fails when it raises, gets a Kr error, touches an OOM-killed task or
   reads back bytes that differ from the expected copy. *)
let step t op =
  let cpu = op_cpu op in
  let c0 = Machine.cycles t.machine ~cpu in
  t.attempted <- t.attempted + 1;
  let run () =
    try exec_op t op with
    | Mismatch what -> fail t ("mismatch: " ^ what)
    | e -> fail t (Printexc.to_string e)
  in
  if t.tracing then
    span t ~name:(op_name op) ~cpu ~parent:0 (fun id ->
        t.cur_span <- id;
        run ())
  else run ();
  t.cur_op <- t.cur_op + 1;
  t.free_min <- min t.free_min (Resident.free_count t.sys.Vm_sys.resident);
  Machine.cycles t.machine ~cpu - c0

(* Deliberately corrupt one byte of the expected copy of a page, so a
   later read of it must be counted as a failed op. *)
let plant_wrong_expectation t ~slot:i ~region:r ~page ~off =
  let s = slot t i in
  let base, _ = region s r in
  let img = own_page s (base + (page * Gen.page)) in
  Bytes.set img off (Char.chr (Char.code (Bytes.get img off) lxor 0xff))

let oom_killed t =
  Hashtbl.fold (fun _ s n -> if s.task.Task.task_oom_killed then n + 1 else n)
    t.slots 0
