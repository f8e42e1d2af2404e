(* Seeded workload generators.  A workload is a machine description, the
   files to install, and two op lists: [setup] (run while set-up time is
   on the clock) and [ops] (the measured phase).  The library sees only
   these generated ops; every choice the seed makes is taken here. *)

type op =
  | Spawn of { slot : int }
  | Run of { slot : int; cpu : int }
  | Fork of { parent : int; child : int; cpu : int }
  | Exit of { slot : int; cpu : int }
  | Alloc of { slot : int; cpu : int; region : int; pages : int }
  | Dealloc of { slot : int; cpu : int; region : int }
  | Put of { slot : int; cpu : int; region : int; page : int; off : int;
             len : int; stamp : int; verify : bool; think : int }
      (** write a record of [len] bytes at [off] in the page; with
          [verify], first read back and check the bytes it overwrites *)
  | Get of { slot : int; cpu : int; region : int; page : int; off : int;
             len : int; think : int }
      (** read bytes back and compare with the expected copy *)
  | Touch of { slot : int; cpu : int; region : int; page : int;
               write : bool; think : int }
      (** a one-byte access to the page; contents unchanged.  Each of
          these three first computes for [think] cycles *)
  | Exec of { slot : int; cpu : int; file : string; check_off : int;
              check_len : int }
      (** map a program file, touch every text page, verify a slice *)
  | Read_file of { cpu : int; file : string; off : int; len : int;
                   stream : int }
  | Write_file of { cpu : int; file : string; len : int; stamp : int }
      (** create [file] with generated contents *)
  | Remove of { slot : int; cpu : int; region : int; first : int;
                count : int }
      (** drop a page run's hardware mappings ([pmap_remove]) *)
  | Protect of { slot : int; cpu : int; region : int; write : bool }

type t = {
  name : string;
  arch : Mach_hw.Arch.t;
  mem_bytes : int;
  cpus : int;
  swap_bytes : int option;
  files : (string * Bytes.t) list;
  setup : op array;
  ops : op array;
}

let kb = 1024
let mb = 1024 * kb
let page = 4096

(* splitmix64: the generator owns its randomness, so inputs do not
   depend on the OCaml runtime's Random implementation. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int r bound =
  Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))
let range r lo hi = lo + int r (hi - lo + 1)

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A seeded permutation of a fixed multiset: every seed draws the same
   totals in another order, so the amount of work does not depend on the
   seed. *)
let deck r n f =
  let a = Array.init n f in
  shuffle r a;
  a

(* Record and file contents are pure functions of a stamp, so the replayer
   can rebuild what it wrote and the test can rebuild what it expects: the
   splitmix64 stream of [rng stamp], little-endian.  The state is a local,
   so filling allocates nothing but the result. *)
let fill ~stamp len =
  let b = Bytes.create len in
  let s = ref (Int64.of_int stamp) and i = ref 0 in
  while !i < len do
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    let z = !s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    let w = Int64.logxor z (Int64.shift_right_logical z 31) in
    if !i + 8 <= len then Bytes.set_int64_le b !i w
    else
      for k = 0 to len - !i - 1 do
        Bytes.set b (!i + k)
          (Char.unsafe_chr
             (Int64.to_int (Int64.shift_right_logical w (8 * k)) land 0xff))
      done;
    i := !i + 8
  done;
  b

(* A record anywhere in a page, 1 to 3072 bytes at any alignment, so
   its copy cost (priced per 16 bytes of each hardware-page run) varies
   op to op. *)
let record r =
  let len = range r 1 3072 in
  (int r (page - len + 1), len)

let stamp_of r = 1 + int r 0x3fff_ffff

(* User computation before an access, 0-63 cycles.  Programs compute
   between their memory accesses; it also keeps op latencies off the
   cost model's 16-byte pricing grid, where the median of a workload
   made of similar accesses would sit on one value for most seeds. *)
let think r = int r 64

let put ?(verify = false) r ~slot ~cpu ~region ~page =
  let off, len = record r in
  Put { slot; cpu; region; page; off; len; stamp = stamp_of r; verify;
        think = think r }

let get r ~slot ~cpu ~region ~page =
  let off, len = record r in
  Get { slot; cpu; region; page; off; len; think = think r }

(* ------------------------------------------------------------------ *)
(* fork_compile: the Table 7-2 compile loop on a VAX 8650 (1 CPU, no   *)
(* paging), plus children that write inherited pages and fork chains   *)
(* at least four generations deep.                                     *)
(* ------------------------------------------------------------------ *)

let fork_compile ~seed =
  let r = rng (seed * 3 + 1) in
  let units = 150 and passes = 3 in
  let children = units * passes in
  let text_pages = 64 and shell_pages = 24 in
  let spread lo hi n i = lo + ((hi - lo) * i / (n - 1)) in
  let src_kb = deck r units (spread 8 32 units) in
  let obj_kb = deck r units (spread 4 16 units) in
  let work_pages = deck r children (spread 16 48 children) in
  (* 35% of children write 2 to 6 inherited pages (0 = none); half free
     their working set before exiting. *)
  let cow =
    deck r children (fun i ->
        if i < children * 35 / 100 then 2 + (i mod 5) else 0)
  in
  let dealloc = deck r children (fun i -> i mod 2 = 0) in
  let pass_file p = Printf.sprintf "/bin/cc-pass%d" p in
  let src_file u = Printf.sprintf "/src/unit%03d.c" u in
  let obj_file u = Printf.sprintf "/obj/unit%03d.o" u in
  let files =
    List.init passes (fun p ->
        (pass_file p,
         fill ~stamp:(seed + (1000 * (p + 1))) (text_pages * page)))
    @ List.init units (fun u ->
        (src_file u,
         fill ~stamp:(seed + 50_000 + u) ((src_kb.(u) * kb) + int r kb)))
  in
  let src_size u = Bytes.length (List.assoc (src_file u) files) in
  let shell = 0 and cpu = 0 in
  let setup =
    [ Spawn { slot = shell }; Run { slot = shell; cpu };
      Alloc { slot = shell; cpu; region = 0; pages = shell_pages } ]
    @ List.init shell_pages (fun page -> put r ~slot:shell ~cpu ~region:0 ~page)
  in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let next_slot = ref 1 in
  let fresh () = incr next_slot; !next_slot in
  (* A child writes some inherited shell pages (copy-on-write) and reads
     others back, then the shell re-reads what the child wrote over. *)
  let cow_writes ~slot k =
    let pages = deck r shell_pages Fun.id in
    for i = 0 to k - 1 do
      emit (put r ~slot ~cpu ~region:0 ~page:pages.(i))
    done;
    for i = k to k + 3 do
      emit (get r ~slot ~cpu ~region:0 ~page:pages.(i))
    done;
    Array.sub pages 0 k
  in
  (* The shell checks its view of what a child wrote over, then writes
     on itself: its copy-on-write faults are where shadows left behind by
     exited children collapse. *)
  let parent_view written =
    Array.iter (fun page -> emit (get r ~slot:shell ~cpu ~region:0 ~page))
      written;
    emit (put r ~slot:shell ~cpu ~region:0 ~page:(int r shell_pages))
  in
  for u = 0 to units - 1 do
    for p = 0 to passes - 1 do
      let c = (u * passes) + p in
      let child = fresh () in
      emit (Fork { parent = shell; child; cpu });
      let off, len = record r in
      emit (Exec { slot = child; cpu; file = pass_file p;
                   check_off = (int r text_pages * page) + off;
                   check_len = len });
      emit (Read_file { cpu; file = src_file u; off = 0; len = src_size u;
                        stream = 0 });
      let work = work_pages.(c) in
      emit (Alloc { slot = child; cpu; region = 1; pages = work });
      for page = 0 to work - 1 do
        emit (put r ~slot:child ~cpu ~region:1 ~page)
      done;
      emit (get r ~slot:child ~cpu ~region:1 ~page:(int r work));
      if p = passes - 1 then
        emit (Write_file { cpu; file = obj_file u;
                           len = (obj_kb.(u) * kb) + int r kb;
                           stamp = stamp_of r });
      if dealloc.(c) then emit (Dealloc { slot = child; cpu; region = 1 });
      if cow.(c) > 0 then begin
        let written = cow_writes ~slot:child cow.(c) in
        emit (Exit { slot = child; cpu });
        parent_view written
      end
      else emit (Exit { slot = child; cpu })
    done;
    (* ld reads the object file back. *)
    emit (Read_file { cpu; file = obj_file u; off = 0; len = 16 * kb;
                      stream = 1 });
    (* Every third unit runs a fork chain 4-6 generations deep; each
       generation rewrites some pages and reads others through the
       chain, and the chain exits in a seeded order so collapses happen
       in the middle as well as at the ends. *)
    if u mod 3 = 2 then begin
      let depth = 4 + (u / 3 mod 3) in
      let chain = Array.make depth 0 in
      let parent = ref shell in
      for g = 0 to depth - 1 do
        let c = fresh () in
        chain.(g) <- c;
        emit (Fork { parent = !parent; child = c; cpu });
        for _ = 1 to 3 do
          emit (put r ~slot:c ~cpu ~region:0 ~page:(int r shell_pages))
        done;
        for _ = 1 to 3 do
          emit (get r ~slot:c ~cpu ~region:0 ~page:(int r shell_pages))
        done;
        parent := c
      done;
      shuffle r chain;
      Array.iter (fun slot -> emit (Exit { slot; cpu })) chain;
      for page = 0 to shell_pages - 1 do
        emit (get r ~slot:shell ~cpu ~region:0 ~page)
      done;
      parent_view [||]
    end
  done;
  { name = "fork_compile"; arch = Mach_hw.Arch.vax8650; mem_bytes = 32 * mb;
    cpus = 1; swap_bytes = None; files; setup = Array.of_list setup;
    ops = Array.of_list (List.rev !ops) }

(* ------------------------------------------------------------------ *)
(* mp_shared: 8 CPUs.  CPUs 0-3 fault disjoint stripes of one shared    *)
(* object, CPUs 4-7 fault private objects; then rounds of pmap_remove   *)
(* plus re-touch, and a protect downgrade that forces shootdowns.       *)
(* ------------------------------------------------------------------ *)

let mp_shared ~seed =
  let r = rng (seed * 3 + 2) in
  let cpus = 8 and shared_cpus = 4 in
  let stripe = 64 and rounds = 30 in
  (* Slot 0 is the shared task; slots 1-4 are CPUs 4-7's private tasks.
     Each task has one region; a CPU's stripe starts at [first_page]. *)
  let slot_of cpu = if cpu < shared_cpus then 0 else cpu - shared_cpus + 1 in
  let first_page cpu = if cpu < shared_cpus then cpu * stripe else 0 in
  let region = 0 in
  let setup = ref [] in
  let add op = setup := op :: !setup in
  add (Spawn { slot = 0 });
  for cpu = 0 to shared_cpus - 1 do add (Run { slot = 0; cpu }) done;
  add (Alloc { slot = 0; cpu = 0; region = 0; pages = shared_cpus * stripe });
  for cpu = shared_cpus to cpus - 1 do
    let slot = slot_of cpu in
    add (Spawn { slot });
    add (Run { slot; cpu });
    add (Alloc { slot; cpu; region = 0; pages = stripe })
  done;
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  (* Page i of every CPU's visiting order, then i+1: the interleave a
     multiprocessor sees, so critical sections overlap across clocks. *)
  let pass f =
    let orders =
      Array.init cpus (fun _ ->
          let a = Array.init stripe Fun.id in
          shuffle r a;
          a)
    in
    for i = 0 to stripe - 1 do
      for cpu = 0 to cpus - 1 do
        f ~slot:(slot_of cpu) ~cpu ~region
          ~page:(first_page cpu + orders.(cpu).(i))
      done
    done
  in
  pass (fun ~slot ~cpu ~region ~page -> emit (put r ~slot ~cpu ~region ~page));
  for _ = 1 to rounds do
    for cpu = 0 to cpus - 1 do
      emit (Remove { slot = slot_of cpu; cpu; region; first = first_page cpu;
                     count = stripe })
    done;
    pass (fun ~slot ~cpu ~region ~page ->
        match int r 4 with
        | 0 -> emit (put r ~slot ~cpu ~region ~page)
        | 1 -> emit (Touch { slot; cpu; region; page; write = true;
                             think = think r })
        | _ -> emit (get r ~slot ~cpu ~region ~page));
    emit (Protect { slot = 0; cpu = int r shared_cpus; region = 0;
                    write = false });
    pass (fun ~slot ~cpu ~region ~page ->
        emit (get r ~slot ~cpu ~region ~page));
    emit (Protect { slot = 0; cpu = int r shared_cpus; region = 0;
                    write = true })
  done;
  { name = "mp_shared"; arch = Mach_hw.Arch.vax8200; mem_bytes = 32 * mb;
    cpus; swap_bytes = None; files = [];
    setup = Array.of_list (List.rev !setup);
    ops = Array.of_list (List.rev !ops) }

(* ------------------------------------------------------------------ *)
(* overcommit: uVAX II, 1 CPU, 8 tasks whose anonymous demand is 1.5x   *)
(* memory, swap 2x memory, interleaved with sequential scans of files   *)
(* larger than memory and periodic file writes; every sweep re-verifies *)
(* every stamp written by the previous one.                             *)
(* ------------------------------------------------------------------ *)

let overcommit ~seed =
  let r = rng (seed * 3 + 3) in
  let mem = 2 * mb in
  let tasks = 8 and cpu = 0 in
  let per_task = mem * 3 / 2 / page / tasks in
  let sweeps = 10 in
  let scan_files = 2 and scan_size = 3 * mb in
  let scan_file i = Printf.sprintf "/data/big%d" i in
  let files =
    List.init scan_files (fun i ->
        (scan_file i, fill ~stamp:(seed + 7000 + i) scan_size))
  in
  let setup =
    List.concat
      (List.init tasks (fun slot ->
           [ Spawn { slot }; Run { slot; cpu };
             Alloc { slot; cpu; region = 0; pages = per_task } ]))
  in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let scan_cursor = Array.make scan_files 0 and scan_next = ref 0 in
  let scan_chunk () =
    let f = !scan_next in
    scan_next := (f + 1) mod scan_files;
    let len = 8 * kb in
    emit (Read_file { cpu; file = scan_file f; off = scan_cursor.(f); len;
                      stream = f });
    scan_cursor.(f) <- (scan_cursor.(f) + len) mod scan_size
  in
  let logs = ref 0 and unread = Queue.create () in
  let write_log () =
    let file = Printf.sprintf "/log/%04d" !logs and len = range r 1 4 * page in
    incr logs;
    emit (Write_file { cpu; file; len; stamp = stamp_of r });
    Queue.add (file, len) unread
  in
  let read_log () =
    match Queue.take_opt unread with
    | Some (file, len) ->
      emit (Read_file { cpu; file; off = 0; len; stream = 7 })
    | None -> ()
  in
  (* File traffic at fixed intervals, so every seed issues the same mix
     of op kinds. *)
  let steps = ref 0 in
  let between () =
    incr steps;
    if !steps mod 16 = 0 then scan_chunk ();
    if !steps mod 48 = 0 then write_log ();
    if Queue.length unread > 3 then read_log ()
  in
  let sweep ~first =
    let order = Array.init per_task Fun.id in
    shuffle r order;
    (* Page p of every task, then p+1, so all working sets stay hot and
       the daemon cannot get ahead by evicting a task that is done.
       After the first sweep each write first checks what it overwrites,
       which the previous sweep (or swap) must have kept. *)
    Array.iter
      (fun page ->
         for slot = 0 to tasks - 1 do
           emit (put ~verify:(not first) r ~slot ~cpu ~region:0 ~page);
           between ()
         done)
      order
  in
  sweep ~first:true;
  for _ = 2 to sweeps do sweep ~first:false done;
  for page = 0 to per_task - 1 do
    for slot = 0 to tasks - 1 do
      emit (get r ~slot ~cpu ~region:0 ~page)
    done
  done;
  while not (Queue.is_empty unread) do read_log () done;
  { name = "overcommit"; arch = Mach_hw.Arch.uvax2; mem_bytes = mem; cpus = 1;
    swap_bytes = Some (2 * mem); files; setup = Array.of_list setup;
    ops = Array.of_list (List.rev !ops) }

let workloads = [ ("fork_compile", fork_compile); ("mp_shared", mp_shared);
                  ("overcommit", overcommit) ]

let make ~name ~seed =
  match List.assoc_opt name workloads with
  | Some f -> f ~seed
  | None -> invalid_arg ("unknown workload " ^ name)
