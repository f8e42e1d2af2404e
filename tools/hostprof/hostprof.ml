(* hostprof: where the simulator spends host time.

   Generates one perfbench workload from its seed ([Gen]), boots and sets
   it up unsampled, then replays the measured phase ([Drive.step]) with a
   SIGPROF interval timer running.  Each tick records the OCaml call stack
   ([Printexc.get_callstack]); at the end the stacks are written folded —
   one "outer;...;inner count" line per distinct stack, most frequent
   first — the input format of flame-graph tools.  When the phase is over
   before [--seconds] of it have been sampled, a fresh kernel is booted
   and the phase replayed, until the budget is spent.

     dune build ./tools/hostprof/hostprof.exe
     _build/default/tools/hostprof/hostprof.exe --workload overcommit \
       --seconds 5 -o overcommit.folded --top 15

   With [--top N] the N heaviest frames follow on standard output (after
   the stacks, when those go there too), once by self share — samples
   with the frame innermost — and once by inclusive share — samples with
   the frame anywhere on the stack.  Those lines start with [#], so
   flame-graph tools skip them.

   The OCaml 5 runtime runs a signal handler at the next poll point
   (an allocation, a function entry or a loop back-edge), not at the
   instruction the timer interrupted.  A sample is therefore charged to
   the nearest poll point after the work it stands for: long
   allocation-free stretches, and time spent in C (memory copies, the
   polymorphic hash), show up in their OCaml callers.  Frames of this
   tool and of [Drive] are left in, so a stack reads from the op down. *)

open Perfbench

let workload = ref ""
let seed = ref 1
let seconds = ref 1.0
let out = ref ""
let top = ref 0

(* A sample every 1 ms of CPU time (the kernel may round this up to its
   tick), keeping the innermost 96 frames. *)
let interval = 0.001
let depth = 96

(* Samples of the running replay; only read once sampling has stopped. *)
let samples : Printexc.raw_backtrace list ref = ref []
let sampling = ref false

let on_prof _ =
  if !sampling then samples := Printexc.get_callstack depth :: !samples

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

(* One boot, set-up and measured phase; the phase stops early once the
   sampled budget is spent.  Returns the CPU seconds sampled. *)
let replay (w : Gen.t) ~budget =
  let d = Drive.boot w in
  Array.iter (fun op -> ignore (Drive.step d op)) w.Gen.setup;
  let t0 = Sys.time () in
  sampling := true;
  (try
     Array.iteri
       (fun i op ->
          ignore (Drive.step d op);
          if i land 63 = 63 && Sys.time () -. t0 >= budget then raise Exit)
       w.Gen.ops
   with Exit -> ());
  sampling := false;
  Sys.time () -. t0

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some name -> name
  | None -> (
      match Printexc.Slot.location slot with
      | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
      | None -> "?")

(* Innermost frame first, without [on_prof] itself. *)
let frames bt =
  match Printexc.backtrace_slots bt with
  | None -> None
  | Some slots ->
    Some
      (Array.to_list slots |> List.map frame_name
       |> List.filter (fun n -> n <> "Dune__exe__Hostprof.on_prof"))

let bump counts key =
  Hashtbl.replace counts key
    (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))

(* Heaviest first, ties by name. *)
let ranked counts =
  Hashtbl.fold (fun s n acc -> (n, s) :: acc) counts []
  |> List.sort (fun (a, s) (b, t) -> if a <> b then compare b a else compare s t)

(* Folded stacks, outermost frame first. *)
let write oc stacks =
  let counts = Hashtbl.create 1024 in
  List.iter (fun names -> bump counts (String.concat ";" (List.rev names)))
    stacks;
  List.iter (fun (n, s) -> Printf.fprintf oc "%s %d\n" s n) (ranked counts)

let print_top n stacks =
  let total = List.length stacks in
  let self = Hashtbl.create 256 and incl = Hashtbl.create 256 in
  List.iter
    (fun names ->
       (match names with inner :: _ -> bump self inner | [] -> ());
       List.iter (bump incl) (List.sort_uniq compare names))
    stacks;
  let share k = 100. *. float_of_int k /. float_of_int (max 1 total) in
  List.iter
    (fun (what, counts) ->
       Printf.printf "# top %d frames by %s share of %d samples\n" n what
         total;
       List.iteri
         (fun i (k, name) ->
            if i < n then Printf.printf "# %5.1f%%  %s\n" (share k) name)
         (ranked counts))
    [ ("self", self); ("inclusive", incl) ]

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME fork_compile|mp_shared|overcommit");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds,
       "S CPU seconds of measured phase to sample (default 1)");
      ("-o", Arg.Set_string out, "FILE write the folded stacks here");
      ("--top", Arg.Set_int top,
       "N then print the N heaviest frames by self and inclusive share") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hostprof.exe --workload NAME [--seed N] [--seconds S] [-o FILE] \
     [--top N]";
  if not (List.mem_assoc !workload Gen.workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let w = Gen.make ~name:!workload ~seed:!seed in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_prof);
  set_timer interval;
  let rec go spent runs =
    if spent < !seconds then
      go (spent +. replay w ~budget:(!seconds -. spent)) (runs + 1)
    else runs
  in
  let runs = go 0. 0 in
  set_timer 0.;
  Printf.eprintf "hostprof: %s seed %d: %d samples over %d replay(s)\n"
    !workload !seed (List.length !samples) runs;
  let stacks = List.filter_map frames !samples in
  if !out = "" then write stdout stacks
  else begin
    let oc = open_out !out in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc stacks)
  end;
  if !top > 0 then print_top !top stacks
