(* The benchmark's output checks: a read that differs from the expected
   copy is a failed op, for anonymous memory and for files alike, and a
   clean replay fails nothing and repeats to the cycle. *)

open Perfbench

let workload ops : Gen.t =
  { Gen.name = "test"; arch = Mach_hw.Arch.uvax2; mem_bytes = 1024 * 1024;
    cpus = 1; swap_bytes = None;
    files = [ ("/f", Gen.fill ~stamp:7 (3 * Gen.page)) ];
    setup =
      [| Gen.Spawn { slot = 0 }; Run { slot = 0; cpu = 0 };
         Alloc { slot = 0; cpu = 0; region = 0; pages = 4 } |];
    ops }

let put page = Gen.Put { slot = 0; cpu = 0; region = 0; page; off = 32;
                         len = 64; stamp = 100 + page;
                         verify = false; think = 0 }
let get page = Gen.Get { slot = 0; cpu = 0; region = 0; page; off = 0;
                         len = 128; think = 0 }
let read = Gen.Read_file { cpu = 0; file = "/f"; off = 100; len = 5000;
                           stream = 0 }

let replay w =
  let d = Drive.boot w in
  Array.iter (fun op -> ignore (Drive.step d op)) w.Gen.setup;
  let lat = Array.map (Drive.step d) w.Gen.ops in
  (d, lat)

let () =
  let w = workload [| put 0; put 1; get 0; get 1; get 2; read |] in
  let d, lat = replay w in
  assert (d.Drive.failed = 0);
  assert (d.Drive.attempted = 9);
  let _, lat' = replay w in
  assert (lat = lat');
  (* A wrong expectation planted for page 1 fails exactly the read of
     page 1, even though the kernel returned the right bytes. *)
  Drive.plant_wrong_expectation d ~slot:0 ~region:0 ~page:1 ~off:40;
  ignore (Drive.step d (get 0));
  assert (d.Drive.failed = 0);
  ignore (Drive.step d (get 1));
  assert (d.Drive.failed = 1);
  assert (d.Drive.attempted = 11);
  (* The same for a file: the expected copy is what the check trusts. *)
  let data = Hashtbl.find d.Drive.files "/f" in
  Bytes.set data 200 (Char.chr (Char.code (Bytes.get data 200) lxor 1));
  ignore (Drive.step d read);
  assert (d.Drive.failed = 2);
  print_endline "perfbench output checks: ok"
