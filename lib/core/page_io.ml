open Mach_hw
open Types
open Mach_pmap

let phys (sys : Vm_sys.t) = Machine.phys sys.Vm_sys.machine

let hw_size sys = Phys_mem.page_size (phys sys)

let charge_move (sys : Vm_sys.t) len =
  Vm_sys.charge sys (((len + 15) / 16) * (Vm_sys.cost sys).Mach_hw.Arch.move_16b)

let zero (sys : Vm_sys.t) p =
  let m = Vm_sys.frames sys in
  for i = 0 to m - 1 do
    Pmap_domain.zero_page sys.Vm_sys.domain ~pfn:(p.pfn + i)
  done

let copy (sys : Vm_sys.t) ~src ~dst =
  let m = Vm_sys.frames sys in
  for i = 0 to m - 1 do
    Pmap_domain.copy_page sys.Vm_sys.domain ~src:(src.pfn + i)
      ~dst:(dst.pfn + i)
  done

(* Apply [f frame ~foff ~pos ~chunk] to each hardware-frame run of the
   page byte range [off, off+len); [pos] is the run's offset from [off]. *)
let iter_frames sys p ~off ~len f =
  let hw = hw_size sys in
  let rec loop pos =
    if pos < len then begin
      let abs = off + pos in
      let foff = abs mod hw in
      let chunk = min (hw - foff) (len - pos) in
      f (p.pfn + (abs / hw)) ~foff ~pos ~chunk;
      loop (pos + chunk)
    end
  in
  loop 0

let copy_in sys p ~off data =
  let len = Bytes.length data in
  if off < 0 || off + len > sys.Vm_sys.page_size then
    invalid_arg "Page_io.copy_in";
  iter_frames sys p ~off ~len (fun frame ~foff ~pos ~chunk ->
      Phys_mem.blit_in (phys sys) frame ~offset:foff ~src:data ~src_off:pos
        ~len:chunk);
  charge_move sys len

let blit_out sys p ~off ~len ~dst ~dst_off =
  if off < 0 || len < 0 || off + len > sys.Vm_sys.page_size then
    invalid_arg "Page_io.blit_out";
  iter_frames sys p ~off ~len (fun frame ~foff ~pos ~chunk ->
      Phys_mem.blit_out (phys sys) frame ~offset:foff ~dst
        ~dst_off:(dst_off + pos) ~len:chunk);
  charge_move sys len

let copy_out sys p ~off ~len =
  let buf = Bytes.create len in
  blit_out sys p ~off ~len ~dst:buf ~dst_off:0;
  buf

let fill sys p ?(src_off = 0) data =
  let ps = sys.Vm_sys.page_size in
  let len = max 0 (min ps (Bytes.length data - src_off)) in
  (* Only a short source leaves a tail to zero. *)
  if len < ps then
    for i = 0 to Vm_sys.frames sys - 1 do
      Phys_mem.zero_frame (phys sys) (p.pfn + i)
    done;
  iter_frames sys p ~off:0 ~len (fun frame ~foff ~pos ~chunk ->
      Phys_mem.blit_in (phys sys) frame ~offset:foff ~src:data
        ~src_off:(src_off + pos) ~len:chunk);
  charge_move sys ps

let contents sys p = copy_out sys p ~off:0 ~len:sys.Vm_sys.page_size
