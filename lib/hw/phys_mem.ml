type frame = int

(* Each slot of [storage] is one of three things: [hole] for an absent
   frame, the memory's shared read-only [zero] image for a present frame
   never written, or bytes the frame owns.  Only [writable] replaces the
   zero image, so nothing ever writes through it. *)
type t = {
  page_size : int;
  zero : Bytes.t;
  storage : Bytes.t array;
  mutable materialized : int;
}

let hole = Bytes.empty

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~page_size ~frames ?(holes = []) () =
  if not (is_power_of_two page_size) then
    invalid_arg "Phys_mem.create: page size must be a power of two";
  if frames <= 0 then invalid_arg "Phys_mem.create: no frames";
  let zero = Bytes.make page_size '\000' in
  let storage = Array.make frames zero in
  List.iter
    (fun (lo, hi) ->
       let lo = max lo 0 and hi = min hi (frames - 1) in
       if lo <= hi then Array.fill storage lo (hi - lo + 1) hole)
    holes;
  { page_size; zero; storage; materialized = 0 }

let page_size t = t.page_size

let frame_count t = Array.length t.storage

let frame_exists t f =
  f >= 0 && f < Array.length t.storage && t.storage.(f) != hole

let present_frames t =
  let acc = ref [] in
  for f = Array.length t.storage - 1 downto 0 do
    if t.storage.(f) != hole then acc := f :: !acc
  done;
  !acc

let materialized_frames t = t.materialized

let zero_image_intact t = Bytes.for_all (fun c -> c = '\000') t.zero

let readable t f =
  let b = t.storage.(f) in
  if b == hole then invalid_arg "Phys_mem: access to absent frame";
  b

(* Give a never-written frame its own storage; call only after every
   range check has passed, so a rejected access materialises nothing. *)
let writable t f =
  let b = readable t f in
  if b != t.zero then b
  else begin
    let b = Bytes.make t.page_size '\000' in
    t.storage.(f) <- b;
    t.materialized <- t.materialized + 1;
    b
  end

let in_frame name t ~offset ~len =
  if offset < 0 || len < 0 || offset + len > t.page_size then
    invalid_arg (name ^ ": out of frame")

let in_buffer name buf ~off ~len =
  if off < 0 || off + len > Bytes.length buf then
    invalid_arg (name ^ ": out of buffer")

let blit_out t f ~offset ~dst ~dst_off ~len =
  let b = readable t f in
  in_frame "Phys_mem.blit_out" t ~offset ~len;
  in_buffer "Phys_mem.blit_out" dst ~off:dst_off ~len;
  Bytes.blit b offset dst dst_off len

let blit_in t f ~offset ~src ~src_off ~len =
  ignore (readable t f);
  in_frame "Phys_mem.blit_in" t ~offset ~len;
  in_buffer "Phys_mem.blit_in" src ~off:src_off ~len;
  Bytes.blit src src_off (writable t f) offset len

let read t f ~offset ~len =
  let b = readable t f in
  in_frame "Phys_mem.read" t ~offset ~len;
  Bytes.sub b offset len

let write t f ~offset data =
  ignore (readable t f);
  let len = Bytes.length data in
  in_frame "Phys_mem.write" t ~offset ~len;
  Bytes.blit data 0 (writable t f) offset len

let read_byte t f ~offset = Bytes.get (readable t f) offset

let write_byte t f ~offset c =
  ignore (readable t f);
  in_frame "Phys_mem.write_byte" t ~offset ~len:1;
  Bytes.unsafe_set (writable t f) offset c

let zero_frame t f =
  let b = readable t f in
  if b != t.zero then Bytes.fill b 0 t.page_size '\000'

let copy_frame t ~src ~dst =
  let s = readable t src in
  if s == t.zero then zero_frame t dst
  else Bytes.blit s 0 (writable t dst) 0 t.page_size

let frame_equal t a b = Bytes.equal (readable t a) (readable t b)
