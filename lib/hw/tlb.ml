type entry = { asid : int; vpn : int; pfn : int; prot : Prot.t }

(* A translation is keyed by one int: the asid above [vpn_bits] bits of
   virtual page number.  Every page the simulated machines can map fits
   (the largest user space, 4 GiB of 512-byte pages, is 2^23 pages); a
   vpn beyond the field can never be cached, so lookups of one miss. *)
let vpn_bits = 40
let vpn_limit = 1 lsl vpn_bits
let asid_limit = 1 lsl (62 - vpn_bits)

let key ~asid ~vpn = (asid lsl vpn_bits) lor vpn
let asid_of key = key lsr vpn_bits
let vpn_of key = key land (vpn_limit - 1)
let in_range ~asid ~vpn =
  vpn >= 0 && vpn < vpn_limit && asid >= 0 && asid < asid_limit

module Keys = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    (* Consecutive pages of one space land in consecutive buckets; the
       asid spreads spaces apart. *)
    let hash k = k lxor (asid_of k * 0x9E3779B1)
  end)

(* Fully-associative with FIFO replacement.  [order] is a ring of keys in
   insertion order.  Invalidations leave their keys behind as dead slots,
   and a key that is inserted again while a dead slot for it is still
   queued takes over that older slot (see tlb.mli): [evict_one] skips dead
   keys and evicts the first live one it meets.  The ring holds at most
   [2 * capacity + 1] keys because [insert] compacts it past
   [2 * capacity]. *)
type t = {
  capacity : int;
  table : entry Keys.t;
  order : int array;
  mutable head : int;     (* index of the oldest queued key *)
  mutable queued : int;   (* keys in the ring, live or dead *)
  seen : unit Keys.t;     (* scratch for [live_keys] *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Tlb.create: negative capacity";
  { capacity; table = Keys.create 64;
    order = Array.make (if capacity = 0 then 0 else (2 * capacity) + 1) 0;
    head = 0; queued = 0; seen = Keys.create capacity; hits = 0; misses = 0 }

let capacity t = t.capacity

let lookup t ~asid ~vpn =
  let found =
    if in_range ~asid ~vpn then Keys.find_opt t.table (key ~asid ~vpn)
    else None
  in
  (match found with
   | Some _ -> t.hits <- t.hits + 1
   | None -> t.misses <- t.misses + 1);
  found

let slot t i = t.order.((t.head + i) mod Array.length t.order)

let push t k =
  t.order.((t.head + t.queued) mod Array.length t.order) <- k;
  t.queued <- t.queued + 1

let rec evict_one t =
  if t.queued > 0 then begin
    let k = t.order.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.order;
    t.queued <- t.queued - 1;
    let live = Keys.length t.table in
    Keys.remove t.table k;
    if Keys.length t.table = live then evict_one t
  end

(* The live keys of the ring, each once, at its first (oldest) slot: the
   position [evict_one] would act on. *)
let live_keys t =
  Keys.clear t.seen;
  let acc = ref [] in
  for i = 0 to t.queued - 1 do
    let k = slot t i in
    if Keys.mem t.table k && not (Keys.mem t.seen k) then begin
      Keys.add t.seen k ();
      acc := k :: !acc
    end
  done;
  List.rev !acc

(* Rebuild the ring from its live keys once it holds more dead weight than
   live entries, so it stays O(capacity). *)
let compact t =
  let live = live_keys t in
  t.head <- 0;
  t.queued <- 0;
  List.iter (push t) live

let insert t e =
  if t.capacity > 0 then begin
    if not (in_range ~asid:e.asid ~vpn:e.vpn) then
      invalid_arg "Tlb.insert: asid or vpn out of range";
    let k = key ~asid:e.asid ~vpn:e.vpn in
    if not (Keys.mem t.table k) then begin
      if Keys.length t.table >= t.capacity then evict_one t;
      if t.queued > 2 * t.capacity then compact t;
      push t k
    end;
    Keys.replace t.table k e
  end

let invalidate_page t ~asid ~vpn =
  if in_range ~asid ~vpn then Keys.remove t.table (key ~asid ~vpn)

let remove_matching t p =
  let doomed =
    Keys.fold (fun k _ acc -> if p k then k :: acc else acc) t.table []
  in
  List.iter (Keys.remove t.table) doomed

let invalidate_range t ~asid ~lo_vpn ~hi_vpn =
  (* Walk whichever side is smaller: the span or the current contents. *)
  if hi_vpn - lo_vpn <= Keys.length t.table then
    for vpn = lo_vpn to hi_vpn - 1 do
      invalidate_page t ~asid ~vpn
    done
  else if Keys.length t.table > 0 then
    remove_matching t (fun k ->
        asid_of k = asid && vpn_of k >= lo_vpn && vpn_of k < hi_vpn)

let invalidate_asid t ~asid =
  if Keys.length t.table > 0 then remove_matching t (fun k -> asid_of k = asid)

let invalidate_all t =
  Keys.reset t.table;
  t.head <- 0;
  t.queued <- 0

let hits t = t.hits

let misses t = t.misses

let entries t = List.map (Keys.find t.table) (live_keys t)
