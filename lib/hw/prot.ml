type t = { read : bool; write : bool; execute : bool }

let make ~read ~write ~execute = { read; write; execute }

let none = { read = false; write = false; execute = false }
let read_only = { read = true; write = false; execute = false }
let read_write = { read = true; write = true; execute = false }
let read_execute = { read = true; write = false; execute = true }
let all = { read = true; write = true; execute = true }

let is_none p = not (p.read || p.write || p.execute)

let subset p ~of_ =
  (not p.read || of_.read)
  && (not p.write || of_.write)
  && (not p.execute || of_.execute)

let inter p q =
  { read = p.read && q.read;
    write = p.write && q.write;
    execute = p.execute && q.execute }

let union p q =
  { read = p.read || q.read;
    write = p.write || q.write;
    execute = p.execute || q.execute }

let remove_write p = { p with write = false }

let allows p ~write = if write then p.write else p.read

let equal p q = p = q

let to_bits p =
  (if p.read then 1 else 0)
  lor (if p.write then 2 else 0)
  lor (if p.execute then 4 else 0)

let by_bits =
  Array.init 8 (fun b ->
      { read = b land 1 <> 0; write = b land 2 <> 0; execute = b land 4 <> 0 })

let of_bits b = by_bits.(b land 7)

let pp ppf p =
  Format.fprintf ppf "%c%c%c"
    (if p.read then 'r' else '-')
    (if p.write then 'w' else '-')
    (if p.execute then 'x' else '-')

let to_string p = Format.asprintf "%a" pp p
