(* Hybrid storage: every key short enough to pack ({!Key.fits}) lives in
   the one allocation-free open-addressing {!Intmap}, keyed by its
   (hi, lo) pair; wider keys fall back to the string-keyed Hashtbl.  Both
   the string API and the packed API route through the same tables, so a
   map populated through one view (e.g. DSL [init] entries loaded as
   strings) is visible through the other.  The logical capacity bounds the
   two tables together. *)

type t = {
  capacity : int;
  packed : Intmap.t;
  wide : (string, int) Hashtbl.t;
}

let c_packed =
  Telemetry.Counter.make ~doc:"map ops served by the packed int-pair key path"
    "state.key_packed"

let c_fallback =
  Telemetry.Counter.make ~doc:"map ops on keys over 14 bytes, via the string-key fallback"
    "state.key_string_fallback"

let create ~capacity =
  if capacity < 1 then invalid_arg "Map_s.create: capacity must be >= 1";
  {
    capacity;
    packed = Intmap.create ~capacity;
    (* grows on demand: no corpus NF has a key over 14 bytes *)
    wide = Hashtbl.create 16;
  }

let capacity t = t.capacity
let size t = Intmap.length t.packed + Hashtbl.length t.wide

(* Packed view — the compiled per-packet path. *)

let mem_packed t hi lo =
  Telemetry.Counter.incr c_packed;
  Intmap.mem t.packed hi lo

let find_packed t hi lo ~absent =
  Telemetry.Counter.incr c_packed;
  Intmap.find t.packed hi lo ~absent

let put_packed t hi lo v =
  Telemetry.Counter.incr c_packed;
  if Hashtbl.length t.wide = 0 then Intmap.put t.packed hi lo v
  else if Intmap.mem t.packed hi lo then Intmap.put t.packed hi lo v
  else if size t >= t.capacity then false
  else Intmap.put t.packed hi lo v

let erase_packed t hi lo =
  Telemetry.Counter.incr c_packed;
  Intmap.erase t.packed hi lo

(* Wide view — string keys over 14 bytes.  The compiled path calls these
   with a [Bytes.unsafe_to_string] alias of its per-site key buffer:
   that is sound for every operation here except [put_wide], which stores
   the key and therefore must be given a string the caller will not
   mutate. *)

let mem_wide t k =
  Telemetry.Counter.incr c_fallback;
  Hashtbl.mem t.wide k

let find_wide t k ~absent =
  Telemetry.Counter.incr c_fallback;
  match Hashtbl.find t.wide k with v -> v | exception Not_found -> absent

let put_wide t k v =
  Telemetry.Counter.incr c_fallback;
  if size t < t.capacity || Hashtbl.mem t.wide k then begin
    (* below capacity, or full but overwriting an existing binding *)
    Hashtbl.replace t.wide k v;
    true
  end
  else false

let erase_wide t k =
  Telemetry.Counter.incr c_fallback;
  let before = Hashtbl.length t.wide in
  Hashtbl.remove t.wide k;
  Hashtbl.length t.wide < before

(* String view — init loading, the interpreter oracle, balancer
   migration. *)

let get t k =
  let v =
    if Key.fits k then find_packed t (Key.hi_of_string k) (Key.lo_of_string k) ~absent:min_int
    else find_wide t k ~absent:min_int
  in
  if v = min_int then None else Some v

let mem t k =
  if Key.fits k then mem_packed t (Key.hi_of_string k) (Key.lo_of_string k) else mem_wide t k

let put t k v =
  if Key.fits k then put_packed t (Key.hi_of_string k) (Key.lo_of_string k) v
  else put_wide t k v

let erase t k =
  if Key.fits k then erase_packed t (Key.hi_of_string k) (Key.lo_of_string k)
  else erase_wide t k

let iter t f =
  Intmap.iter t.packed (fun hi lo v -> f (Key.to_string ~hi ~lo) v);
  Hashtbl.iter f t.wide

let entries t =
  let acc = ref [] in
  iter t (fun k v -> acc := (k, v) :: !acc);
  !acc

let clear t =
  Intmap.clear t.packed;
  Hashtbl.reset t.wide

let copy t =
  { capacity = t.capacity; packed = Intmap.copy t.packed; wide = Hashtbl.copy t.wide }

let packed_size t = Intmap.length t.packed

let packed_stats t =
  let max_probe, mean_probe_x100 = Intmap.probe_stats t.packed in
  (max_probe, mean_probe_x100, Intmap.table_slots t.packed, Intmap.tombstones t.packed)

let pp fmt t = Format.fprintf fmt "map[%d/%d]" (size t) t.capacity
