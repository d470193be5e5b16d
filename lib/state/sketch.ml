type t = { depth : int; width : int; rows : int array array }

let create ?(depth = 5) ?(width = 4096) () =
  if depth < 1 || width < 1 then invalid_arg "Sketch.create";
  { depth; width; rows = Array.init depth (fun _ -> Array.make width 0) }

let depth t = t.depth
let width t = t.width

(* Per-row salted hashing.  The canonical form of a key of 14 bytes or
   less is its packed pair (see {!Key}): hashing the pair directly keeps
   the string API and the allocation-free [_packed] API landing on the
   same counters, which the interpreter/compiled differential equivalence
   depends on — a count-min estimate is a function of the collisions.  The
   pair folds into one int as [hi lor lo], with [hi]'s key bytes (none
   for a key of 7 bytes or less) mixed in by a multiply: [hi lor lo]
   alone would collide keys whose halves set the same bits. *)
let index_packed t row hi lo =
  let k = (hi lor lo) lxor ((hi land Key.lo_mask) * 0x1F3D5B79A3C6E4D5) in
  Hashtbl.hash (k + ((row + 1) * 0x2545F4914F6CDD1D)) mod t.width

let index t row key =
  if Key.fits key then index_packed t row (Key.hi_of_string key) (Key.lo_of_string key)
  else Hashtbl.hash (row, key) mod t.width

let add t key n =
  for row = 0 to t.depth - 1 do
    let i = index t row key in
    t.rows.(row).(i) <- t.rows.(row).(i) + n
  done

let increment t key = add t key 1

let count t key =
  let m = ref max_int in
  for row = 0 to t.depth - 1 do
    let c = t.rows.(row).(index t row key) in
    if c < !m then m := c
  done;
  !m

let over_limit t key ~limit = count t key > limit

let add_packed t hi lo n =
  for row = 0 to t.depth - 1 do
    let i = index_packed t row hi lo in
    t.rows.(row).(i) <- t.rows.(row).(i) + n
  done

let increment_packed t hi lo = add_packed t hi lo 1

let count_packed t hi lo =
  let m = ref max_int in
  for row = 0 to t.depth - 1 do
    let c = t.rows.(row).(index_packed t row hi lo) in
    if c < !m then m := c
  done;
  !m

let over_limit_packed t hi lo ~limit = count_packed t hi lo > limit

let clear t = Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.rows

let copy t = { depth = t.depth; width = t.width; rows = Array.map Array.copy t.rows }

let memory_bytes t = 4 * t.depth * t.width

let equal a b = a.depth = b.depth && a.width = b.width && a.rows = b.rows
