(* Packed map/sketch keys.  The stateful containers are logically keyed by
   byte strings (the Vigor encoding that Dsl.Ast.key_of_parts produces); a
   key of at most [max_packed_bytes] bytes is held instead as two immediate
   OCaml ints, so the per-packet fast path never allocates a key.  Read the
   key as one big-endian number: [lo] is its low [lo_bytes] bytes, and [hi]
   the bytes above them plus the byte length at [tag_shift].  The length
   tag keeps keys of different byte lengths distinct, exactly as their
   string encodings are. *)

let lo_bytes = 7
let max_packed_bytes = 2 * lo_bytes
let tag_shift = 8 * lo_bytes
let lo_mask = (1 lsl tag_shift) - 1

let fits s = String.length s <= max_packed_bytes

let tag ~bytes = bytes lsl tag_shift

let byte_length hi = hi lsr tag_shift

let part_mask ~bytes = if bytes >= 8 then -1 else (1 lsl (8 * bytes)) - 1

let part_shifts bytes =
  snd (List.fold_right (fun b (shift, acc) -> (shift + (8 * b), shift :: acc)) bytes (0, []))

(* Every shift lies in 0..56: a part wholly inside [lo] contributes
   nothing to [hi] because its right shift clears it, and one at or above
   [tag_shift] nothing to [lo] because its [lo] mask is 0, so applying the
   geometry takes no branch per part. *)
let geometry bytes =
  if List.fold_left ( + ) 0 bytes > max_packed_bytes then
    invalid_arg "Key.geometry: key too wide to pack";
  let place bytes s =
    let m = part_mask ~bytes in
    if s >= tag_shift then [| m; 0; 0; 0; s - tag_shift |]
    else [| m; s; lo_mask; tag_shift - s; 0 |]
  in
  Array.concat (List.map2 place bytes (part_shifts bytes))

let byte_at s n i = Char.code (String.unsafe_get s (n - 1 - i))

let check s =
  if not (fits s) then invalid_arg "Key: key too wide to pack"

let lo_of_string s =
  check s;
  let n = String.length s in
  let v = ref 0 in
  for i = min n lo_bytes - 1 downto 0 do
    v := (!v lsl 8) lor byte_at s n i
  done;
  !v

let hi_of_string s =
  check s;
  let n = String.length s in
  let v = ref 0 in
  for i = n - 1 downto lo_bytes do
    v := (!v lsl 8) lor byte_at s n i
  done;
  tag ~bytes:n lor !v

let to_string ~hi ~lo =
  let n = byte_length hi in
  String.init n (fun j ->
      let i = n - 1 - j in
      let b = if i < lo_bytes then lo lsr (8 * i) else hi lsr (8 * (i - lo_bytes)) in
      Char.unsafe_chr (b land 0xff))
