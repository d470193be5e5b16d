let key_bits_for_input n = n + 32

let hashes = Telemetry.Counter.make "toeplitz.hashes" ~doc:"Toeplitz hashes computed"

let hash ~key d =
  Telemetry.Counter.incr hashes;
  let kn = Bitvec.length key and dn = Bitvec.length d in
  if kn < key_bits_for_input dn then invalid_arg "Toeplitz.hash: key too short for input";
  let acc = ref 0 in
  (* window = key bits [x .. x+31] when input bit x is set *)
  for x = 0 to dn - 1 do
    if Bitvec.get d x then begin
      let w = ref 0 in
      for b = 0 to 31 do
        w := (!w lsl 1) lor (if Bitvec.get key (x + b) then 1 else 0)
      done;
      acc := !acc lxor !w
    end
  done;
  Int32.of_int !acc

let hash_int ~key d = Int32.to_int (hash ~key d) land 0xffffffff

(* Table-driven fast path (DPDK rte_thash style).  For every input *byte*
   position we precompute a 256-entry table of 32-bit partial hashes: entry
   [b] is the XOR of the key windows selected by the set bits of [b].  A
   hash is then one table lookup and one XOR per input byte instead of up to
   eight 32-bit window extractions — the bit-by-bit [hash] above stays as
   the oracle the property tests compare against. *)
module Key = struct
  type t = {
    key : Bitvec.t;
    max_input_bits : int; (* largest input this key can hash *)
    tables : int array; (* tables.(256 * i + b): partial hash of byte value b at byte i *)
  }

  let compile key =
    let kn = Bitvec.length key in
    if kn < 32 then invalid_arg "Toeplitz.Key.compile: key shorter than 32 bits";
    let max_input_bits = kn - 32 in
    let nbytes = (max_input_bits + 7) / 8 in
    (* window.(x) = key bits [x .. x+31], computed incrementally *)
    let windows = Array.make (8 * nbytes) 0 in
    let w = ref 0 in
    for b = 0 to 31 do
      w := (!w lsl 1) lor (if Bitvec.get key b then 1 else 0)
    done;
    for x = 0 to max_input_bits - 1 do
      windows.(x) <- !w;
      w := ((!w lsl 1) land 0xffffffff) lor (if Bitvec.get key (x + 32) then 1 else 0)
    done;
    (* positions past [max_input_bits] keep window 0: they are only ever
       indexed by the zero padding bits of a ragged last byte, which never
       select an entry *)
    let tables = Array.make (256 * nbytes) 0 in
    for i = 0 to nbytes - 1 do
      let t = 256 * i in
      (* bit (1 lsl k) of the byte value is input bit 8i + (7-k); every
         other value is its lowest set bit xor the rest *)
      for k = 0 to 7 do
        tables.(t + (1 lsl k)) <- windows.((8 * i) + (7 - k))
      done;
      for v = 1 to 255 do
        let low = v land -v in
        if low <> v then tables.(t + v) <- tables.(t + low) lxor tables.(t + (v - low))
      done
    done;
    { key; max_input_bits; tables }

  let key t = t.key
  let max_input_bits t = t.max_input_bits
  let tables t = t.tables

  let hash t d =
    Telemetry.Counter.incr hashes;
    let dn = Bitvec.length d in
    if dn > t.max_input_bits then invalid_arg "Toeplitz.Key.hash: key too short for input";
    let acc = ref 0 in
    for i = 0 to Bitvec.bytes_length d - 1 do
      acc := !acc lxor Array.unsafe_get t.tables ((256 * i) + Bitvec.byte d i)
    done;
    Int32.of_int !acc

  let hash_int t d = Int32.to_int (hash t d) land 0xffffffff
end

(* Key published in the Microsoft RSS hash verification suite and used as
   DPDK's default. *)
let microsoft_test_key =
  Bitvec.of_hex
    "6d5a56da255b0ec24167253d43a38fb0d0ca2bcbae7b30b477cb2da38030f20c6a42b73bbeac01fa"
