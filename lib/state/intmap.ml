(* Fixed-capacity map from packed key pairs to ints: open addressing,
   linear probing, tombstone deletion.  Keys are {!Key} (hi, lo) pairs and
   values are DSL integers, all immediate, so every operation is
   allocation-free — the property the compiled per-packet path relies on.
   A slot is [stride] consecutive ints of one array — hi, lo, value — so a
   probe reads one place in memory; a negative hi marks a slot empty or a
   tombstone, which is why keys need a non-negative hi (every {!Key} hi is).
   The logical capacity is Vigor's: [put] on a full map with an absent key
   fails and the NF observes it.  The physical table grows (it starts small
   so maps that hold few keys cost nothing) but the load factor stays at or
   below 1/2, which bounds probe sequences and guarantees termination
   without wraparound counters. *)

type t = {
  capacity : int; (* logical capacity; puts beyond it fail *)
  mutable mask : int; (* physical slots - 1 (power of two) *)
  mutable cells : int array; (* [stride] ints per slot: hi, lo, value *)
  mutable size : int;
  mutable tombs : int;
}

let stride = 3
let empty = -1
let tombstone = -2

let initial_table = 16

let make_cells n = Array.make (stride * n) empty

let c_rebuilds =
  Telemetry.Counter.make ~doc:"packed-map table rebuilds (growth or tombstone purge)"
    "state.map_rebuilds"

let create ~capacity =
  if capacity < 1 then invalid_arg "Intmap.create: capacity must be >= 1";
  { capacity; mask = initial_table - 1; cells = make_cells initial_table; size = 0; tombs = 0 }

let capacity t = t.capacity
let length t = t.size

(* Multiplicative mixing with xor-shifts on both sides, so every bit of
   both halves reaches the low bits the mask keeps; the constants fit a
   63-bit int and multiplication wraps, which is all a table hash needs. *)
let slot mask hi lo =
  let h = (hi * 0x1F3D5B79A3C6E4D5) lxor lo in
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* The probe loops are top-level functions taking every capture as an
   argument: a local [let rec] would close over [t]/[hi]/[lo] and allocate
   a closure per call, defeating the allocation-free contract. *)

(* Slot of the key, or -1.  Load <= 1/2 keeps an empty slot on every probe
   path, so the loop terminates. *)
let rec probe_find cells mask hi lo i =
  let j = stride * i in
  let h = Array.unsafe_get cells j in
  if h = hi && Array.unsafe_get cells (j + 1) = lo then i
  else if h = empty then -1
  else probe_find cells mask hi lo ((i + 1) land mask)

let find_slot t hi lo = if hi < 0 then -1 else probe_find t.cells t.mask hi lo (slot t.mask hi lo)

let mem t hi lo = find_slot t hi lo >= 0

let find t hi lo ~absent =
  let i = find_slot t hi lo in
  if i < 0 then absent else Array.unsafe_get t.cells ((stride * i) + 2)

let rec probe_free cells mask i =
  if Array.unsafe_get cells (stride * i) >= 0 then probe_free cells mask ((i + 1) land mask)
  else i

let rec insert_fresh t hi lo v =
  (* precondition: the key is absent; keep load (occupied + tombstones)
     <= 1/2 *)
  if 2 * (t.size + t.tombs + 1) > t.mask + 1 then grow t;
  let i = probe_free t.cells t.mask (slot t.mask hi lo) in
  let j = stride * i in
  if Array.unsafe_get t.cells j = tombstone then t.tombs <- t.tombs - 1;
  Array.unsafe_set t.cells j hi;
  Array.unsafe_set t.cells (j + 1) lo;
  Array.unsafe_set t.cells (j + 2) v;
  t.size <- t.size + 1

and grow t =
  (* Rebuild at the size the LIVE entries need — smallest power of two
     that leaves them at load <= 1/4 — not at a multiple of the current
     table.  Rebuilding drops every tombstone, so when the load breach is
     tombstone-driven (erase/re-insert churn at a stable live size) the
     table is rebuilt in place instead of doubling without bound; load
     1/4 after a rebuild leaves >= n/4 operations before the next one,
     keeping inserts amortized O(1). *)
  Telemetry.Counter.incr c_rebuilds;
  let n = ref initial_table in
  while !n < 4 * (t.size + 1) do
    n := !n * 2
  done;
  let old = t.cells in
  t.cells <- make_cells !n;
  t.mask <- !n - 1;
  t.size <- 0;
  t.tombs <- 0;
  let j = ref 0 in
  while !j < Array.length old do
    let hi = Array.unsafe_get old !j in
    if hi >= 0 then
      insert_fresh t hi (Array.unsafe_get old (!j + 1)) (Array.unsafe_get old (!j + 2));
    j := !j + stride
  done

let put t hi lo v =
  if hi < 0 then invalid_arg "Intmap.put: negative hi";
  let i = find_slot t hi lo in
  if i >= 0 then begin
    Array.unsafe_set t.cells ((stride * i) + 2) v;
    true
  end
  else if t.size >= t.capacity then false
  else begin
    insert_fresh t hi lo v;
    true
  end

let erase t hi lo =
  let i = find_slot t hi lo in
  if i < 0 then false
  else begin
    Array.unsafe_set t.cells (stride * i) tombstone;
    t.size <- t.size - 1;
    t.tombs <- t.tombs + 1;
    true
  end

let copy t =
  (* field-exact duplicate: same physical table size, same probe layout,
     same tombstones — two copies that see the same operation sequence
     stay structurally identical, which the SCR replica seeding relies
     on (replicas must evolve in lockstep after a discipline switch) *)
  { t with cells = Array.copy t.cells }

let iter t f =
  for i = 0 to t.mask do
    let j = stride * i in
    let hi = Array.unsafe_get t.cells j in
    if hi >= 0 then f hi (Array.unsafe_get t.cells (j + 1)) (Array.unsafe_get t.cells (j + 2))
  done

let table_slots t = t.mask + 1
let tombstones t = t.tombs

(* Probe length of an entry = forward distance from its home slot to where
   it actually lives; [find] walks exactly that many extra slots. *)
let probe_stats t =
  let max_p = ref 0 and total = ref 0 in
  for i = 0 to t.mask do
    let j = stride * i in
    let hi = Array.unsafe_get t.cells j in
    if hi >= 0 then begin
      let d = (i - slot t.mask hi (Array.unsafe_get t.cells (j + 1))) land t.mask in
      if d > !max_p then max_p := d;
      total := !total + d
    end
  done;
  let mean_x100 = if t.size = 0 then 0 else 100 * !total / t.size in
  (!max_p, mean_x100)

(* Emptied where it is, keeping the table it grew to: a map allocated
   once, as Vigor's are in [init()], is not regrown after every reset. *)
let clear t =
  Array.fill t.cells 0 (Array.length t.cells) empty;
  t.size <- 0;
  t.tombs <- 0
