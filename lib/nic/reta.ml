type t = { table : int array; queues : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(size = 512) ~queues () =
  if not (is_power_of_two size) then invalid_arg "Reta.create: size must be a power of two";
  if queues < 1 then invalid_arg "Reta.create: queues must be >= 1";
  { table = Array.init size (fun i -> i mod queues); queues }

let size t = Array.length t.table
let queues t = t.queues
let lookup t hash = t.table.(hash land (Array.length t.table - 1))
let entries t = Array.copy t.table

let queue_loads t ~bucket_load =
  if Array.length bucket_load <> Array.length t.table then
    invalid_arg "Reta.queue_loads: bucket_load length";
  let loads = Array.make t.queues 0. in
  Array.iteri (fun i q -> loads.(q) <- loads.(q) +. bucket_load.(i)) t.table;
  loads

let imbalance t ~bucket_load =
  let loads = queue_loads t ~bucket_load in
  let total = Array.fold_left ( +. ) 0. loads in
  if total <= 0. then 1.0
  else
    let mean = total /. float_of_int t.queues in
    Array.fold_left Float.max 0. loads /. mean

(* Greedy rebalance: repeatedly move the lightest bucket of the most loaded
   queue to the least loaded queue while that reduces the spread.  This is
   the static version of the RSS++ algorithm: it swaps indirection entries,
   never splits a bucket (colliding flows stay together, §5 "attacking state
   sharding"). *)
let rebalance t ~bucket_load =
  if Array.length bucket_load <> Array.length t.table then
    invalid_arg "Reta.rebalance: bucket_load length";
  let table = Array.copy t.table in
  let loads = Array.make t.queues 0. in
  Array.iteri (fun i q -> loads.(q) <- loads.(q) +. bucket_load.(i)) table;
  let continue = ref true in
  let guard = ref (4 * Array.length table) in
  while !continue && !guard > 0 do
    decr guard;
    let hi = ref 0 and lo = ref 0 in
    Array.iteri
      (fun q l ->
        if l > loads.(!hi) then hi := q;
        if l < loads.(!lo) then lo := q)
      loads;
    if !hi = !lo then continue := false
    else begin
      (* lightest non-zero bucket currently mapped to the hot queue *)
      let best = ref (-1) in
      Array.iteri
        (fun i q ->
          if q = !hi && bucket_load.(i) > 0. then
            if !best < 0 || bucket_load.(i) < bucket_load.(!best) then best := i)
        table;
      if !best < 0 then continue := false
      else begin
        let moved = bucket_load.(!best) in
        (* only move when it strictly improves the spread *)
        if loads.(!hi) -. moved >= loads.(!lo) +. moved -. 1e-12 then begin
          table.(!best) <- !lo;
          loads.(!hi) <- loads.(!hi) -. moved;
          loads.(!lo) <- loads.(!lo) +. moved
        end
        else continue := false
      end
    end
  done;
  { t with table }

(* Failover remap: reassign every bucket pointing at a dead queue to the
   live queues, round-robin, keeping live assignments untouched.  Whole
   buckets move (colliding flows stay together, exactly like [rebalance]),
   so the sharding invariant — each flow on exactly one live core — is
   preserved by construction. *)
let remap t ~live =
  if Array.length live <> t.queues then invalid_arg "Reta.remap: live length";
  let live_qs =
    Array.of_list (List.filter (fun q -> live.(q)) (List.init t.queues Fun.id))
  in
  if Array.length live_qs = 0 then invalid_arg "Reta.remap: no live queue";
  let k = ref 0 in
  let table =
    Array.map
      (fun q ->
        if live.(q) then q
        else begin
          let q' = live_qs.(!k mod Array.length live_qs) in
          incr k;
          q'
        end)
      t.table
  in
  { t with table }

let diff a b =
  if Array.length a.table <> Array.length b.table then
    invalid_arg "Reta.diff: table sizes differ";
  if a.queues <> b.queues then invalid_arg "Reta.diff: queue counts differ";
  let moves = ref [] in
  for i = Array.length a.table - 1 downto 0 do
    if a.table.(i) <> b.table.(i) then
      moves := (i, a.table.(i), b.table.(i)) :: !moves
  done;
  !moves

let pp fmt t =
  Format.fprintf fmt "reta[%d entries -> %d queues]" (Array.length t.table) t.queues
