(* Allocated indices form a doubly-linked list in recency order (head =
   oldest); cell [cap] is the list sentinel.  Free indices form a singly
   linked stack through [next]. *)

type t = {
  cap : int;
  next : int array; (* cap + 1 cells; for free cells: next free index or -1 *)
  prev : int array;
  last_touch : int array;
  state : bool array; (* true = allocated *)
  mutable free_head : int;
  mutable n_alloc : int;
}

let nil = -1

(* Stack every index on the free list in ascending order and empty the
   allocated list.  With [prev], [last_touch] and [state] at their
   start-up values, this is the start-up layout that [create] builds and
   [reset] restores. *)
let link_free t =
  let cap = t.cap in
  for i = 0 to cap - 2 do
    t.next.(i) <- i + 1
  done;
  t.next.(cap - 1) <- nil;
  (* sentinel: empty allocated list *)
  t.next.(cap) <- cap;
  t.prev.(cap) <- cap;
  t.free_head <- 0;
  t.n_alloc <- 0

let create ~capacity =
  if capacity < 1 then invalid_arg "Dchain.create: capacity must be >= 1";
  let t =
    {
      cap = capacity;
      next = Array.make (capacity + 1) nil;
      prev = Array.make (capacity + 1) nil;
      last_touch = Array.make capacity 0;
      state = Array.make capacity false;
      free_head = 0;
      n_alloc = 0;
    }
  in
  link_free t;
  t

let reset t =
  Array.fill t.prev 0 t.cap nil;
  Array.fill t.last_touch 0 t.cap 0;
  Array.fill t.state 0 t.cap false;
  link_free t

let copy t =
  (* exact structural duplicate: the recency list, the free stack order
     and every last-touch time are preserved, so a copy allocates the
     same indices in the same order as the original under an identical
     operation sequence — required when discipline switching seeds SCR
     replicas that must then evolve in lockstep *)
  {
    cap = t.cap;
    next = Array.copy t.next;
    prev = Array.copy t.prev;
    last_touch = Array.copy t.last_touch;
    state = Array.copy t.state;
    free_head = t.free_head;
    n_alloc = t.n_alloc;
  }

let capacity t = t.cap
let allocated t = t.n_alloc
let is_allocated t i = i >= 0 && i < t.cap && t.state.(i)

let unlink t i =
  t.next.(t.prev.(i)) <- t.next.(i);
  t.prev.(t.next.(i)) <- t.prev.(i)

let push_back t i =
  let s = t.cap in
  t.prev.(i) <- t.prev.(s);
  t.next.(i) <- s;
  t.next.(t.prev.(s)) <- i;
  t.prev.(s) <- i

let allocate t ~now =
  if t.free_head = nil then None
  else begin
    let i = t.free_head in
    t.free_head <- t.next.(i);
    t.state.(i) <- true;
    t.last_touch.(i) <- now;
    push_back t i;
    t.n_alloc <- t.n_alloc + 1;
    Some i
  end

let allocate_idx t ~now =
  (* allocation-free [allocate] for the compiled path *)
  if t.free_head = nil then -1
  else begin
    let i = t.free_head in
    t.free_head <- t.next.(i);
    t.state.(i) <- true;
    t.last_touch.(i) <- now;
    push_back t i;
    t.n_alloc <- t.n_alloc + 1;
    i
  end

let rejuvenate t i ~now =
  if not (is_allocated t i) then false
  else begin
    (* an int comparison: Stdlib's polymorphic [max] is a C call *)
    if now > t.last_touch.(i) then t.last_touch.(i) <- now;
    unlink t i;
    push_back t i;
    true
  end

let last_touch t i = if is_allocated t i then Some t.last_touch.(i) else None

let free t i =
  if not (is_allocated t i) then false
  else begin
    unlink t i;
    t.state.(i) <- false;
    t.next.(i) <- t.free_head;
    t.free_head <- i;
    t.n_alloc <- t.n_alloc - 1;
    true
  end

let iter_allocated t f =
  let j = ref t.next.(t.cap) in
  while !j <> t.cap do
    let i = !j in
    (* read the successor first so [f] may not confuse the walk by
       touching unrelated cells; freeing during iteration is still the
       caller's responsibility to avoid *)
    j := t.next.(i);
    f i t.last_touch.(i)
  done

let allocate_at t ~touched =
  if t.free_head = nil then None
  else begin
    let i = t.free_head in
    t.free_head <- t.next.(i);
    t.state.(i) <- true;
    t.last_touch.(i) <- touched;
    (* sorted insertion: place [i] after the last cell with last_touch <=
       [touched], so the recency list stays non-decreasing in last_touch
       and [expire_one]'s head scan remains correct after a migration
       hands us entries with historical timestamps.  Scan from the TAIL:
       migration streams arrive oldest-first (ascending touch), so the
       insertion point is almost always at the back and the scan is O(1)
       amortized — a head-first scan made bulk migration quadratic at
       1M flows. *)
    let j = ref t.prev.(t.cap) in
    while !j <> t.cap && t.last_touch.(!j) > touched do
      j := t.prev.(!j)
    done;
    let p = !j in
    let s = t.next.(p) in
    t.prev.(i) <- p;
    t.next.(i) <- s;
    t.next.(p) <- i;
    t.prev.(s) <- i;
    t.n_alloc <- t.n_alloc + 1;
    Some i
  end

let oldest t =
  let h = t.next.(t.cap) in
  if h = t.cap then None else Some h

let expire_one t ~threshold =
  let h = t.next.(t.cap) in
  if h = t.cap || t.last_touch.(h) >= threshold then nil
  else begin
    ignore (free t h);
    h
  end

let expire_before t ~threshold =
  let rec go acc =
    match expire_one t ~threshold with -1 -> List.rev acc | i -> go (i :: acc)
  in
  go []

let pp fmt t = Format.fprintf fmt "dchain[%d/%d]" t.n_alloc t.cap
