(* Direct tests for the Vigor stateful containers (paper Table 1). *)

open State

(* --- Map_s ---------------------------------------------------------------- *)

let test_map_basics () =
  let m = Map_s.create ~capacity:4 in
  Alcotest.(check (option int)) "miss" None (Map_s.get m "a");
  Alcotest.(check bool) "put" true (Map_s.put m "a" 1);
  Alcotest.(check (option int)) "hit" (Some 1) (Map_s.get m "a");
  Alcotest.(check bool) "overwrite" true (Map_s.put m "a" 2);
  Alcotest.(check (option int)) "new value" (Some 2) (Map_s.get m "a");
  Alcotest.(check int) "size" 1 (Map_s.size m)

let test_map_capacity () =
  let m = Map_s.create ~capacity:2 in
  Alcotest.(check bool) "1" true (Map_s.put m "a" 1);
  Alcotest.(check bool) "2" true (Map_s.put m "b" 2);
  Alcotest.(check bool) "full" false (Map_s.put m "c" 3);
  (* overwriting existing keys still works at capacity *)
  Alcotest.(check bool) "overwrite ok" true (Map_s.put m "a" 9);
  Alcotest.(check bool) "erase" true (Map_s.erase m "a");
  Alcotest.(check bool) "room again" true (Map_s.put m "c" 3)

let test_map_erase_absent () =
  let m = Map_s.create ~capacity:2 in
  Alcotest.(check bool) "absent" false (Map_s.erase m "zzz")

let test_map_binary_keys () =
  let m = Map_s.create ~capacity:8 in
  let k1 = "\x00\x01\x00" and k2 = "\x00\x00\x01" in
  ignore (Map_s.put m k1 1);
  ignore (Map_s.put m k2 2);
  Alcotest.(check (option int)) "k1" (Some 1) (Map_s.get m k1);
  Alcotest.(check (option int)) "k2" (Some 2) (Map_s.get m k2)

(* --- Key / Intmap / hybrid packed path ------------------------------------- *)

let hi = Key.hi_of_string
let lo = Key.lo_of_string
let unpack s = Key.to_string ~hi:(hi s) ~lo:(lo s)

let prop_key_roundtrip =
  QCheck.Test.make ~name:"packed keys roundtrip to their strings" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 Key.max_packed_bytes))
    (fun s -> Key.fits s && String.equal s (unpack s))

let test_key_length_tag () =
  (* same bytes, different lengths: distinct packed forms, like strings *)
  let a = "\x00\x01" and b = "\x00\x00\x01" in
  Alcotest.(check bool) "distinct" true ((hi a, lo a) <> (hi b, lo b));
  Alcotest.(check int) "len a" 2 (Key.byte_length (hi a));
  Alcotest.(check int) "len b" 3 (Key.byte_length (hi b));
  Alcotest.(check bool) "too wide rejected" true
    (try
       ignore (hi (String.make 15 'x'));
       false
     with Invalid_argument _ -> true)

(* 7 bytes is the widest key held by [lo] alone, 14 the widest packed *)
let test_key_boundaries () =
  let key n = String.init n (fun i -> Char.chr (0xf0 + i)) in
  List.iter
    (fun n ->
      let s = key n in
      Alcotest.(check bool) (Printf.sprintf "%d bytes fit" n) true (Key.fits s);
      Alcotest.(check string) (Printf.sprintf "%d bytes roundtrip" n) s (unpack s);
      Alcotest.(check int) (Printf.sprintf "%d bytes length" n) n (Key.byte_length (hi s)))
    [ 0; 1; 7; 8; 13; 14 ];
  Alcotest.(check int) "7 bytes: hi is the bare tag" (Key.tag ~bytes:7) (hi (key 7));
  Alcotest.(check int) "8 bytes: hi holds the leading byte" (Key.tag ~bytes:8 lor 0xf0)
    (hi (key 8));
  Alcotest.(check int) "14 bytes: lo holds the last 7" 0xf7f8f9fafbfcfd (lo (key 14));
  Alcotest.(check bool) "15 bytes do not fit" false (Key.fits (key 15));
  (* part bits assemble the same pair as the string: a 12-byte 4+4+2+2
     tuple straddles the halves inside its second part *)
  let parts = [ (4, 0x0a000001); (4, 0xc0a80102); (2, 0x1f90); (2, 0x0050) ] in
  let s =
    String.concat ""
      (List.map
         (fun (b, v) -> String.init b (fun i -> Char.chr ((v lsr (8 * (b - 1 - i))) land 0xff)))
         parts)
  in
  let shifts = Key.part_shifts (List.map fst parts) in
  Alcotest.(check (list int)) "shifts" [ 64; 32; 16; 0 ] shifts;
  let geo = Key.geometry (List.map fst parts) in
  let hi_p = ref (Key.tag ~bytes:12) and lo_p = ref 0 in
  List.iteri
    (fun j (_, v) ->
      let g = 5 * j in
      let v = v land geo.(g) in
      lo_p := !lo_p lor ((v lsl geo.(g + 1)) land geo.(g + 2));
      hi_p := !hi_p lor ((v lsr geo.(g + 3)) lsl geo.(g + 4)))
    parts;
  Alcotest.(check (pair int int)) "parts = string" (hi s, lo s) (!hi_p, !lo_p)

let test_intmap_basics () =
  let m = Intmap.create ~capacity:3 in
  let h = Key.tag ~bytes:12 in
  Alcotest.(check int) "miss" (-1) (Intmap.find m h 42 ~absent:(-1));
  Alcotest.(check bool) "put" true (Intmap.put m h 42 7);
  Alcotest.(check int) "hit" 7 (Intmap.find m h 42 ~absent:(-1));
  Alcotest.(check int) "other hi misses" (-1) (Intmap.find m (h + 1) 42 ~absent:(-1));
  Alcotest.(check bool) "overwrite" true (Intmap.put m h 42 8);
  Alcotest.(check int) "new value" 8 (Intmap.find m h 42 ~absent:(-1));
  Alcotest.(check int) "size" 1 (Intmap.length m);
  Alcotest.(check bool) "negative hi misses" false (Intmap.mem m (-1) (-1));
  Alcotest.(check bool) "erase" true (Intmap.erase m h 42);
  Alcotest.(check bool) "erase absent" false (Intmap.erase m h 42)

let test_intmap_capacity_and_growth () =
  let m = Intmap.create ~capacity:100 in
  (* push past the initial physical table so growth + rehash happen *)
  for i = 0 to 99 do
    Alcotest.(check bool) (Printf.sprintf "put %d" i) true (Intmap.put m (i mod 3) (i * 17) i)
  done;
  Alcotest.(check bool) "logically full" false (Intmap.put m 0 9_999_999 0);
  for i = 0 to 99 do
    Alcotest.(check int) (Printf.sprintf "get %d" i) i
      (Intmap.find m (i mod 3) (i * 17) ~absent:(-1))
  done

(* erase/insert churn exercises tombstone reuse without unbounded growth;
   keys differ in either half *)
let prop_intmap_vs_hashtbl =
  QCheck.Test.make ~name:"intmap agrees with Hashtbl under churn" ~count:50
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let m = Intmap.create ~capacity:32 in
      let h = Hashtbl.create 32 in
      let ok = ref true in
      for _ = 1 to 1000 do
        let k = (Random.State.int rng 8, Random.State.int rng 8) in
        let khi, klo = k in
        match Random.State.int rng 3 with
        | 0 ->
            let v = Random.State.int rng 1000 in
            let fits = Hashtbl.mem h k || Hashtbl.length h < 32 in
            if Intmap.put m khi klo v <> fits then ok := false
            else if fits then Hashtbl.replace h k v
        | 1 ->
            if Intmap.erase m khi klo <> Hashtbl.mem h k then ok := false;
            Hashtbl.remove h k
        | _ ->
            let expect = Option.value ~default:(-1) (Hashtbl.find_opt h k) in
            if Intmap.find m khi klo ~absent:(-1) <> expect then ok := false
      done;
      !ok && Intmap.length m = Hashtbl.length h)

let test_map_hybrid_views_agree () =
  (* entries written through the string API are visible packed and back *)
  let m = Map_s.create ~capacity:8 in
  let k = "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c" in
  Alcotest.(check bool) "string put" true (Map_s.put m k 5);
  Alcotest.(check int) "packed view" 5 (Map_s.find_packed m (hi k) (lo k) ~absent:(-1));
  Alcotest.(check bool) "packed put" true (Map_s.put_packed m (hi "\xff\xee") (lo "\xff\xee") 9);
  Alcotest.(check (option int)) "string view" (Some 9) (Map_s.get m "\xff\xee");
  Alcotest.(check int) "size counts both" 2 (Map_s.size m);
  Alcotest.(check int) "both packed" 2 (Map_s.packed_size m);
  (* iter reconstructs packed keys as strings *)
  let seen = ref [] in
  Map_s.iter m (fun key v -> seen := (key, v) :: !seen);
  Alcotest.(check bool) "iter sees string form" true
    (List.mem (k, 5) !seen && List.mem ("\xff\xee", 9) !seen);
  Alcotest.(check bool) "packed erase" true (Map_s.erase_packed m (hi k) (lo k));
  Alcotest.(check (option int)) "gone via string" None (Map_s.get m k)

let test_map_capacity_spans_views () =
  (* the logical capacity bounds packed + wide entries together *)
  let m = Map_s.create ~capacity:2 in
  let wide = String.make 15 'x' in
  Alcotest.(check bool) "wide" true (Map_s.put m wide 1);
  Alcotest.(check bool) "packed" true (Map_s.put m "ab" 2);
  Alcotest.(check int) "one packed" 1 (Map_s.packed_size m);
  Alcotest.(check bool) "full (packed)" false (Map_s.put m "cd" 3);
  Alcotest.(check bool) "full (wide)" false (Map_s.put m (String.make 16 'y') 3);
  Alcotest.(check bool) "overwrite wide ok" true (Map_s.put m wide 4);
  Alcotest.(check bool) "overwrite packed ok" true (Map_s.put m "ab" 5)

(* A map driven through its string and packed views at random, over keys
   of 0 to 20 bytes (packed and wide) and a small capacity so puts hit a
   full map, agrees with a Hashtbl model on every answer. *)
let prop_map_views_vs_model =
  QCheck.Test.make ~name:"map string and packed views agree with a Hashtbl model" ~count:100
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let capacity = 1 + Random.State.int rng 12 in
      let m = Map_s.create ~capacity in
      let model = Hashtbl.create 16 in
      (* a small key pool: repeats make overwrites, erases and hits *)
      let pool =
        Array.init 24 (fun _ ->
            String.init (Random.State.int rng 21) (fun _ -> Char.chr (Random.State.int rng 4)))
      in
      let ok = ref true in
      for _ = 1 to 400 do
        let k = pool.(Random.State.int rng (Array.length pool)) in
        let packed = Key.fits k && Random.State.bool rng in
        match Random.State.int rng 4 with
        | 0 ->
            let v = Random.State.int rng 1000 in
            let room = Hashtbl.mem model k || Hashtbl.length model < capacity in
            let r = if packed then Map_s.put_packed m (hi k) (lo k) v else Map_s.put m k v in
            if r <> room then ok := false;
            if room then Hashtbl.replace model k v
        | 1 ->
            let r = if packed then Map_s.erase_packed m (hi k) (lo k) else Map_s.erase m k in
            if r <> Hashtbl.mem model k then ok := false;
            Hashtbl.remove model k
        | 2 ->
            let r = if packed then Map_s.mem_packed m (hi k) (lo k) else Map_s.mem m k in
            if r <> Hashtbl.mem model k then ok := false
        | _ ->
            let expect = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
            let r =
              if packed then Map_s.find_packed m (hi k) (lo k) ~absent:(-1)
              else Option.value ~default:(-1) (Map_s.get m k)
            in
            if r <> expect then ok := false
      done;
      !ok
      && Map_s.size m = Hashtbl.length model
      && List.sort compare (Map_s.entries m)
         = List.sort compare (List.of_seq (Hashtbl.to_seq model)))

let test_sketch_packed_consistency () =
  let s = Sketch.create ~depth:3 ~width:64 () in
  let k = "\x01\x02" in
  Sketch.increment s k;
  Sketch.add_packed s (hi k) (lo k) 2;
  (* both APIs hit the same counters, so the estimate sums *)
  Alcotest.(check bool) "mixed count >= 3" true (Sketch.count s k >= 3);
  Alcotest.(check int) "packed = string estimate" (Sketch.count s k)
    (Sketch.count_packed s (hi k) (lo k));
  Alcotest.(check bool) "over limit agrees" true
    (Sketch.over_limit s k ~limit:2 = Sketch.over_limit_packed s (hi k) (lo k) ~limit:2)

(* every key of 14 bytes or less counts the same through either view *)
let test_sketch_views_agree () =
  let s = Sketch.create ~depth:4 ~width:128 () in
  let rng = Random.State.make [| 14 |] in
  let keys =
    List.init 200 (fun _ ->
        String.init (Random.State.int rng 15) (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  List.iteri
    (fun i k ->
      if i mod 2 = 0 then Sketch.increment s k else Sketch.increment_packed s (hi k) (lo k))
    keys;
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "%d-byte key" (String.length k))
        (Sketch.count s k)
        (Sketch.count_packed s (hi k) (lo k)))
    keys

(* No corpus NF keys a container by more than 14 bytes, so on the
   compiled path every map op of every registry NF, Fig. 2 scenario and
   shipped chain takes the packed pair and none the string fallback. *)
let test_corpus_keys_pack () =
  let fallback = Telemetry.Counter.make "state.key_string_fallback" in
  let packed = Telemetry.Counter.make "state.key_packed" in
  let run (nf : Dsl.Ast.t) trace =
    let staged = Dsl.Compile.stage_runner nf (Dsl.Check.check_exn nf) in
    let b = Dsl.Compile.bind_runner staged (Dsl.Instance.create nf) in
    Array.iter (fun p -> ignore (Dsl.Compile.run b p)) trace
  in
  let fw_trace = (Sim.Workload.read_heavy ~pkts:2_000 ~flows:200 "fw").Sim.Workload.trace in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      List.iter
        (fun name ->
          let w = Sim.Workload.read_heavy ~pkts:2_000 ~flows:200 name in
          run w.Sim.Workload.nf w.Sim.Workload.trace)
        Nfs.Registry.extended_names;
      List.iter (fun nf -> run nf fw_trace) (Nfs.Scenarios.all ());
      List.iter (fun ch -> run (Dsl.Chain.nf ch) fw_trace) (Nfs.Scenarios.chains ()));
  Alcotest.(check int) "no string-fallback op" 0 (Telemetry.Counter.value fallback);
  Alcotest.(check bool) "packed ops ran" true (Telemetry.Counter.value packed > 0)

let test_dchain_allocate_idx () =
  let c = Dchain.create ~capacity:1 in
  let i = Dchain.allocate_idx c ~now:1 in
  Alcotest.(check bool) "allocated" true (i >= 0 && Dchain.is_allocated c i);
  Alcotest.(check int) "exhausted" (-1) (Dchain.allocate_idx c ~now:2)

let test_dchain_expire_one () =
  let c = Dchain.create ~capacity:3 in
  let a = Dchain.allocate_idx c ~now:10 in
  let b = Dchain.allocate_idx c ~now:20 in
  ignore (Dchain.allocate_idx c ~now:30);
  Alcotest.(check int) "oldest due" a (Dchain.expire_one c ~threshold:25);
  Alcotest.(check int) "next due" b (Dchain.expire_one c ~threshold:25);
  Alcotest.(check int) "none due" (-1) (Dchain.expire_one c ~threshold:25);
  Alcotest.(check int) "one left" 1 (Dchain.allocated c)

(* --- Dchain --------------------------------------------------------------- *)

let test_dchain_allocate_all () =
  let c = Dchain.create ~capacity:3 in
  let a = Dchain.allocate c ~now:1 and b = Dchain.allocate c ~now:2 in
  let d = Dchain.allocate c ~now:3 in
  Alcotest.(check bool) "three distinct" true
    (match (a, b, d) with
    | Some x, Some y, Some z -> x <> y && y <> z && x <> z
    | _ -> false);
  Alcotest.(check (option int)) "exhausted" None (Dchain.allocate c ~now:4);
  Alcotest.(check int) "allocated" 3 (Dchain.allocated c)

let test_dchain_expiry_order () =
  let c = Dchain.create ~capacity:4 in
  let i1 = Option.get (Dchain.allocate c ~now:10) in
  let i2 = Option.get (Dchain.allocate c ~now:20) in
  let i3 = Option.get (Dchain.allocate c ~now:30) in
  Alcotest.(check (option int)) "oldest" (Some i1) (Dchain.oldest c);
  (* rejuvenating the oldest moves it behind *)
  Alcotest.(check bool) "rejuvenate" true (Dchain.rejuvenate c i1 ~now:40);
  Alcotest.(check (option int)) "new oldest" (Some i2) (Dchain.oldest c);
  (* expiry frees strictly-older entries, oldest first *)
  Alcotest.(check (list int)) "expired" [ i2; i3 ] (Dchain.expire_before c ~threshold:35);
  Alcotest.(check int) "one left" 1 (Dchain.allocated c);
  Alcotest.(check bool) "i1 still allocated" true (Dchain.is_allocated c i1)

let test_dchain_free_and_reuse () =
  let c = Dchain.create ~capacity:2 in
  let i = Option.get (Dchain.allocate c ~now:1) in
  Alcotest.(check bool) "free" true (Dchain.free c i);
  Alcotest.(check bool) "double free" false (Dchain.free c i);
  Alcotest.(check bool) "reusable" true (Dchain.allocate c ~now:2 <> None)

let test_dchain_last_touch () =
  let c = Dchain.create ~capacity:2 in
  let i = Option.get (Dchain.allocate c ~now:5) in
  Alcotest.(check (option int)) "touch" (Some 5) (Dchain.last_touch c i);
  ignore (Dchain.rejuvenate c i ~now:9);
  Alcotest.(check (option int)) "rejuvenated" (Some 9) (Dchain.last_touch c i);
  Alcotest.(check (option int)) "absent" None (Dchain.last_touch c 1)

(* --- Sketch --------------------------------------------------------------- *)

let test_sketch_counts () =
  let s = Sketch.create ~depth:3 ~width:64 () in
  Alcotest.(check int) "empty" 0 (Sketch.count s "k");
  Sketch.increment s "k";
  Sketch.increment s "k";
  Alcotest.(check bool) "at least 2" true (Sketch.count s "k" >= 2);
  Sketch.clear s;
  Alcotest.(check int) "cleared" 0 (Sketch.count s "k")

let test_sketch_over_limit () =
  let s = Sketch.create () in
  Sketch.add s "pair" 65;
  Alcotest.(check bool) "over" true (Sketch.over_limit s "pair" ~limit:64);
  Alcotest.(check bool) "not over" false (Sketch.over_limit s "pair" ~limit:65)

(* count-min never under-estimates *)
let prop_sketch_overestimates =
  QCheck.Test.make ~name:"count-min never under-estimates" ~count:50
    QCheck.(pair (int_range 1 200) (int_range 1 500))
    (fun (keys, adds) ->
      let rng = Random.State.make [| keys; adds |] in
      let s = Sketch.create ~depth:4 ~width:128 () in
      let truth = Hashtbl.create 64 in
      for _ = 1 to adds do
        let k = string_of_int (Random.State.int rng keys) in
        Sketch.increment s k;
        Hashtbl.replace truth k (1 + Option.value ~default:0 (Hashtbl.find_opt truth k))
      done;
      Hashtbl.fold (fun k v acc -> acc && Sketch.count s k >= v) truth true)

(* dchain invariant: allocated + free = capacity under random ops *)
let prop_dchain_conservation =
  QCheck.Test.make ~name:"dchain conserves its index pool" ~count:50
    QCheck.(int_range 1 2000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let cap = 1 + Random.State.int rng 32 in
      let c = Dchain.create ~capacity:cap in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      for step = 1 to 200 do
        match Random.State.int rng 4 with
        | 0 -> (
            match Dchain.allocate c ~now:step with
            | Some i ->
                if Hashtbl.mem live i then ok := false;
                Hashtbl.replace live i ()
            | None -> if Hashtbl.length live <> cap then ok := false)
        | 1 ->
            if Hashtbl.length live > 0 then begin
              let i = List.hd (List.of_seq (Hashtbl.to_seq_keys live)) in
              ignore (Dchain.free c i);
              Hashtbl.remove live i
            end
        | 2 ->
            if Hashtbl.length live > 0 then begin
              let i = List.hd (List.of_seq (Hashtbl.to_seq_keys live)) in
              ignore (Dchain.rejuvenate c i ~now:step)
            end
        | _ ->
            let freed = Dchain.expire_before c ~threshold:(step - 50) in
            List.iter (Hashtbl.remove live) freed
      done;
      !ok && Dchain.allocated c = Hashtbl.length live)

(* --- capacity-boundary behaviour (stress-harness regressions) ------------- *)

let next_pow2 n =
  let p = ref 1 in
  while !p < n do
    p := !p * 2
  done;
  !p

(* a rotating erase/insert window must be absorbed by same-size rebuilds:
   before the tombstone fix the table doubled on every load breach and
   grew without bound *)
let test_intmap_tombstone_bounded () =
  let window = 32 in
  let m = Intmap.create ~capacity:(window + 1) in
  let h = Key.tag ~bytes:12 in
  for i = 0 to window - 1 do
    Alcotest.(check bool) "seed" true (Intmap.put m h i i)
  done;
  for i = 0 to 9_999 do
    Alcotest.(check bool) "erase" true (Intmap.erase m h i);
    Alcotest.(check bool) "insert" true (Intmap.put m h (i + window) i)
  done;
  Alcotest.(check int) "window intact" window (Intmap.length m);
  Alcotest.(check bool)
    (Printf.sprintf "table bounded (%d slots)" (Intmap.table_slots m))
    true
    (Intmap.table_slots m <= next_pow2 (4 * (window + 2)));
  let max_probe, _ = Intmap.probe_stats m in
  Alcotest.(check bool) "probes short" true (max_probe <= 64);
  for i = 10_000 to 10_000 + window - 1 do
    Alcotest.(check int) (Printf.sprintf "resident %d" i) (i - window)
      (Intmap.find m h i ~absent:(-1))
  done

let prop_intmap_table_bound =
  QCheck.Test.make ~name:"intmap table stays within the rebuild law" ~count:100
    QCheck.(pair (int_range 1 200) (int_range 1 100_000))
    (fun (capacity, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = Intmap.create ~capacity in
      let bound = max 16 (next_pow2 (4 * (capacity + 1))) in
      let ok = ref true in
      for _ = 1 to 2_000 do
        let k = Random.State.int rng 400 in
        (match Random.State.int rng 2 with
        | 0 -> ignore (Intmap.put m (k land 3) k k)
        | _ -> ignore (Intmap.erase m (k land 3) k));
        if Intmap.table_slots m > bound then ok := false
      done;
      !ok)

(* allocate_at at the capacity boundary: full chain refuses, freeing one
   slot re-admits, and out-of-order touches land in recency order *)
let test_dchain_allocate_at_boundaries () =
  let c = Dchain.create ~capacity:8 in
  let touches = [ 5; 1; 9; 3; 9; 2; 9; 0 ] in
  List.iter
    (fun touched ->
      match Dchain.allocate_at c ~touched with
      | Some _ -> ()
      | None -> Alcotest.fail "allocate_at refused below capacity")
    touches;
  Alcotest.(check int) "full" 8 (Dchain.allocated c);
  Alcotest.(check (option int)) "over capacity" None (Dchain.allocate_at c ~touched:7);
  let order = ref [] in
  Dchain.iter_allocated c (fun _ touch -> order := touch :: !order);
  Alcotest.(check (list int)) "recency order"
    (List.sort compare touches) (List.rev !order);
  (match Dchain.oldest c with
  | Some i -> Alcotest.(check bool) "free oldest" true (Dchain.free c i)
  | None -> Alcotest.fail "full chain has an oldest");
  Alcotest.(check bool) "re-admitted" true (Dchain.allocate_at c ~touched:4 <> None)

let test_dchain_expire_full_chain () =
  let n = 1_000 in
  let c = Dchain.create ~capacity:n in
  for i = 0 to n - 1 do
    ignore (Dchain.allocate_at c ~touched:i)
  done;
  let swept = Dchain.expire_before c ~threshold:n in
  Alcotest.(check int) "everything expired" n (List.length swept);
  Alcotest.(check int) "chain drained" 0 (Dchain.allocated c);
  (* the index pool survives a full sweep *)
  for i = 0 to n - 1 do
    if Dchain.allocate_at c ~touched:i = None then Alcotest.fail "refill refused"
  done;
  Alcotest.(check int) "refilled" n (Dchain.allocated c)

let prop_dchain_allocate_at_sorted =
  QCheck.Test.make ~name:"allocate_at keeps the chain sorted by touch" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 64) (int_range 0 50))
    (fun touches ->
      let c = Dchain.create ~capacity:(List.length touches) in
      List.iter (fun touched -> ignore (Dchain.allocate_at c ~touched)) touches;
      let order = ref [] in
      Dchain.iter_allocated c (fun _ touch -> order := touch :: !order);
      let order = List.rev !order in
      order = List.sort compare touches)

let suite =
  [
    Alcotest.test_case "map basics" `Quick test_map_basics;
    Alcotest.test_case "map capacity" `Quick test_map_capacity;
    Alcotest.test_case "map erase absent" `Quick test_map_erase_absent;
    Alcotest.test_case "map binary keys" `Quick test_map_binary_keys;
    Alcotest.test_case "key length tag" `Quick test_key_length_tag;
    Alcotest.test_case "key pack boundaries (7/8, 14/15 bytes)" `Quick test_key_boundaries;
    Alcotest.test_case "intmap basics" `Quick test_intmap_basics;
    Alcotest.test_case "intmap capacity and growth" `Quick test_intmap_capacity_and_growth;
    Alcotest.test_case "map hybrid views agree" `Quick test_map_hybrid_views_agree;
    Alcotest.test_case "map capacity spans views" `Quick test_map_capacity_spans_views;
    Alcotest.test_case "sketch packed consistency" `Quick test_sketch_packed_consistency;
    Alcotest.test_case "sketch string and packed counts agree" `Quick test_sketch_views_agree;
    QCheck_alcotest.to_alcotest prop_map_views_vs_model;
    Alcotest.test_case "corpus keys all take the packed path" `Quick test_corpus_keys_pack;
    Alcotest.test_case "dchain allocate_idx" `Quick test_dchain_allocate_idx;
    Alcotest.test_case "dchain expire_one" `Quick test_dchain_expire_one;
    QCheck_alcotest.to_alcotest prop_key_roundtrip;
    QCheck_alcotest.to_alcotest prop_intmap_vs_hashtbl;
    Alcotest.test_case "dchain allocate all" `Quick test_dchain_allocate_all;
    Alcotest.test_case "dchain expiry order" `Quick test_dchain_expiry_order;
    Alcotest.test_case "dchain free/reuse" `Quick test_dchain_free_and_reuse;
    Alcotest.test_case "dchain last touch" `Quick test_dchain_last_touch;
    Alcotest.test_case "sketch counts" `Quick test_sketch_counts;
    Alcotest.test_case "sketch over limit" `Quick test_sketch_over_limit;
    QCheck_alcotest.to_alcotest prop_sketch_overestimates;
    QCheck_alcotest.to_alcotest prop_dchain_conservation;
    Alcotest.test_case "intmap tombstone churn bounded" `Quick test_intmap_tombstone_bounded;
    Alcotest.test_case "dchain allocate_at boundaries" `Quick test_dchain_allocate_at_boundaries;
    Alcotest.test_case "dchain expire full chain" `Quick test_dchain_expire_full_chain;
    QCheck_alcotest.to_alcotest prop_intmap_table_bound;
    QCheck_alcotest.to_alcotest prop_dchain_allocate_at_sorted;
  ]
