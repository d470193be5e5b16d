(* The differential harness: every way a plan runs agrees with the
   sequential NF.

   One qcheck property per cell of the grid of executors: the pool
   ([Pool.run]) on every plan rung under every barrier policy (static,
   [--rebalance], [--adaptive]; adaptive rejects load-balance plans) and
   every fault (none, a crash the supervisor restarts, a write-off of one
   core, a write-off of every plan core); the deterministic model
   ([Parallel.run]) on every rung; and the cluster tier ([Cluster.Tier.run])
   under a machine join, leave and failure.  Within a cell the target (an
   NF, a Fig. 2 scenario or a shipped chain), the trace family, the seed,
   the packet count, the pool shape and the sequence of runs on one pool
   are random.  Each run is checked against [Parallel.run_sequential] and
   against the pool's own records; a failure shrinks to the one-line case
   qcheck prints, and [QCHECK_SEED] replays a whole suite run.  Other
   suites pin named regressions by running one cell's checks
   ([check_run], [check_model_run]) on a fixed plan and trace. *)

(* --- targets and plans ------------------------------------------------------ *)

let targets =
  List.map (fun n -> (n, lazy (Nfs.Registry.find_exn n))) Nfs.Registry.extended_names
  @ List.map (fun (nf : Dsl.Ast.t) -> (nf.Dsl.Ast.name, Lazy.from_val nf)) (Nfs.Scenarios.all ())
  @ List.map (fun c -> (c.Dsl.Chain.name, lazy (Dsl.Chain.nf c))) (Nfs.Scenarios.chains ())

let nf_of name = Lazy.force (List.assoc name targets)

(* NAT allocates its external ports per core: a sharded NAT forwards and
   drops like the sequential one and restores the client's headers on the
   way back, but may pick other ports *)
let nat_targets = [ "nat"; "chain_fw_nat"; "chain_policer_fw_nat" ]

(* shared-nothing, load-balance, SCR, lock and TM *)
type rung = Sn | Lb | Scr | Lock | Tm

let rung_of (plan : Maestro.Plan.t) =
  match plan.Maestro.Plan.strategy with
  | Maestro.Plan.Shared_nothing -> Sn
  | Maestro.Plan.Load_balance -> Lb
  | Maestro.Plan.Scr -> Scr
  | Maestro.Plan.Lock_based -> Lock
  | Maestro.Plan.Tm_based -> Tm

let rung_name = function Sn -> "sn" | Lb -> "lb" | Scr -> "scr" | Lock -> "lock" | Tm -> "tm"

let request_of = function
  | Sn | Lb -> `Auto
  | Scr -> `Force_scr
  | Lock -> `Force_locks
  | Tm -> `Force_tm

let strategy_of = function
  | Sn -> Maestro.Plan.Shared_nothing
  | Lb -> Maestro.Plan.Load_balance
  | Scr -> Maestro.Plan.Scr
  | Lock -> Maestro.Plan.Lock_based
  | Tm -> Maestro.Plan.Tm_based

(* SCR needs two cores: a one-core plan asked for it lands on the lock rung *)
let min_cores = function Scr -> 2 | Sn | Lb | Lock | Tm -> 1

(* One plan per (target, rung, cores), shared by every cell: a pool
   reuses its binding exactly when it runs the same plan value again. *)
let plans = Hashtbl.create 64

let plan_of name rung cores =
  match Hashtbl.find_opt plans (name, rung, cores) with
  | Some p -> p
  | None ->
      let request = { Maestro.Pipeline.default_request with cores; strategy = request_of rung } in
      let p = (Maestro.Pipeline.parallelize_exn ~request (nf_of name)).Maestro.Pipeline.plan in
      Hashtbl.add plans (name, rung, cores) p;
      p

(* the targets whose plan lands on [rung] *)
let eligible =
  let memo = Hashtbl.create 8 in
  fun rung ->
    match Hashtbl.find_opt memo rung with
    | Some l -> l
    | None ->
        let l =
          List.filter_map
            (fun (name, _) ->
              let p = plan_of name rung 2 in
              if p.Maestro.Plan.strategy = strategy_of rung then Some name else None)
            targets
          |> Array.of_list
        in
        Hashtbl.add memo rung l;
        l

(* --- traces --------------------------------------------------------------------- *)

(* Every family's timestamps are monotone: expiry decided on a timestamp
   that goes backwards differs between shards even in the model. *)
type family = Uniform | Zipf | Churn | Lan_to_wan | Hostile | Attack

let families = [ Uniform; Zipf; Churn; Lan_to_wan; Hostile; Attack ]

let family_name = function
  | Uniform -> "uniform"
  | Zipf -> "zipf"
  | Churn -> "churn"
  | Lan_to_wan -> "lan-to-wan"
  | Hostile -> "hostile"
  | Attack -> "attack"

(* A tiny address space forces key collisions, full tables and expiry
   storms in both directions; timestamps jump but never go back. *)
let hostile st pkts =
  let ts = ref 0 in
  Array.init pkts (fun _ ->
      ts := !ts + Random.State.int st 5_000_000;
      Packet.Pkt.make ~port:(Random.State.int st 2) ~ip_src:(Random.State.int st 8)
        ~ip_dst:(Random.State.int st 8) ~src_port:(Random.State.int st 4)
        ~dst_port:(Random.State.int st 4) ~ts_ns:!ts ())

(* Flows whose hashes all collide under the plan's own port-0 key, so
   they pile onto one bucket; [None] for a key no input hashes to.  The
   packets carry the tunnel view the key may read. *)
let attack st (plan : Maestro.Plan.t) pkts =
  let rss = plan.Maestro.Plan.rss.(0) in
  match
    Rs3.Attack.colliding_packets ~key:rss.Maestro.Plan.key ~field_set:rss.Maestro.Plan.field_set
      ~target_hash:(Random.State.bits st) ~rng:st ~n:(8 + Random.State.int st 56)
  with
  | exception Invalid_argument _ -> None
  | colliding ->
      let colliding = Array.of_list colliding in
      Some
        (Array.init pkts (fun i ->
             { (colliding.(Random.State.int st (Array.length colliding))) with
               Packet.Pkt.ts_ns = i * 1_000 }))

let trace_of name plan family ~seed ~pkts =
  let st = Random.State.make [| seed |] in
  let flows () = Traffic.Gen.flows st (16 + Random.State.int st 240) in
  let spec = { Traffic.Gen.default_spec with pkts } in
  match if family = Attack then attack st plan pkts else None with
  | Some trace -> trace
  | None -> (
      let trace =
        match family with
        | Uniform -> Traffic.Gen.uniform ~spec st ~flows:(flows ())
        | Lan_to_wan ->
            Traffic.Gen.uniform ~spec:{ spec with reply_fraction = 0.0 } st ~flows:(flows ())
        | Zipf ->
            let flows = flows () in
            let z = Traffic.Zipf.make ~exponent:1.2 ~nflows:(List.length flows) () in
            Traffic.Zipf.trace ~spec:{ spec with reply_fraction = 0.3 } st z ~flows
        | Churn ->
            Traffic.Churn.trace st
              {
                Traffic.Churn.active_flows = 16 + Random.State.int st 240;
                flows_per_gbit = 0.4 /. (64.0 *. 8.0 /. 1e9);
                pkts;
                size = 64;
                gap_ns = 1_000 + Random.State.int st 2_000_000;
              }
        | Hostile | Attack -> hostile st pkts
      in
      match name with
      | "vxlan_fw" -> Traffic.Gen.encapsulate Packet.Pkt.Vxlan trace
      | "gre_peer" -> Traffic.Gen.encapsulate Packet.Pkt.Gre trace
      | _ -> trace)

(* --- verdict relations ---------------------------------------------------------- *)

let nat_like a b =
  match (a, b) with
  | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
  | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) ->
      pa = pb
      && (pa <> Nfs.Topo.lan
         || (oa.Packet.Pkt.ip_dst = ob.Packet.Pkt.ip_dst
            && oa.Packet.Pkt.dst_port = ob.Packet.Pkt.dst_port))
  | _ -> false

let fail fmt = QCheck2.Test.fail_reportf fmt

let first_mismatch rel a b =
  if Array.length a <> Array.length b then Some (-1)
  else
    let rec go i =
      if i = Array.length a then None else if rel a.(i) b.(i) then go (i + 1) else Some i
    in
    go 0

let expect what rel oracle got =
  match first_mismatch rel oracle got with
  | None -> ()
  | Some i -> fail "%s: verdict %d differs from the oracle" what i

(* How a run's verdicts relate to the sequential NF's.  Sharded NAT
   agrees behaviourally.  Cores that take one lock in turns write in the
   order they win it, not in arrival order, so on two or more cores the
   lock rung agrees only on [order_free] traffic, whose verdicts no write
   can change (LAN-to-WAN-only traces, or a target that never writes), on
   targets without a NAT. *)
let relation name (plan : Maestro.Plan.t) ~order_free ~lock_exposed =
  let nat = List.mem name nat_targets in
  if lock_exposed && (nat || not order_free) then None
  else if
    nat
    && (plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing
       || plan.Maestro.Plan.strategy = Maestro.Plan.Load_balance)
  then Some nat_like
  else Some ( = )

(* the families whose verdicts no write can change *)
let order_free = function
  | Lan_to_wan | Churn -> true
  | Uniform | Zipf | Hostile | Attack -> false

(* --- pool runs --------------------------------------------------------------------- *)

type policy = Static | Rebalance | Adaptive
type fault = No_fault | Crash | Write_off_one | Write_off_all

let policy_name = function Static -> "static" | Rebalance -> "rebalance" | Adaptive -> "adaptive"

let fault_name = function
  | No_fault -> "none"
  | Crash -> "crash"
  | Write_off_one -> "write-off-one"
  | Write_off_all -> "write-off-all"

(* a pool and the parameters of its barriers *)
type shape = { cores : int; batch : int; ring : int; epoch : int; threshold : float }

let shape ?(batch = Runtime.Pool.default_batch_size) ?(ring = 1024) ?(epoch = 1024)
    ?(threshold = 1.1) cores =
  { cores; batch; ring; epoch; threshold }

type run_spec = { target : int; family : family; seed : int; pkts : int }

type case = {
  shape : shape;
  victim : int;  (* the crashing core, modulo [cores] *)
  at : int list;  (* per core: the batch its crash fires at *)
  runs : run_spec list;
}

let fault_spec fault c =
  let crash core = Printf.sprintf "crash@%d:%d" core (List.nth c.at core) in
  match fault with
  | No_fault -> None
  | Crash | Write_off_one -> Some (crash (c.victim mod c.shape.cores))
  | Write_off_all -> Some (String.concat ";" (List.init c.shape.cores crash))

let print_case names fault c =
  let s = c.shape in
  Printf.sprintf "cores=%d batch=%d ring=%d epoch=%d threshold=%g fault=%s runs=[%s]" s.cores
    s.batch s.ring s.epoch s.threshold
    (Option.value ~default:"none" (fault_spec fault c))
    (String.concat "; "
       (List.map
          (fun r ->
            Printf.sprintf "%s %s seed=%d pkts=%d" names.(r.target) (family_name r.family)
              r.seed r.pkts)
          c.runs))

let gen_run ntargets =
  QCheck2.Gen.(
    map
      (fun (target, family, seed, pkts) -> { target; family; seed; pkts })
      (quad (int_range 0 (ntargets - 1)) (oneofl families) (int_range 0 9999) (int_range 0 2048)))

let gen_case ~min_cores ~ntargets =
  QCheck2.Gen.(
    map
      (fun ((cores, batch, ring, epoch), (threshold, victim, at), runs) ->
        { shape = { cores; batch; ring; epoch; threshold }; victim; at; runs })
      (triple
         (quad (int_range min_cores 4) (oneofl [ 32; 7; 1 ]) (oneofl [ 1024; 1 ])
            (oneofl [ 256; 64; 1000 ]))
         (triple (oneofl [ 0.0; 1.1 ]) (int_range 0 3) (list_repeat 4 (int_range 0 3)))
         (list_size (int_range 1 3) (gen_run ntargets))))

(* What one run adds to its pool's stats, as a fresh pool would show it:
   lifetime counters as deltas, the run's own dispatch record and, for an
   adaptive run, its schedule (other runs leave the last one in place).
   Ring-full stalls depend on timing; a run whose verdicts depend on lock
   interleavings may also migrate other entries. *)
let run_record ~state ~adaptive (s0 : Runtime.Pool.stats) (s1 : Runtime.Pool.stats) =
  let open Runtime.Pool in
  ( [
      s1.runs - s0.runs;
      s1.batches - s0.batches;
      s1.pkts - s0.pkts;
      s1.dropped_pkts - s0.dropped_pkts;
      s1.restarts - s0.restarts;
      s1.inline_batches - s0.inline_batches;
      s1.rebalances - s0.rebalances;
      s1.forced_rebalances - s0.forced_rebalances;
      s1.migrated_buckets - s0.migrated_buckets;
      (if state then s1.migrated_flows - s0.migrated_flows else 0);
      (if state then s1.migration_drops - s0.migration_drops else 0);
      s1.scr_replays - s0.scr_replays;
      s1.scr_rebuilds - s0.scr_rebuilds;
      s1.scr_digest_bytes - s0.scr_digest_bytes;
      s1.switches - s0.switches;
      s1.flap_suppressed - s0.flap_suppressed;
    ],
    (s1.last_per_core_pkts, s1.last_assignment, s1.last_rebalance_points),
    if adaptive then Some (s1.switch_epochs, s1.rung_residency) else None )

(* a write-off is a crash the supervisor may not restart *)
let supervisor = function
  | Write_off_one | Write_off_all ->
      Some { Runtime.Supervisor.default_config with max_restarts = 0 }
  | No_fault | Crash -> None

let with_pool ?(fault = No_fault) s f =
  let pool =
    Runtime.Pool.create ~batch_size:s.batch ~ring_capacity:s.ring ?supervisor:(supervisor fault)
      ~cores:s.cores ()
  in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) (fun () -> f pool)

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
  | _ -> true

(* The RSS bucket packet [i] of [trace] hashes to under [plan] (-1 when no
   field set matches): the unit the pool's table moves, and the key of
   the ordering check, since the two directions of a flow may hash over
   different fields. *)
let bucket_of (plan : Maestro.Plan.t) trace =
  let engines =
    Array.init (Array.length plan.Maestro.Plan.rss) (Maestro.Plan.rss_engine plan)
  in
  fun i ->
    let p = trace.(i) in
    let e = engines.(p.Packet.Pkt.port) in
    let h = Nic.Rss.hash e p in
    if h < 0 then -1 else h land (Nic.Reta.size (Nic.Rss.reta e) - 1)

(* One run of [plan], the plan of target [name], over [trace] on [pool]
   (of shape [s], under [fault]), checked against the sequential NF, a
   fresh pool and the pool's own records; the pool's stats after it. *)
let check_run ?(policy = Static) ?(fault = No_fault) ?(order_free = false) s pool name
    (plan : Maestro.Plan.t) trace =
  let rung = rung_of plan in
  let pool_policy =
    match policy with
    | Static -> Runtime.Pool.Static
    | Rebalance ->
        Runtime.Pool.Rebalance { Runtime.Balancer.epoch_pkts = s.epoch; threshold = s.threshold }
    | Adaptive ->
        Runtime.Pool.Adaptive
          { Runtime.Adaptive.epoch_pkts = s.epoch; up = 2.0; down = 1.3; cooldown = 1 }
  in
  let npkts = Array.length trace in
  let s0 = Runtime.Pool.stats pool in
  let failed0 = s0.Runtime.Pool.failed_cores in
  let run pool = Runtime.Pool.run ~policy:pool_policy pool plan trace in
  if List.length failed0 = s.cores then begin
    match run pool with
    | _ -> fail "%s: a run on a pool whose every plan core failed returned" name
    | exception Invalid_argument msg
      when msg = "Pool.run: every core of the plan has failed permanently" ->
        s0
  end
  else begin
    let v = run pool in
    let s1 = Runtime.Pool.stats pool in
    let lock = Maestro.Ladder.Lock_based in
    let lock_exposed =
      plan.Maestro.Plan.cores >= 2
      &&
      match policy with
      | Adaptive ->
          fst (List.hd s1.Runtime.Pool.rung_residency) = lock
          || List.exists (fun (_, r) -> r = lock) s1.Runtime.Pool.switch_epochs
      | Static | Rebalance -> rung = Lock || rung = Tm
    in
    (* a write-off forces a rebalance, which strands the state a
       partial migration cannot carry *)
    let stranded =
      s1.Runtime.Pool.failed_cores <> failed0
      && policy = Rebalance && rung = Sn
      && not (Runtime.Balancer.exact (Runtime.Balancer.migration_plan plan.Maestro.Plan.nf))
    in
    let rel = if stranded then None else relation name plan ~order_free ~lock_exposed in
    Option.iter
      (fun rel -> expect name rel (Runtime.Parallel.run_sequential plan.Maestro.Plan.nf trace) v)
      rel;
    (* sharded NAT is exact against the model that shards it the same
       way, while the table stays the plan's own *)
    if List.mem name nat_targets && rung = Sn && policy <> Adaptive
       && s1.Runtime.Pool.failed_cores = []
    then
      expect (name ^ " against Parallel.run") ( = )
        (Runtime.Parallel.run plan trace).Runtime.Parallel.verdicts v;
    (* the dispatch record *)
    if Array.fold_left ( + ) 0 s1.Runtime.Pool.last_per_core_pkts <> npkts then
      fail "%s: per-core packets do not sum to the trace" name;
    let points = s1.Runtime.Pool.last_rebalance_points in
    if not (strictly_ascending points && List.for_all (fun p -> p > 0 && p < npkts) points)
    then fail "%s: rebalance points not ascending inside the trace" name;
    let exempt =
      match policy with
      | Adaptive ->
          let initial = fst (List.hd s1.Runtime.Pool.rung_residency) in
          fun i ->
            Runtime.Adaptive.rung_of_epoch ~initial s1.Runtime.Pool.switch_epochs
              (1 + (i / s.epoch))
            = Maestro.Ladder.Scr
      | Static | Rebalance -> fun _ -> rung = Scr
    in
    let viol =
      Runtime.Balancer.ordering_violations ~exempt ~key:(bucket_of plan trace) ~points
        s1.Runtime.Pool.last_assignment
    in
    if viol > 0 then
      fail "%s: %d packets of a bucket left its core between two points" name viol;
    List.iter
      (fun core ->
        if core < Array.length s1.Runtime.Pool.last_per_core_pkts
           && s1.Runtime.Pool.last_per_core_pkts.(core) > 0
        then fail "%s: failed core %d was dispatched packets" name core)
      failed0;
    (* streamed batches are each core's packets cut into batch-size pieces *)
    if fault = No_fault && policy = Static && rung <> Scr then begin
      let cuts =
        Array.fold_left
          (fun n k -> n + ((k + s.batch - 1) / s.batch))
          0 s1.Runtime.Pool.last_per_core_pkts
      in
      let batches = s1.Runtime.Pool.batches - s0.Runtime.Pool.batches in
      if batches <> cuts then fail "%s: %d batches for %d per-core batch cuts" name batches cuts
    end;
    (* a pool that ran other traces before returns what a fresh one
       does; a crash is spent once it restarted a worker *)
    if
      s0.Runtime.Pool.runs > 0 && failed0 = []
      && s1.Runtime.Pool.failed_cores = []
      && (fault = No_fault || s0.Runtime.Pool.restarts > 0)
    then begin
      let record = run_record ~state:(rel <> None) ~adaptive:(policy = Adaptive) in
      let fresh_v, fresh =
        with_pool ~fault s (fun fresh ->
            let f0 = Runtime.Pool.stats fresh in
            let fv = run fresh in
            (fv, record f0 (Runtime.Pool.stats fresh)))
      in
      if rel <> None && fresh_v <> v then fail "%s: verdicts differ from a fresh pool's" name;
      if record s0 s1 <> fresh then fail "%s: stats differ from a fresh pool's" name
    end;
    s1
  end

let check_pool_cell rung policy fault =
  let names = eligible rung in
  let run_one c pool r =
    let name = names.(r.target) in
    let plan = plan_of name rung c.shape.cores in
    let trace = trace_of name plan r.family ~seed:r.seed ~pkts:r.pkts in
    ignore
      (check_run ~policy ~fault ~order_free:(order_free r.family) c.shape pool name plan trace
        : Runtime.Pool.stats)
  in
  let name =
    Printf.sprintf "pool %s %s %s" (rung_name rung) (policy_name policy) (fault_name fault)
  in
  QCheck2.Test.make ~name ~count:1 ~print:(print_case names fault)
    (gen_case ~min_cores:(min_cores rung) ~ntargets:(Array.length names))
    (fun c ->
      (match fault_spec fault c with
      | None -> ()
      | Some spec -> Faults.install (Result.get_ok (Faults.parse spec)));
      Fun.protect ~finally:Faults.clear (fun () ->
          with_pool ~fault c.shape (fun pool -> List.iter (run_one c pool) c.runs));
      true)

let pool_cells =
  List.concat_map
    (fun rung ->
      List.concat_map
        (fun policy ->
          if rung = Lb && policy = Adaptive then []
          else
            List.map
              (fun fault -> check_pool_cell rung policy fault)
              [ No_fault; Crash; Write_off_one; Write_off_all ])
        [ Static; Rebalance; Adaptive ])
    [ Sn; Lb; Scr; Lock; Tm ]

(* --- the model --------------------------------------------------------------------- *)

(* [Parallel.run] serialises every rung in arrival order: exact, but for
   sharded NAT; TM records one read/write set per packet, and SCR's spray
   balances the cores to within a packet.  One model run of [plan], the
   plan of target [name], over [trace], checked; the model's result. *)
let check_model_run name (plan : Maestro.Plan.t) trace =
  let rung = rung_of plan in
  let m = Runtime.Parallel.run plan trace in
  let s = m.Runtime.Parallel.stats in
  Option.iter
    (fun rel ->
      expect name rel
        (Runtime.Parallel.run_sequential plan.Maestro.Plan.nf trace)
        m.Runtime.Parallel.verdicts)
    (relation name plan ~order_free:false ~lock_exposed:false);
  let per_core = s.Runtime.Parallel.per_core_pkts in
  if Array.fold_left ( + ) 0 per_core <> Array.length trace then
    fail "%s: per-core packets do not sum to the trace" name;
  if rung = Tm && List.length s.Runtime.Parallel.tm_rw_sets <> Array.length trace then
    fail "%s: not one read/write set per packet" name;
  if rung = Scr && Array.fold_left max 0 per_core - Array.fold_left min max_int per_core > 1
  then fail "%s: the spray is uneven" name;
  m

let check_model_cell rung =
  let names = eligible rung in
  let name = Printf.sprintf "model %s" (rung_name rung) in
  QCheck2.Test.make ~name ~count:2
    ~print:(fun (cores, r) ->
      Printf.sprintf "cores=%d %s %s seed=%d pkts=%d" cores names.(r.target)
        (family_name r.family) r.seed r.pkts)
    QCheck2.Gen.(pair (int_range (min_cores rung) 4) (gen_run (Array.length names)))
    (fun (cores, r) ->
      let name = names.(r.target) in
      let plan = plan_of name rung cores in
      let trace = trace_of name plan r.family ~seed:r.seed ~pkts:r.pkts in
      ignore (check_model_run name plan trace : Runtime.Parallel.result);
      true)

(* --- the cluster tier -------------------------------------------------------------- *)

type event = Join | Leave | Fail

(* fw on a tier of [machines] machines meets one churn event at epoch 1:
   no flow is lost, evicted, split or sent to a dead machine, every
   packet matches, the fleet ends as the event left it, and the event
   moved or rebuilt flow state.  The tier counts a split per normalized
   5-tuple, which only fw's keys tie: policer, psd and the scenarios
   shard a flow's two directions over different fields, and a VXLAN
   flow's outer tuple is shared by the inner flows of its tunnel. *)
let check_tier_cell event =
  let event_name = match event with Join -> "join" | Leave -> "leave" | Fail -> "fail" in
  QCheck2.Test.make ~name:("tier " ^ event_name) ~count:2
    ~print:(fun (machines, victim, (family, seed, pkts)) ->
      Printf.sprintf "machines=%d victim=%d fw %s seed=%d pkts=%d" machines victim
        (family_name family) seed pkts)
    QCheck2.Gen.(
      triple (int_range 2 4) (int_range 0 3)
        (triple (oneofl [ Uniform; Zipf; Churn; Lan_to_wan ]) (int_range 0 9999)
           (int_range 1100 2048)))
    (fun (machines, victim, (family, seed, pkts)) ->
      let nf = nf_of "fw" in
      let victim = if event = Join then machines else victim mod machines in
      Faults.install (Result.get_ok (Faults.parse (Printf.sprintf "%s@1:%d" event_name victim)));
      Fun.protect ~finally:Faults.clear @@ fun () ->
      let config =
        {
          Cluster.Tier.default_config with
          Cluster.Tier.machines;
          epoch_pkts = 512;
          request = { Maestro.Pipeline.default_request with cores = 2 };
        }
      in
      let tier = Result.get_ok (Cluster.Tier.build ~config nf) in
      let trace = trace_of "fw" (Cluster.Tier.plan tier) family ~seed ~pkts in
      let v, s = Cluster.Tier.run tier trace in
      expect "fw" ( = ) (Runtime.Parallel.run_sequential nf trace) v;
      let open Cluster.Tier in
      if s.lost_flows + s.dropped_flows + s.dead_hits + s.affinity_violations + s.unmatched > 0
      then
        fail "lost %d, dropped %d, dead hits %d, split flows %d, unmatched %d" s.lost_flows
          s.dropped_flows s.dead_hits s.affinity_violations s.unmatched;
      let fleet = List.init machines Fun.id in
      let expected =
        if event = Join then fleet @ [ victim ] else List.filter (( <> ) victim) fleet
      in
      if live_machines tier <> expected then fail "the fleet did not end as the event left it";
      if (if event = Fail then s.rebuilt_flows else s.moved_flows) = 0 then
        fail "the %s moved no flow state" event_name;
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    (pool_cells
    @ List.map check_model_cell [ Sn; Lb; Scr; Lock; Tm ]
    @ List.map check_tier_cell [ Join; Leave; Fail ])
