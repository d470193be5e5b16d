type strategy = Shared_nothing | Scr | Lock_based | Tm_based | Load_balance

let strategy_name = function
  | Shared_nothing -> "shared-nothing"
  | Scr -> "state-compute-replication"
  | Lock_based -> "lock-based"
  | Tm_based -> "transactional-memory"
  | Load_balance -> "load-balance"

type port_rss = { key : Bitvec.t; field_set : Nic.Field_set.t }

type t = {
  nf : Dsl.Ast.t;
  cores : int;
  nic : Nic.Model.t;
  strategy : strategy;
  rss : port_rss array;
  constraints : Rs3.Cstr.t list;
  warnings : string list;
}

let rss_engine t port =
  let { key; field_set } = t.rss.(port) in
  Nic.Rss.configure ~nic:t.nic ~key ~sets:[ field_set ] ~queues:t.cores ()

let state_divisor t =
  match t.strategy with
  | Shared_nothing -> t.cores
  (* SCR replicates the FULL state on every core (divisor 1 despite the
     per-core instances); lock/TM share one instance; load-balance
     replicates read-only state *)
  | Scr | Lock_based | Tm_based | Load_balance -> 1

let pp fmt t =
  Format.fprintf fmt "@[<v>nf: %s@ strategy: %s@ cores: %d@ nic: %s@ " t.nf.Dsl.Ast.name
    (strategy_name t.strategy) t.cores (Nic.Model.name t.nic);
  Array.iteri
    (fun port { key; field_set } ->
      Format.fprintf fmt "port %d: fields %a key %s@ " port Nic.Field_set.pp field_set
        (Bitvec.to_hex key))
    t.rss;
  if t.constraints <> [] then
    Format.fprintf fmt "@[<v 2>constraints:@ %a@]@ "
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Rs3.Cstr.pp)
      t.constraints;
  List.iter (fun w -> Format.fprintf fmt "warning: %s@ " w) t.warnings;
  Format.fprintf fmt "@]"
