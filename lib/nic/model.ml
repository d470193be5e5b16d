type t = E810 | X710 | Permissive

let name = function E810 -> "Intel E810" | X710 -> "Intel X710" | Permissive -> "permissive"

let key_bytes = function E810 -> 52 | X710 -> 40 | Permissive -> 52

(* The E810 accepts any subset via the DPDK *_ONLY modifiers, and
   inner-header sets via RSS_LEVEL_INNERMOST — the X710 has neither. *)
let supports t set =
  match t with
  | E810 | Permissive -> Field_set.fields set <> []
  | X710 ->
      List.exists (Field_set.equal set) [ Field_set.ipv4; Field_set.ipv4_tcp; Field_set.ipv4_udp ]

let reta_size = function E810 -> 512 | X710 -> 512 | Permissive -> 512

let max_queues = function E810 -> 256 | X710 -> 64 | Permissive -> 256

let set_size s = List.length (Field_set.fields s)

let best_set_covering t required =
  if required = [] then None
  else if List.exists (fun f -> not (Packet.Field.rss_capable f)) required then None
  else
    match t with
    | E810 | Permissive ->
        (* subset hashing: the minimal covering set is the fields themselves *)
        Some (Field_set.make required)
    | X710 ->
        let covers s =
          List.for_all (fun f -> List.exists (Packet.Field.equal f) (Field_set.fields s)) required
        in
        [ Field_set.ipv4; Field_set.ipv4_tcp ]
        |> List.filter covers
        |> List.sort (fun a b -> Int.compare (set_size a) (set_size b))
        |> (function [] -> None | s :: _ -> Some s)

let pp fmt t = Format.pp_print_string fmt (name t)
