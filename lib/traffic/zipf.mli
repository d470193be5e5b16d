(** Zipfian ("mice and elephants") traffic.

    The paper's Fig. 5 workload, with parameters from Benson et al. [12] as
    used by [60]: 1 000 flows of which the 48 heaviest carry 80 % of the
    packets.  The skew exponent is calibrated numerically to hit that share. *)

type t

val make : ?exponent:float -> nflows:int -> unit -> t
(** Explicit exponent; flows ranked 1 (heaviest) to [nflows]. *)

val paper : unit -> t
(** 1 000 flows at the exponent that gives the 48 heaviest 80 % of the
    probability mass. *)

val exponent : t -> float

val nflows : t -> int

val share_of_top : t -> int -> float
(** Probability mass of the [k] heaviest flows. *)

val sample : t -> Random.State.t -> int
(** A flow rank in [0 .. nflows-1], heaviest first. *)

val trace :
  ?spec:Gen.trace_spec ->
  Random.State.t ->
  t ->
  flows:Packet.Flow.t list ->
  Packet.Pkt.t array
(** A trace whose flows are drawn Zipf-distributed from the given list
    (which must have at least [nflows] entries). *)
