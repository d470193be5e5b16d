(** The modeled testbed (paper §6.2): dual-socket Xeon Gold 6226R at
    2.9 GHz, Intel E810 100 Gbps NICs on PCIe 3.0 ×16.

    Only parameters with first-order performance effects are kept: core
    frequency and count, the cache hierarchy, the line rate, and the PCIe
    packet-size-dependent ceiling that Fig. 8 exposes (per-packet descriptor
    and TLP overhead on top of payload bytes). *)

type t = {
  freq_hz : float;
  cores : int;  (** per NUMA node, as used in the experiments *)
  l1d_bytes : int;  (** per core *)
  l2_bytes : int;  (** per core *)
  llc_bytes : int;  (** shared *)
  line_gbps : float;
  pcie_bytes_per_s : float;  (** effective PCIe data rate *)
  pcie_pkt_overhead : int;  (** per-packet PCIe cost in bytes *)
}

val xeon_6226r : t

val line_rate_pps : t -> frame_bytes:int -> float
(** 100G Ethernet ceiling for a frame size, including preamble and IFG. *)

val pcie_pps : t -> frame_bytes:int -> float
(** PCIe ceiling for a frame size. *)

val peak_pps : t -> frame_bytes:int -> float
(** min of the two NIC-side ceilings — what even a NOP cannot exceed. *)
