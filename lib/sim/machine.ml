type t = {
  freq_hz : float;
  cores : int;
  l1d_bytes : int;
  l2_bytes : int;
  llc_bytes : int;
  line_gbps : float;
  pcie_bytes_per_s : float;
  pcie_pkt_overhead : int;
}

(* PCIe 3.0 x16: 15.75 GB/s raw; ~12.8 GB/s after TLP framing.  78 B/packet
   of descriptor + completion + doorbell traffic reproduces the ~45 Gbps
   64-byte ceiling of Fig. 8 (cf. Neugebauer et al., SIGCOMM'18). *)
let xeon_6226r =
  {
    freq_hz = 2.9e9;
    cores = 16;
    l1d_bytes = 32 * 1024;
    l2_bytes = 1024 * 1024;
    llc_bytes = 22 * 1024 * 1024;
    line_gbps = 100.0;
    pcie_bytes_per_s = 12.8e9;
    pcie_pkt_overhead = 78;
  }

let line_rate_pps t ~frame_bytes =
  (* 20 B of preamble + SFD + inter-frame gap per frame on the wire *)
  t.line_gbps *. 1e9 /. 8.0 /. float_of_int (frame_bytes + 20)

let pcie_pps t ~frame_bytes =
  t.pcie_bytes_per_s /. float_of_int (frame_bytes + t.pcie_pkt_overhead)

let peak_pps t ~frame_bytes = Float.min (line_rate_pps t ~frame_bytes) (pcie_pps t ~frame_bytes)
