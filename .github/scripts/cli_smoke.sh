#!/usr/bin/env bash
# CLI surface smoke for the consolidated smoke-gate matrix, keyed by the
# matrix entry name.  Each case drives bin/maestro_cli.exe the way the
# README documents it and greps the load-bearing output lines; all
# traffic is seeded, so the expected counts are exact.
set -euo pipefail

cli() { opam exec -- dune exec bin/maestro_cli.exe -- "$@"; }

case "${1:?usage: cli_smoke.sh <matrix-entry-name>}" in
  bench | stress | framebench)
    # No CLI surface of their own: bench gates telemetry documents, the
    # stress scale knob is exercised by the run step itself, and
    # framebench checks itself.
    ;;

  codec)
    # The VXLAN-terminating firewall end to end: inner-5-tuple symbex
    # constraints, inner-header RSS key, live pool agreeing with the
    # sequential oracle and actually spreading across cores.
    cli run vxlan_fw --cores 4 --pkts 4000 --flows 200 | tee cli-vxlan.txt
    grep -q 'strategy: shared-nothing' cli-vxlan.txt
    grep -q 'pool sequential agreement: 4000/4000' cli-vxlan.txt
    cli run gre_peer --cores 4 --pkts 4000 --flows 200 | tee cli-gre.txt
    grep -q 'pool sequential agreement: 4000/4000' cli-gre.txt
    ;;

  fault)
    cli run fw --cores 4 --pkts 4000 --flows 200 --fault-plan 'crash@1:2' | tee cli-fault.txt
    grep -q 'pool sequential agreement: 4000/4000' cli-fault.txt
    grep -q 'restarts' cli-fault.txt
    ;;

  skew)
    cli run fw --cores 8 --pkts 16384 --flows 1000 --rebalance epoch=4096 | tee cli-rebalance.txt
    grep -q 'pool sequential agreement: 16384/16384' cli-rebalance.txt
    grep -q 'pool rebalancing' cli-rebalance.txt
    # a worker crash mid-run recovers on the rebalancing path
    cli run fw --cores 8 --pkts 16384 --flows 1000 --rebalance epoch=4096 \
      --fault-plan 'crash@1:2' | tee cli-rebalance-crash.txt
    grep -q 'pool sequential agreement: 16384/16384' cli-rebalance-crash.txt
    grep -q 'pool recovery: 1 restarts' cli-rebalance-crash.txt
    ;;

  churn)
    cli run fw --cores 4 --pkts 4000 --flows 200 --discipline scr | tee cli-scr.txt
    grep -q 'pool sequential agreement: 4000/4000' cli-scr.txt
    grep -q 'state-compute-replication' cli-scr.txt
    # ... and on the static SCR path, which rebuilds the dead replica
    cli run fw --cores 4 --pkts 4000 --flows 200 --discipline scr \
      --fault-plan 'crash@1:2' | tee cli-scr-crash.txt
    grep -q 'pool sequential agreement: 4000/4000' cli-scr-crash.txt
    grep -q 'pool recovery: 1 restarts' cli-scr-crash.txt
    grep -q '1 replica rebuilds' cli-scr-crash.txt
    ;;

  adaptive)
    cli run fw --cores 4 --pkts 16384 --flows 400 --adaptive epochs=2048 --stats | tee cli-adaptive.txt
    grep -q 'pool sequential agreement: 16384/16384' cli-adaptive.txt
    grep -q 'pool adaptive' cli-adaptive.txt
    # ... and on the adaptive path
    cli run fw --cores 4 --pkts 16384 --flows 400 --adaptive epochs=2048 \
      --fault-plan 'crash@1:2' | tee cli-adaptive-crash.txt
    grep -q 'pool sequential agreement: 16384/16384' cli-adaptive-crash.txt
    grep -q 'pool recovery: 1 restarts' cli-adaptive-crash.txt
    ;;

  chain)
    cli parallelize --chain fw,nat --cores 8 | tee cli-chain.txt
    grep -q 'unified ladder rung: shared-nothing' cli-chain.txt
    grep -q 'stage 1 (nat, prefix s1_nat_)' cli-chain.txt
    cli run --chain policer,fw,nat --cores 4 --pkts 4000 --flows 200 | tee cli-chain-run.txt
    grep -q 'chain: chain_policer_fw_nat (3 stages fused)' cli-chain-run.txt
    grep -q 'pool sequential agreement: 4000/4000' cli-chain-run.txt
    ;;

  cluster)
    # Four machines under churn: a fifth joins, then one crashes and is
    # rebuilt from the SCR digest log — verdicts must stay identical to
    # the sequential NF with zero dead hits and zero split flows.
    cli cluster fw --machines 4 --cores 4 --pkts 12000 --flows 800 \
      --fault-plan 'join@1:4;fail@2:2' | tee cli-cluster.txt
    grep -q 'strategy: shared-nothing on 4 cores x 4 machines' cli-cluster.txt
    grep -q 'digest rebuild available' cli-cluster.txt
    grep -q 'agree with sequential; 0 dead hits, 0 affinity violations' cli-cluster.txt
    grep -Eq 'fail@2 machine 2: .* [1-9][0-9]* rebuilt' cli-cluster.txt
    ;;

  *)
    echo "cli_smoke.sh: unknown matrix entry '$1'" >&2
    exit 2
    ;;
esac
