#!/usr/bin/env bash
# CLI surface smoke, the `cli` entry of the CI smoke matrix.  Each case
# drives bin/maestro_cli.exe the way the README documents it and greps the
# load-bearing output lines; all traffic is seeded, so the expected counts
# are exact.
set -euo pipefail

cli() { opam exec -- dune exec bin/maestro_cli.exe -- "$@"; }

# The VXLAN-terminating firewall end to end: inner-5-tuple symbex
# constraints, inner-header RSS key, live pool agreeing with the
# sequential oracle and actually spreading across cores.
cli run vxlan_fw --cores 4 --pkts 4000 --flows 200 | tee cli-vxlan.txt
grep -q 'strategy: shared-nothing' cli-vxlan.txt
grep -q 'pool sequential agreement: 4000/4000' cli-vxlan.txt
cli run gre_peer --cores 4 --pkts 4000 --flows 200 | tee cli-gre.txt
grep -q 'pool sequential agreement: 4000/4000' cli-gre.txt

# A worker crash the supervisor restarts
cli run fw --cores 4 --pkts 4000 --flows 200 --fault-plan 'crash@1:2' | tee cli-fault.txt
grep -q 'pool sequential agreement: 4000/4000' cli-fault.txt
grep -q 'pool recovery: 1 restarts' cli-fault.txt
# a shedding producer: the pool's batch count and its pool.batches
# counter come from one ledger call per batch, so they agree
cli run fw --cores 4 --pkts 4000 --flows 200 --backpressure shed --stats \
  | tee cli-fault-shed.txt
batches=$(sed -nE 's/^pool: .*: ([0-9]+) batches, .*/\1/p' cli-fault-shed.txt)
counter=$(awk '$1 == "pool.batches" { print $2 }' cli-fault-shed.txt)
test -n "$batches"
test "$batches" = "$counter"
# a slow but live worker (~0.7 ms a batch): the producer naps while it
# drains, and --stats counts the naps; the worker is not flagged stuck
cli run fw --cores 1 --pkts 4000 --flows 200 --fault-plan 'slow@0:0:20000' --stats \
  | tee cli-fault-slow.txt
grep -q 'pool sequential agreement: 4000/4000' cli-fault-slow.txt
naps=$(awk '$1 == "pool.producer_naps" { print $2 }' cli-fault-slow.txt)
test "${naps:-0}" -gt 0
stuck=$(awk '$1 == "supervisor.stuck_detected" { print $2 }' cli-fault-slow.txt)
test -z "$stuck"

# Online rebalancing
cli run fw --cores 8 --pkts 16384 --flows 1000 --rebalance epoch=4096 | tee cli-rebalance.txt
grep -q 'pool sequential agreement: 16384/16384' cli-rebalance.txt
grep -q 'pool rebalancing' cli-rebalance.txt
# a worker crash mid-run recovers on the rebalancing path
cli run fw --cores 8 --pkts 16384 --flows 1000 --rebalance epoch=4096 \
  --fault-plan 'crash@1:2' | tee cli-rebalance-crash.txt
grep -q 'pool sequential agreement: 16384/16384' cli-rebalance-crash.txt
grep -q 'pool recovery: 1 restarts' cli-rebalance-crash.txt
# README's per-epoch table, measured on one pool with rebalancing off
# and on
cli rebalance fw --cores 8 --pkts 24000 --epoch 4096 --threshold 1.1 --zipf 1.1 \
  | tee cli-rebalance-table.txt
grep -q 'epoch | static imbalance | dynamic imbalance' cli-rebalance-table.txt
grep -Eq 'rebalances: [1-9][0-9]* ' cli-rebalance-table.txt

# State-compute replication
cli run fw --cores 4 --pkts 4000 --flows 200 --discipline scr | tee cli-scr.txt
grep -q 'pool sequential agreement: 4000/4000' cli-scr.txt
grep -q 'state-compute-replication' cli-scr.txt
# ... and on the static SCR path, which rebuilds the dead replica
cli run fw --cores 4 --pkts 4000 --flows 200 --discipline scr \
  --fault-plan 'crash@1:2' | tee cli-scr-crash.txt
grep -q 'pool sequential agreement: 4000/4000' cli-scr-crash.txt
grep -q 'pool recovery: 1 restarts' cli-scr-crash.txt
grep -q '1 replica rebuilds' cli-scr-crash.txt

# Adaptive discipline switching
cli run fw --cores 4 --pkts 16384 --flows 400 --adaptive epochs=2048 --stats | tee cli-adaptive.txt
grep -q 'pool sequential agreement: 16384/16384' cli-adaptive.txt
grep -q 'pool adaptive' cli-adaptive.txt
# ... and on the adaptive path
cli run fw --cores 4 --pkts 16384 --flows 400 --adaptive epochs=2048 \
  --fault-plan 'crash@1:2' | tee cli-adaptive-crash.txt
grep -q 'pool sequential agreement: 16384/16384' cli-adaptive-crash.txt
grep -q 'pool recovery: 1 restarts' cli-adaptive-crash.txt

# Service chains
cli parallelize --chain fw,nat --cores 8 | tee cli-chain.txt
grep -q 'unified ladder rung: shared-nothing' cli-chain.txt
grep -q 'stage 1 (nat, prefix s1_nat_)' cli-chain.txt
cli run --chain policer,fw,nat --cores 4 --pkts 4000 --flows 200 | tee cli-chain-run.txt
grep -q 'chain: chain_policer_fw_nat (3 stages fused)' cli-chain-run.txt
grep -q 'pool sequential agreement: 4000/4000' cli-chain-run.txt

# Four machines under churn: a fifth joins, then one crashes and is
# rebuilt from the SCR digest log — verdicts must stay identical to the
# sequential NF with zero dead hits and zero split flows.
cli cluster fw --machines 4 --cores 4 --pkts 12000 --flows 800 \
  --fault-plan 'join@1:4;fail@2:2' | tee cli-cluster.txt
grep -q 'strategy: shared-nothing on 4 cores x 4 machines' cli-cluster.txt
grep -q 'digest rebuild available' cli-cluster.txt
grep -q 'agree with sequential; 0 dead hits, 0 affinity violations' cli-cluster.txt
grep -Eq 'fail@2 machine 2: .* [1-9][0-9]* rebuilt' cli-cluster.txt
