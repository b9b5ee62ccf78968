#!/bin/sh
# Two result sets of one commit, to check that the benchmark repeats and
# to record a baseline:
#   sh bench/adcbench/sets.sh OUT [N]
# makes N passes (default 10) over every workload for each set, set 1 on
# seeds 101.. and set 2 on seeds 111.., the sets alternating pass by pass
# so that a slow spell of the host falls on both. Runs are appended to
# OUT-set1.json and OUT-set2.json (paths relative to the checkout root);
# then
#   dune exec bench/adcbench/adcbench.exe -- compare OUT-set1.json OUT-set2.json
# shows each set's medians and quartiles and whether they agree.
set -e
out=$1
n=${2:-10}
cd "$(dirname "$0")/../.."
i=0
while [ "$i" -lt "$n" ]; do
  one="--seed $((101 + i)) --out $out-set1.json"
  two="--seed $((111 + i)) --out $out-set2.json"
  if [ $((i % 2)) -eq 0 ]; then
    sh bench/adcbench/run.sh $one
    sh bench/adcbench/run.sh $two
  else
    sh bench/adcbench/run.sh $two
    sh bench/adcbench/run.sh $one
  fi
  i=$((i + 1))
done
