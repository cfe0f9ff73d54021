#!/usr/bin/env bash
# Self-test of the benchmark's correctness checks. Each run damages one
# output on purpose and must come back with failed > 0 and
# correct=false, never as a clean run:
#   corrupt-golden     one golden line no longer matches its replay
#   forge-signature    one artifact's signature is altered on receipt
#   violate-invariant  one generated trace loses its verdict record
# A clean run of each workload must still pass. Run from the repository
# root:  bash mavrbench/selftest.sh
set -euo pipefail
run() { bash mavrbench/run.sh --seed 1 --seconds 2 --trace 0 "$@" | tail -n 1; }

status=0
for case in golden-replay:corrupt-golden armory-provision:forge-signature scengen-sweep:violate-invariant; do
	workload=${case%%:*} fault=${case#*:}
	line=$(run --workload "$workload" --inject "$fault")
	if [[ $line == *'"correct":false'* && $line != *'"failed":0,'* ]]; then
		echo "ok    $fault counted as a failure"
	else
		echo "FAIL  $fault was not counted: $line"
		status=1
	fi
	line=$(run --workload "$workload")
	if [[ $line == *'"correct":true'* ]]; then
		echo "ok    $workload clean run passes"
	else
		echo "FAIL  $workload clean run: $line"
		status=1
	fi
done
exit $status
