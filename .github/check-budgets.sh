#!/usr/bin/env bash
# Holds the repo benchmark to the budgets in .github/budgets.json, the one
# place they are written. For each entry (all of them, or every entry of the
# workloads named on the command line; a workload may have several, each
# with its own args) it runs `benchmark/run.sh --workload W <args>`, which must
# exit 0 (exit 4 = a wrong or failed op), and fails if a metric of its last
# line exceeds its "max" or is missing. With "same_under_gomaxprocs_1" the
# workload runs again under GOMAXPROCS=1, must meet the same budget, and must
# read the same value of every budgeted metric.
#
#   bash .github/check-budgets.sh               # every budget
#   bash .github/check-budgets.sh knn_mem       # every budget of one workload
set -euo pipefail
cd "$(dirname "$0")/.."
budgets=.github/budgets.json
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run W ARGS... runs the benchmark and prints its last line, the envelope. It
# fails with the benchmark's own exit status when that is not 0: `set -e` does
# not reach into the command substitution that calls it, so the status is
# taken and returned by hand.
run() {
	local rc=0
	bash benchmark/run.sh --workload "$@" | tee "$out/run.txt" >&2 || rc=$?
	if [ "$rc" -ne 0 ]; then
		echo "$1: benchmark exited $rc" >&2
		return "$rc"
	fi
	tail -n 1 "$out/run.txt"
}

# over BUDGET ENVELOPE prints every budgeted metric the envelope exceeds or
# lacks, and a line if the envelope is not marked correct; it prints nothing
# when the run was correct and met the budget.
over() {
	jq -r --argjson b "$1" '. as $r
		| (if $r.correct != true then "\($b.workload): correct = \($r.correct), failed = \($r.failed)" else empty end),
		  ($b.max | to_entries[]
			| ($r.metrics[.key].value) as $v
			| select(($v | type) != "number" or $v > .value)
			| "\($b.workload): \(.key) = \($v), budget \(.value)")' <<<"$2"
}

# counts BUDGET ENVELOPE prints the values of the budgeted metrics.
counts() {
	jq -c --argjson b "$1" '. as $r | [$b.max | keys[] | $r.metrics[.].value]' <<<"$2"
}

if [ $# -eq 0 ]; then
	mapfile -t entries < <(jq -c '.[]' "$budgets")
else
	entries=()
	for w in "$@"; do
		mapfile -t found < <(jq -c --arg w "$w" '.[] | select(.workload == $w)' "$budgets")
		if [ ${#found[@]} -eq 0 ]; then
			echo "no budget for workload $w" >&2
			exit 2
		fi
		entries+=("${found[@]}")
	done
fi
status=0
for b in "${entries[@]}"; do
	w=$(jq -r .workload <<<"$b")
	mapfile -t args < <(jq -r '.args[]' <<<"$b")
	if ! env=$(run "$w" "${args[@]}"); then
		status=1
		continue
	fi
	bad=$(over "$b" "$env")
	if [ "$(jq -r '.same_under_gomaxprocs_1 // false' <<<"$b")" = true ]; then
		if ! env1=$(GOMAXPROCS=1 run "$w" "${args[@]}"); then
			echo "$w: failed under GOMAXPROCS=1" >&2
			status=1
			continue
		fi
		bad+=$(over "$b" "$env1" | sed 's/$/ under GOMAXPROCS=1/')
		if [ "$(counts "$b" "$env")" != "$(counts "$b" "$env1")" ]; then
			bad+=" $w: counts $(counts "$b" "$env") differ under GOMAXPROCS=1: $(counts "$b" "$env1")"
		fi
	fi
	if [ -n "$bad" ]; then
		echo "$bad" >&2
		status=1
	else
		echo "$w: within budget $(jq -c .max <<<"$b")"
	fi
done
exit $status
