#!/usr/bin/env bash
# Fails if a `go test` step of a workflow names tests that do not exist: a
# renamed test turns `-run 'TestOld'` into a step that passes by running
# nothing. Every -run/-bench/-fuzz pattern of .github/workflows/*.yml — plain
# alternations of top-level names, which is all `go test -list` matches — is
# split at `|`, and each alternative must list at least one test in the
# packages of its step.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
checked=0
while IFS= read -r line; do
	cmd=${line#*go test }
	cmd=${cmd%% | *} # drop `| tee …`; alternations inside a pattern have no spaces
	eval "set -- $cmd"
	patterns=() pkgs=()
	while [ $# -gt 0 ]; do
		case $1 in
		-run | -bench | -fuzz)
			patterns+=("$2")
			shift
			;;
		-run=* | -bench=* | -fuzz=*) patterns+=("${1#*=}") ;;
		. | ./*) pkgs+=("$1") ;;
		esac
		shift
	done
	for pattern in ${patterns[@]+"${patterns[@]}"}; do
		[ "$pattern" = '^$' ] && continue
		IFS='|' read -r -a alternatives <<<"$pattern"
		for alt in "${alternatives[@]}"; do
			checked=$((checked + 1))
			listed=$(go test -list "$alt" "${pkgs[@]}")
			if ! grep -qv '^ok\|^?' <<<"$listed"; then
				echo "no test matches '$alt' in ${pkgs[*]}: $line" >&2
				status=1
			fi
		done
	done
done < <(grep -h 'go test .*-\(run\|bench\|fuzz\)[= ]' .github/workflows/*.yml)

echo "checked $checked test patterns"
[ "$checked" -gt 0 ] || status=1
exit $status
