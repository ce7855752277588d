#!/usr/bin/env bash
# smoke-patterns.sh TARGET... reads the commands the given make targets
# run (make -n) and fails when an alternative of a -run pattern names no
# test, fuzz target or example in that command's packages: a renamed test
# would otherwise drop out of a smoke target without a sound.
#
#	bash smoke-patterns.sh crash-smoke elision-smoke
set -euo pipefail

declare -A listed
status=0
while IFS= read -r cmd; do
	[[ $cmd =~ -run\ \'([^\']*)\' ]] || continue
	pattern=${BASH_REMATCH[1]}
	[[ $pattern == '^$' ]] && continue
	pkgs=$(grep -o ' \./[^ ;]*' <<<"$cmd" | tr -d '\n')
	if [[ -z ${listed[$pkgs]+set} ]]; then
		listed[$pkgs]=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Example)' || true)
	fi
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		if ! grep -qE -e "$alt" <<<"${listed[$pkgs]}"; then
			echo "smoke-patterns: -run alternative '$alt' matches nothing in$pkgs" >&2
			status=1
		fi
	done
done < <(make --no-print-directory -n "$@")
exit $status
