#!/usr/bin/env bash
# Prints where the linker placed the two functions whose alignment
# tcp-scan's wall-clock metrics follow (EXPERIMENTS.md, "A layout hazard
# worth knowing"): every closure of core.(*exec).startSingle, the store
# scan callback among them, and realnet.(*Node).Send, each with its
# address mod 64. Run it on the parent's and the change's binaries
# before believing a 10-20 % tcp-scan swing from a change that does not
# touch the scan:
#
#   bash scripts/layout.sh                     # .bench_build/pier-benchmark
#   bash scripts/layout.sh path/to/pier-benchmark
#
# The default binary is the one benchmark/run.sh builds.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=${1:-.bench_build/pier-benchmark}
if [ ! -f "$bin" ]; then
	echo "layout.sh: no binary at $bin; build it with benchmark/run.sh" >&2
	exit 1
fi
go tool nm -n -size "$bin" |
	while read -r addr size _ name; do
		case "$name" in
		'pier/internal/core.(*exec).startSingle.func'[0-9]* | 'pier/internal/realnet.(*Node).Send')
			printf '%-48s 0x%s %5d B  %2d mod 64\n' "${name#pier/internal/}" "$addr" "$size" $((16#$addr % 64))
			;;
		esac
	done
