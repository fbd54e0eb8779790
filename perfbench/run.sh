#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --workload all ...   # every workload, one process each
#
# Run it from the root of a checkout. Every build and trace output stays
# under .bench_build/ there: the Go build cache, the binary and the spans
# a traced run writes.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a checkout holding the rcm module sources" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .)

workload=""
args=()
while (($#)); do
	if [[ $1 == --workload && $# -ge 2 ]]; then
		workload=$2
		shift 2
	else
		args+=("$1")
		shift
	fi
done

if [[ $workload != all ]]; then
	exec "$bin" --workload "$workload" --trace-dir "$out/traces" "${args[@]}"
fi
status=0
for w in fig-render sim-churn live-failover live-udp; do
	echo "== $w"
	"$bin" --workload "$w" --trace-dir "$out/traces" "${args[@]}" || status=1
done
exit "$status"
