#!/usr/bin/env bash
# detect-smoke: xatu-detect's two inputs and two modes must raise the
# same alerts.
#
# Trains a tiny model, then feeds the step range around the first attack
# ispgen's summary names to xatu-detect three times: as a flow journal
# through -replay, as NetFlow v5 datagrams over loopback UDP into a live
# detector that is stopped with SIGINT, and as the same journal through
# -replay on a one-node fleet under xatu-coord. All three runs must print
# the same non-empty sorted set of ALERT lines, and the live run's
# shutdown line must report lost=0 bad=0.
#
# One shard and GOMAXPROCS=1 (one decode and one aggregation worker) fix
# the order in which different customers' steps reach the monitor: the
# shards share the attack-history registry, so with several shards an A2
# feature can depend on which shard ran first.
#
# Usage: bash scripts/detect-smoke.sh   (from the module root; ~10 s)
set -euo pipefail

dir=$(mktemp -d)
pid=
cpid=
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	[ -n "$cpid" ] && kill "$cpid" 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/" ./cmd/xatu-train ./cmd/xatu-detect ./cmd/xatu-coord ./cmd/ispgen
"$dir/xatu-train" -out "$dir/models" -days 4 -epochs 2 >/dev/null

world=(-days 4 -step 2 -seed 1)
first=$("$dir/ispgen" "${world[@]}" -summary | sed -n 's/^first attack: .* at step \([0-9]*\) .*/\1/p')
if [ -z "$first" ]; then
	echo "detect-smoke: ispgen -summary names no first attack" >&2
	exit 1
fi
from=$((first > 60 ? first - 60 : 0))
to=$((first + 60))
detect=(env GOMAXPROCS=1 "$dir/xatu-detect" -models "$dir/models" -shards 1)

"$dir/ispgen" "${world[@]}" -journal "$dir/flows.journal" -from "$from" -to "$to" >/dev/null
"${detect[@]}" -replay "$dir/flows.journal" >"$dir/replay.out"

"${detect[@]}" -listen 127.0.0.1:0 >"$dir/live.out" &
pid=$!
addr=
for _ in $(seq 100); do
	addr=$(sed -n 's/^listening on \([^,]*\),.*/\1/p' "$dir/live.out")
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "detect-smoke: live xatu-detect never listened" >&2
	cat "$dir/live.out" >&2
	exit 1
fi
"$dir/ispgen" "${world[@]}" -export "$addr" -from "$from" -to "$to" -rate 5ms >/dev/null
sleep 0.5 # let the last datagrams land
kill -INT "$pid"
wait "$pid"
pid=

"$dir/xatu-coord" -listen 127.0.0.1:0 -shards 1 -print-alerts=false >"$dir/coord.out" 2>/dev/null &
cpid=$!
caddr=
for _ in $(seq 100); do
	caddr=$(sed -n 's|^coordinator on http://\([^ ]*\) .*|\1|p' "$dir/coord.out")
	[ -n "$caddr" ] && break
	sleep 0.1
done
if [ -z "$caddr" ]; then
	echo "detect-smoke: xatu-coord never listened" >&2
	exit 1
fi
"${detect[@]}" -coordinator "$caddr" -id node-1 -replay "$dir/flows.journal" >"$dir/fleet.out"
kill -INT "$cpid"
wait "$cpid"
cpid=

for run in replay live fleet; do
	grep ' ALERT ' "$dir/$run.out" | sort >"$dir/$run.alerts"
done
shutdown=$(grep '^shutting down' "$dir/live.out" || true)
echo "detect-smoke: steps [$from,$to): $(wc -l <"$dir/replay.alerts") replayed alerts, $(wc -l <"$dir/live.alerts") live, $(wc -l <"$dir/fleet.alerts") replayed on a one-node fleet"
echo "detect-smoke: $shutdown"
fail=0
if [ ! -s "$dir/replay.alerts" ]; then
	echo "detect-smoke: the replay raised no alert" >&2
	fail=1
fi
if ! diff "$dir/replay.alerts" "$dir/live.alerts" >&2; then
	echo "detect-smoke: replay and live alerts differ" >&2
	fail=1
fi
if ! diff "$dir/replay.alerts" "$dir/fleet.alerts" >&2; then
	echo "detect-smoke: standalone and fleet replay alerts differ" >&2
	fail=1
fi
case "$shutdown" in
*" lost=0 "*" bad=0)") ;;
*)
	echo "detect-smoke: live shutdown line lacks lost=0 bad=0" >&2
	fail=1
	;;
esac
exit "$fail"
