#!/usr/bin/env bash
# Interleaved A/B of one benchmark workload: the committed files of
# BASE_REF against the checkout as it stands.
#
#   bash scripts/bench-ab.sh BASE_REF WORKLOAD SEED PAIRS
#   bash scripts/bench-ab.sh HEAD~1 small_chips 1 10
#
# BASE_REF is unpacked with `git archive` into a temporary directory
# outside the checkout (removed on exit). Each side first runs once with
# `--seconds 1` to fill its own build cache; then every pair runs
# `bash bench/run.sh --workload WORKLOAD --seed SEED --trace 0` on both
# sides, the side that goes first flipping from pair to pair. Each run
# prints its wall seconds (build included), its op_p50_ms and its
# setup_s, throughput_per_s and peak_rss_mb; the end prints the
# op_p50_ms medians and quartiles per side and how many pairs the change
# won. Each side's #info counts are checked against that side's
# own first run (the determinism check): a failed run or a drift exits 1.
# Then both sides' counts are printed once, with one line saying whether
# they are identical; when they differ (a declared quality change, or an
# unintended one) the script exits 3.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 BASE_REF WORKLOAD SEED PAIRS" >&2
	exit 2
fi
base_ref=$1 workload=$2 seed=$3 pairs=$4

change=$(git rev-parse --show-toplevel)
base=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$base"' EXIT
git -C "$change" archive "$base_ref" | tar -x -C "$base"
echo "base $base_ref ($(git -C "$change" rev-parse --short "$base_ref")) in $base; change $change"

# run SIDE DIR [ARGS...]: one run.sh run; sets wall, p50, other (the
# remaining timing and memory metrics) and counts.
run() {
	local side=$1 dir=$2 out start end
	shift 2
	out=$(mktemp)
	start=$(date +%s.%N)
	if ! (cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0 "$@") >"$out" 2>&1; then
		tail -n 20 "$out" >&2
		echo "$side: run failed" >&2
		rm -f "$out"
		exit 1
	fi
	end=$(date +%s.%N)
	wall=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.1f", b - a }')
	p50=$(tail -n 1 "$out" | grep -o '"op_p50_ms":{"value":[0-9.eE+-]*' | sed 's/.*://') || true
	other=$(tail -n 1 "$out" | grep -o '"\(setup_s\|throughput_per_s\|peak_rss_mb\)":{"value":[0-9.eE+-]*' |
		sed 's/^"//;s/":{"value":/ /' | tr '\n' ' ') || true
	counts=$(grep '^#info ' "$out" | grep -o '"counts":{[^}]*}') || true
	rm -f "$out"
	if [ -z "$p50" ] || [ -z "$counts" ]; then
		echo "$side: no op_p50_ms or #info counts in the output" >&2
		exit 1
	fi
}

run base "$base" --seconds 1
echo "warm-up base: ${wall} s"
run change "$change" --seconds 1
echo "warm-up change: ${wall} s"

fail=0 wins=0
declare -A ref=() # the first run's #info counts per side
base_p50=() change_p50=()
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then order="base change"; else order="change base"; fi
	for side in $order; do
		if [ "$side" = base ]; then dir=$base; else dir=$change; fi
		run "$side" "$dir"
		printf 'pair %2d %-6s wall %6s s  op_p50_ms %.1f  %s\n' "$i" "$side" "$wall" "$p50" "$other"
		if [ -z "${ref[$side]:-}" ]; then
			ref[$side]=$counts
		elif [ "$counts" != "${ref[$side]}" ]; then
			echo "  $side counts drift: $counts vs ${ref[$side]}" >&2
			fail=1
		fi
		if [ "$side" = base ]; then b=$p50; base_p50+=("$p50"); else c=$p50; change_p50+=("$p50"); fi
	done
	if awk -v b="$b" -v c="$c" 'BEGIN { exit !(c < b) }'; then wins=$((wins + 1)); fi
done

# quartiles NUMBERS...: prints "q1 median q3" (linear interpolation).
quartiles() {
	printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 }
		function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + (l < NR)] - v[l]) }
		END { printf "q1 %.0f  median %.0f  q3 %.0f", q(0.25), q(0.5), q(0.75) }'
}
echo "base   op_p50_ms $(quartiles "${base_p50[@]}")"
echo "change op_p50_ms $(quartiles "${change_p50[@]}")"
echo "change faster in $wins of $pairs pairs"
echo "base   counts ${ref[base]:-}"
echo "change counts ${ref[change]:-}"
if ((fail)); then
	echo "#info counts drift between runs of the same side" >&2
	exit 1
fi
if [ "${ref[base]:-}" = "${ref[change]:-}" ]; then
	echo "base and change counts: identical"
else
	echo "base and change counts: differ"
	exit 3
fi
