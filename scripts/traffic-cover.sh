#!/bin/sh
# traffic-cover.sh — which non-test code under internal/ does no production
# entry point ever run?
#
# Builds every entry point with coverage counters over the whole module,
# runs each the way it is really run (the five BENCHMARK.json workloads
# traced and untraced, cmd/experiments -run all, the examples, mantisd's
# flag combinations, mantisc, perfbench), merges the counters and prints
#
#   - every function under internal/ at 0 %, and
#   - for each file named as an argument, its uncovered line spans.
#
# This is how a deletion is justified in this repository: code that is at
# 0 % here is reached by tests only. It is report-only — a 0 % function
# may still be safety code worth keeping — and it edits nothing: all
# output goes under .bench_build/cover/.
#
# Run from the repository root:  sh scripts/traffic-cover.sh [file.go ...]
#
# -coverpkg must be the module pattern repro/...: with ./internal/... the
# go1.24 binaries build and run but write no counter files.
set -u
root=$(pwd)
out="$root/.bench_build/cover"
bin="$out/bin"
data="$out/data"
rm -rf "$out"
mkdir -p "$bin" "$data" "$out/json" "$out/trace"

build() { # build <output name> <go build -C dir> <package>
	go build -C "$2" -cover -coverpkg=repro/... -o "$bin/$1" "$3" || exit 1
}
for c in experiments mantisd mantisc perfbench; do
	build "$c" "$root" "./cmd/$c"
done
for d in examples/*/main.go; do
	e=$(basename "$(dirname "$d")")
	build "example-$e" "$root" "./examples/$e"
done
GOFLAGS=-mod=mod build mantis-bench "$root/bench" .

export GOCOVERDIR="$data"
# An entry point that exits non-zero (a self-consistency gate tripped by
# the instrumented build's speed, say) still leaves its counters behind.
run() {
	"$@" >/dev/null 2>&1 || echo "traffic-cover: exit $? from: $*" >&2
}

for w in $(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json); do
	for t in 0 1; do
		run "$bin/mantis-bench" --workload "$w" --seconds 1 --trace "$t" --out "$out/trace"
	done
done
run "$bin/experiments" -run all -json "$out/json"
for e in "$bin"/example-*; do
	run "$e"
done
p4r=examples/p4r/fig1.p4r
for flags in \
	"" \
	"-faults transient" "-faults latency" "-faults partial" "-faults stuck" \
	"-faults crash-prepare" "-faults crash-commit" "-faults crash-mirror" \
	"-legacy-clients 4" "-legacy-clients 4 -sched fifo" \
	"-ctl-delay 1us" "-ctl-loss 0.02" "-ctl-partition 700us/300us"; do
	# shellcheck disable=SC2086 # $flags is a word list
	run "$bin/mantisd" -duration 3ms $flags "$p4r"
done
run "$bin/mantisd" -duration 3ms -topology leafspine:4,2 -fail-spine 1
run "$bin/mantisd" -duration 3ms -topology leafspine:4,2 -gray-trunk 0,1:0.3
run "$bin/mantisc" -check -Werror -target generic-16stage "$p4r"
run "$bin/mantisc" -report -o "$out/fig1.p4" "$p4r"
run "$bin/perfbench" -out "$out/json/BENCH_rmt.json"
unset GOCOVERDIR

# bench/ is its own module: its blocks cannot be resolved from the root
# and are not what is being asked about.
go tool covdata textfmt -i="$data" -o="$out/all.txt" || exit 1
grep -v '^repro/bench/' "$out/all.txt" >"$out/profile.txt"
go tool cover -func="$out/profile.txt" >"$out/func.txt" || exit 1

awk '$1 ~ /^repro\/internal\// && $NF == "0.0%" { sub(/:$/, "", $1); print $1 "\t" $2 }' \
	"$out/func.txt" >"$out/zero.txt"
echo "functions under internal/ that no entry point runs: $(wc -l <"$out/zero.txt")"
cat "$out/zero.txt"

# Profile lines are "path:startLine.col,endLine.col statements count".
for f in "$@"; do
	echo
	echo "uncovered lines in $f:"
	awk -v f="$f" '
		index($1, f ":") && $NF == 0 {
			split($1, a, ":"); split(a[2], r, ","); print int(r[1]), int(r[2])
		}' "$out/profile.txt" | sort -n -u | awk '
		NR > 1 && $1 <= hi + 1 { if ($2 > hi) hi = $2; next }
		NR > 1 { print "  " lo "-" hi }
		{ lo = $1; hi = $2 }
		END { if (NR) print "  " lo "-" hi; else print "  none" }'
done
