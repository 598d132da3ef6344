#!/bin/sh
# traffic-cover.sh — which non-test code under internal/ does no production
# entry point ever run?
#
# Builds every entry point with coverage counters over the whole module,
# runs each the way it is really run (the five BENCHMARK.json workloads
# traced and untraced, cmd/experiments -run all, the examples, mantisd's
# flag combinations, mantisc on the shipped program, on a switch profile
# read from a file and on every analyzer test program, perfbench
# measuring and comparing against BENCH_rmt.json), merges the counters
# and prints
#
#   - every function under internal/ at 0 %, as "file:line<TAB>Recv.Name",
#     and
#   - for each file named as an argument, its uncovered line spans.
#
# A function with no statements (a sealed interface's marker method,
# `func (IfStmt) stmtNode() {}`) has no counter that could fire, so it is
# left out: it is at 0 % whatever runs.
#
# This is how a deletion is justified in this repository: code that is at
# 0 % here is reached by tests only. With -check the list is a rule:
# every function on it needs a line in the allowlist naming why it stays
# (DESIGN.md §11, "Reachability"), and the script exits 1, naming the
# function, when an unreached function has no line or a line's function
# is no longer on the list. It edits nothing: all output goes under
# .bench_build/cover/.
#
# Run from the repository root:
#   sh scripts/traffic-cover.sh [-check scripts/cover-allow.txt] [file.go ...]
#
# -coverpkg must be the module pattern repro/...: with ./internal/... the
# go1.24 binaries build and run but write no counter files.
set -u
allow=
if [ "${1:-}" = -check ]; then
	[ $# -ge 2 ] || { echo "traffic-cover: -check needs an allowlist file" >&2; exit 2; }
	allow=$2
	shift 2
	[ -r "$allow" ] || { echo "traffic-cover: cannot read $allow" >&2; exit 2; }
fi
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
# the instrumented build's speed, say, or mantisc rejecting a malformed
# program) still leaves its counters behind.
run() {
	"$@" >/dev/null 2>&1 || echo "traffic-cover: exit $? from: $*" >&2
}
# runq is run for an entry point whose non-zero exit is its job.
runq() {
	"$@" >/dev/null 2>&1 || true
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
# A switch profile read from a file, as an operator passes one (the
# built-in generic-16stage budgets).
echo '{"name": "lab", "stages": 16, "stage_sram_bits": 1048576, "stage_tcam_bits": 262144, "stage_register_bits": 524288, "stage_tables": 16}' >"$out/lab.json"
run "$bin/mantisc" -check -target "$out/lab.json" "$p4r"
# The analyzer's test programs are malformed on purpose: mantisc's
# diagnostics are what they reach, so most exit 1.
for f in internal/p4r/analysis/testdata/*.p4r; do
	runq "$bin/mantisc" -check -target generic-16stage "$f"
done
# CI's gate compares the suite against BENCH_rmt.json. The tolerances are
# wide open here so which code the comparison runs does not depend on how
# fast the instrumented build is.
run "$bin/perfbench" -out "$out/json/BENCH_rmt.json" -baseline BENCH_rmt.json -check \
	-tolerance 1000 -alloc-tolerance 1000000
unset GOCOVERDIR

# bench/ is its own module: its blocks cannot be resolved from the root
# and are not what is being asked about.
go tool covdata textfmt -i="$data" -o="$out/all.txt" || exit 1
grep -v '^repro/bench/' "$out/all.txt" >"$out/profile.txt"
go tool cover -func="$out/profile.txt" >"$out/func.txt" || exit 1

# Profile lines are "path:startLine.col,endLine.col statements count";
# func.txt lines are "path:line:<TAB>name<TAB>percent", in source order
# per file. A block belongs to the last function starting at or above it.
awk '
	FNR == 1 { pass++ }
	pass == 1 && $1 ~ /^repro\// {
		split($1, a, ":"); f = a[1]
		n[f]++; start[f, n[f]] = int(a[2]); name[f, n[f]] = $2; pct[f, n[f]] = $NF
		next
	}
	pass == 2 && $2 > 0 {
		split($1, a, ":"); f = a[1]; line = int(a[2])
		for (i = n[f]; i >= 1; i--)
			if (start[f, i] <= line) { stmts[f, i] = 1; break }
	}
	END {
		for (k in pct) {
			split(k, p, SUBSEP)
			if (p[1] ~ /^repro\/internal\// && pct[k] == "0.0%" && stmts[k])
				print substr(p[1], 7) ":" start[k] "\t" name[k]
		}
	}' "$out/func.txt" "$out/profile.txt" | sort -t: -k1,1 -k2,2n >"$out/zero.raw"

# Name methods by receiver: one file may hold several String methods.
while IFS="$(printf '\t')" read -r at fn; do
	recv=$(sed -n "${at##*:}s/^func (\([A-Za-z0-9_]* \)\{0,1\}\*\{0,1\}\([A-Za-z0-9_]*\).*/\2./p" "${at%:*}")
	printf '%s\t%s%s\n' "$at" "$recv" "$fn"
done <"$out/zero.raw" >"$out/zero.txt"
echo "functions under internal/ that no entry point runs: $(wc -l <"$out/zero.txt")"
cat "$out/zero.txt"

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

[ -n "$allow" ] || exit 0
# Allowlist lines are "file function class why...", keyed by file and
# function so that edits elsewhere in a file do not move them.
echo
awk -v allow="$allow" '
	FILENAME == allow {
		if ($0 ~ /^[ \t]*(#|$)/) next
		k = $1 " " $2
		if (k in listed) { print allow ":" FNR ": " k " is listed twice"; bad++ }
		listed[k] = FNR; order[++n] = k
		if ($3 !~ /^(test-surface|safety|fake|roadmap-[0-9]+)$/ || NF < 4) {
			print allow ":" FNR ": " k ": want a class (test-surface, safety, fake, roadmap-N) and a reason"
			bad++
		}
		next
	}
	{
		sub(/:[0-9]+$/, "", $1); k = $1 " " $2; unreached[k] = 1
		if (!(k in listed)) { print "unreached and not allowlisted: " k; bad++ }
	}
	END {
		for (i = 1; i <= n; i++)
			if (!(order[i] in unreached)) {
				print allow ":" listed[order[i]] ": " order[i] " is reached (or gone): drop its line"
				bad++
			}
		if (bad) { print "traffic-cover: " bad " allowlist problem(s)"; exit 1 }
		print "traffic-cover: every unreached function is allowlisted"
	}' "$allow" "$out/zero.txt"
