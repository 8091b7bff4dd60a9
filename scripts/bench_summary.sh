#!/bin/sh
# bench_summary.sh FILE... — append a compact machine-readable summary to
# each recorded benchmark file.
#
# The BENCH_*.json files are raw `go test -json` event streams: benchmark
# measurements are buried in "output" events as text lines. Trend tooling
# should not have to reassemble them, so this script distills one JSON
# line per benchmark name — the name as `go test` prints it, including
# the -N GOMAXPROCS suffix, so each -cpu setting is its own line — with
# the median, minimum and maximum over its runs (-count):
#
#   {"summary":"bench","benchmark":"BenchmarkPlanCheck-2","gomaxprocs":2,"runs":5,
#    "ns_per_op":30866,"ns_per_op_min":28505,"ns_per_op_max":31450,
#    "b_per_op":2784,"allocs_per_op":51,"allocs_per_op_min":51,"allocs_per_op_max":51}
#
# (one line in the file), preceded by one line recording the conditions:
#
#   {"summary":"conditions","num_cpu":2,"go_version":"go1.24.0","commit":"bb749ae","cpu":"..."}
#
# Both are appended to the stream (valid JSONL; consumers of the raw
# events skip them by Action being absent, consumers of the trend grep
# '"summary":"bench"'). Re-running is idempotent: prior summary lines are
# stripped before the refreshed ones are appended. A recorded before/after
# comparison keeps the parent commit's summary, measured on the same
# machine, as "baseline" and "baseline-conditions" lines, which this
# script leaves alone; a fresh `make bench-*` run replaces the file.
set -eu

if [ "$#" -eq 0 ]; then
    echo "usage: $0 BENCH_file.json..." >&2
    exit 2
fi

num_cpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
go_version=$(${GO:-go} env GOVERSION 2>/dev/null || echo unknown)
commit=$(git describe --always --dirty 2>/dev/null || echo unknown)

for f in "$@"; do
    [ -f "$f" ] || { echo "bench_summary: no such file: $f" >&2; exit 1; }
    tmp="$f.tmp"
    grep -v '"summary":"\(bench\|conditions\)"' "$f" > "$tmp" || true
    # A benchmark result arrives as two output events, the name as printed
    # (with its -N suffix when GOMAXPROCS != 1) and then the measurement:
    #   {"Action":"output","Test":"BenchmarkX","Output":"BenchmarkX-2 \t"}
    #   {"Action":"output","Test":"BenchmarkX","Output":"  3813\t 304855 ns/op\t 59355 B/op\t 556 allocs/op\n"}
    # (or as one event holding both). Unescape the \t separators and read
    # the value preceding each unit token. Extra units (custom
    # ReportMetric columns) pass through harmlessly; missing -benchmem
    # columns yield 0.
    awk -v num_cpu="$num_cpu" -v go_version="$go_version" -v commit="$commit" '
        function unescape(s) {
            sub(/.*"Output":"/, "", s)
            sub(/"}.*/, "", s)
            gsub(/\\t/, " ", s)
            gsub(/\\n/, " ", s)
            return s
        }
        # median/min/max of the space-separated values in s
        function stats(s,    v, n, i, j, t) {
            n = split(s, v, " ")
            for (i = 2; i <= n; i++) {
                t = v[i] + 0
                for (j = i - 1; j >= 1 && v[j] + 0 > t; j--) v[j+1] = v[j]
                v[j+1] = t
            }
            st_min = v[1]; st_max = v[n]
            st_med = (n % 2) ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
        }
        /"Action":"output"/ && /"Output":"cpu: / && cpu == "" {
            cpu = unescape($0)
            sub(/^cpu: /, "", cpu)
            sub(/ +$/, "", cpu)
        }
        /"Action":"output"/ && /"Output":"Benchmark/ {
            out = unescape($0)
            split(out, tok, /[ ]+/)
            name = tok[1]
        }
        /"Action":"output"/ && / ns\/op/ {
            out = unescape($0)
            n = split(out, tok, /[ ]+/)
            ns = b = allocs = ""
            for (i = 2; i <= n; i++) {
                if (tok[i] == "ns/op") ns = tok[i-1]
                else if (tok[i] == "B/op") b = tok[i-1]
                else if (tok[i] == "allocs/op") allocs = tok[i-1]
            }
            if (ns == "" || name == "") next
            if (b == "") b = 0
            if (allocs == "") allocs = 0
            if (!(name in runs)) order[++names] = name
            runs[name]++
            nsv[name] = nsv[name] " " ns
            bv[name] = bv[name] " " b
            av[name] = av[name] " " allocs
        }
        END {
            printf "{\"summary\":\"conditions\",\"num_cpu\":%d,\"go_version\":\"%s\",\"commit\":\"%s\",\"cpu\":\"%s\"}\n", num_cpu, go_version, commit, cpu
            for (k = 1; k <= names; k++) {
                nm = order[k]
                procs = 1
                if (match(nm, /-[0-9]+$/)) procs = substr(nm, RSTART + 1) + 0
                stats(nsv[nm]); ns_med = st_med; ns_min = st_min; ns_max = st_max
                stats(bv[nm]); b_med = st_med
                stats(av[nm]); a_med = st_med; a_min = st_min; a_max = st_max
                printf "{\"summary\":\"bench\",\"benchmark\":\"%s\",\"gomaxprocs\":%d,\"runs\":%d,\"ns_per_op\":%s,\"ns_per_op_min\":%s,\"ns_per_op_max\":%s,\"b_per_op\":%s,\"allocs_per_op\":%s,\"allocs_per_op_min\":%s,\"allocs_per_op_max\":%s}\n", nm, procs, runs[nm], ns_med, ns_min, ns_max, b_med, a_med, a_min, a_max
            }
        }
    ' "$tmp" >> "$tmp"
    mv "$tmp" "$f"
    grep -c '"summary":"bench"' "$f" | {
        read -r n
        echo "bench_summary: $f — $n benchmark(s) summarized"
    }
done
