# ab_reduce.jq — reduce the alternated base/head runs scripts/ab.sh made to one
# table and one verdict.
#
#   jq -s -r --slurpfile spec BENCHMARK.json -f scripts/ab_reduce.jq runs.jsonl
#
# Each input line is a benchmark run's final JSON object tagged with "side"
# ("base" or "head"), "workload" and "seed"; a pair is the two sides of one
# (workload, seed). Per (workload, end-to-end metric) it prints both medians,
# their difference, the base's own inter-quartile spread, pairs the head won
# and lost, the BENCHMARK.json bound and a verdict; then failed ops per
# workload. A row FAILs when the head's median is worse than the base's by more
# than the bound and the head loses a majority of pairs, or when a larger share
# of the head's ops failed. Only the workloads in `gating` can fail the run:
# the others' spread on a shared host is not characterised, so they report. On
# failure the failing rows go to stderr as "workload metric" and jq exits 1.

def gating: ["dense_1t", "sparse_1t", "mesh64", "frontend_cold"];

# Quartiles as Python's statistics.quantiles(values, n=4) and benchmark/ give them.
def quantile($q):
  sort as $s | ($s | length) as $n | ($q * ($n + 1)) as $p | ($p | floor) as $j
  | if $j < 1 then $s[0] elif $j >= $n then $s[$n - 1]
    else $s[$j - 1] + ($p - $j) * ($s[$j] - $s[$j - 1]) end;
def sig4: if . == 0 then "0" else pow(10; 3 - (fabs | log10 | floor)) as $k | (. * $k | round) / $k | tostring end;
def pct: (. * 1000 | round) / 10 | tostring + "%";
def signed: pct | if . == "0%" or . == "-0%" then "0%" elif startswith("-") then . else "+" + . end;
def rpad($n): tostring | . + (" " * ([$n - length, 1] | max));
def lpad($n): tostring | (" " * ([$n - length, 1] | max)) + .;

. as $runs | $spec[0] as $spec
| [ $spec.workloads[].name as $w
    | ($runs | map(select(.workload == $w))) as $of
    | ($of | map(select(.side == "base"))) as $base
    | ($of | map(select(.side == "head"))) as $head
    | select(($base | length) > 0 and ($head | length) > 0)
    | (gating | index($w) != null) as $gates
    | ( $spec.end_to_end[] as $m
        | (if $m.better == "higher" then -1 else 1 end) as $sign   # $sign * (head - base) > 0 is worse
        | ($base | map(.metrics[$m.name].value)) as $b
        | ($head | map(.metrics[$m.name].value)) as $h
        | [ $base[] | . as $r | ($head[] | select(.seed == $r.seed)) as $o
            | $sign * ($o.metrics[$m.name].value - $r.metrics[$m.name].value) ] as $pairs
        | ($b | quantile(0.5)) as $bm | ($h | quantile(0.5)) as $hm
        | ((($b | quantile(0.75)) - ($b | quantile(0.25))) / $bm) as $iqr
        | ($pairs | map(select(. < 0)) | length) as $won
        | ($pairs | map(select(. > 0)) | length) as $lost
        | ($sign * ($hm - $bm) / $bm > $m.bound and 2 * $lost > ($pairs | length)) as $worse
        | { workload: $w, row: $m.name, fail: ($gates and $worse),
            cells: [ ($bm | sig4), ($hm | sig4), (($hm - $bm) / $bm | signed), ($iqr | pct), "\($won)/\($lost)",
                     ($m.bound | pct),
                     ( if $worse then (if $gates then "FAIL" else "worse (report only)" end)
                       elif $iqr > $m.bound then "unresolved (base spread > bound)"
                       else "ok" end ) ] } ),
      ( ($base | map(.failed) | add) as $bf | ($base | map(.attempted) | add) as $ba
        | ($head | map(.failed) | add) as $hf | ($head | map(.attempted) | add) as $ha
        | ($hf * $ba > $bf * $ha) as $more
        | { workload: $w, row: "failed ops", fail: ($gates and $more),
            cells: [ "\($bf)/\($ba)", "\($hf)/\($ha)", "", "", "", "",
                     (if $more then (if $gates then "FAIL" else "more (report only)" end) else "ok" end) ] } )
  ] as $rows
| ( {workload: "workload", row: "metric",
      cells: ["base median", "head median", "diff", "base iqr", "won/lost", "bound", "verdict"]}, $rows[]
    | (.workload | rpad(14)) + (.row | rpad(16))
      + ([.cells[0:6], [12, 12, 8, 9, 9, 6]] | transpose | map(.[1] as $n | .[0] | lpad($n)) | join("")) + "  " + .cells[6] ),
  ( $rows | map(select(.fail) | "\(.workload) \(.row)") | select(length > 0)
    | "FAIL: " + join(", ") + "\n" | halt_error(1) )
