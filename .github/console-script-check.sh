#!/bin/sh
# Runs the installed `improperdim` console script from a temporary directory:
# simulate, every detector on LF, CRLF and lone-CR copies of one dataset, and
# a pooled montecarlo against a one-CPU run. Run it after `pip install .`.
set -e
cd "$(mktemp -d)"
printf '%s\n' "m = 6" "angles_deg = 40" "source_variances = 5" \
  "source_circularities = 0.9" "noise_kind = white" "noise_variance = 1" \
  "M = 300" "seed = 1" > small.cfg
improperdim simulate small.cfg -o small.txt || exit 1
# a line ends at \n, \r\n or \r: CRLF and lone-CR copies give the LF report
sed 's/$/\r/' small.txt > small-crlf.txt
tr '\n' '\r' < small.txt > small-cr.txt
for detector in itc-full itc-rr glrt-full glrt-rr; do
  improperdim detect small.txt --detector "$detector" > report-lf.txt || exit 1
  cat report-lf.txt
  for copy in small-crlf.txt small-cr.txt; do
    improperdim detect "$copy" --detector "$detector" > report-copy.txt || exit 1
    cmp report-lf.txt report-copy.txt || exit 1
  done
done
# a plan takes the config's keys (its M is ignored); 16 (M, trial)
# tasks give the forked pool enough trials per worker to start
cp small.cfg small.plan
printf '%s\n' "trials = 16" "sample_counts = 300" "detectors = itc_rr, glrt_rr" \
  "pfa_list = 0.005" >> small.plan
improperdim montecarlo small.plan -o curve.csv || exit 1
test "$(head -n 1 curve.csv)" = "detector,p_fa,M,trials,p_detect,mean_selected_rank" || exit 1
# on one CPU the trials run in-process and give the same bytes
taskset -c 0 improperdim montecarlo small.plan -o curve-one-cpu.csv || exit 1
cmp curve.csv curve-one-cpu.csv || exit 1
