#!/bin/sh
# Command-line contract of every binary: bad input exits 2 with a
# diagnostic on stderr, never with a signal (abort, segfault) and never
# with a silent failure.
#
# usage: cli_contract.sh RC_SIM RC_FUZZ RC_TRACE RC_STATE RC_DSE \
#                        BENCH_MICRO_ROUTER BENCH...
#
# Each tool gets an unknown flag, --help, and a non-numeric value for a
# numeric flag (tools without numeric flags get a missing input file
# instead); bench_micro_router gets an unknown flag, and every other bench
# binary (the bench_util.hpp harnesses) a non-numeric RC_MEASURE_CYCLES.
set -u
if [ $# -lt 7 ]; then
  echo "usage: $0 RC_SIM RC_FUZZ RC_TRACE RC_STATE RC_DSE" \
       "BENCH_MICRO_ROUTER BENCH..." >&2
  exit 2
fi
sim=$1 fuzz=$2 trace=$3 state=$4 dse=$5 micro=$6
shift 6
missing=cli_contract_no_such_file
failures=0

# expect2 LABEL COMMAND...: COMMAND must exit 2 and write to stderr.
expect2() {
  label=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -gt 128 ]; then
    echo "FAIL $label: killed by signal $((rc - 128))"
  elif [ "$rc" -ne 2 ]; then
    echo "FAIL $label: exit $rc, want 2"
  elif [ -z "$err" ]; then
    echo "FAIL $label: exit 2 but no diagnostic on stderr"
  else
    echo "ok   $label"
    return
  fi
  failures=$((failures + 1))
}

expect2 "rc-sim --bogus"              "$sim" --bogus
expect2 "rc-sim --help"               "$sim" --help
expect2 "rc-sim --cores abc"          "$sim" --cores abc
expect2 "rc-fuzz --bogus"             "$fuzz" --bogus
expect2 "rc-fuzz --help"              "$fuzz" --help
expect2 "rc-fuzz --configs abc"       "$fuzz" --configs abc
expect2 "rc-trace --bogus"            "$trace" --bogus
expect2 "rc-trace --help"             "$trace" --help
expect2 "rc-trace summarize missing"  "$trace" summarize "$missing"
expect2 "rc-state --bogus"            "$state" --bogus
expect2 "rc-state --help"             "$state" --help
expect2 "rc-state missing"            "$state" "$missing"
expect2 "rc-dse --bogus"              "$dse" --bogus
expect2 "rc-dse --help"               "$dse" --help
expect2 "rc-dse --jobs abc"           "$dse" --spec "$missing" --out "$missing" --jobs abc
expect2 "bench_micro_router --bogus"  "$micro" --bogus
for bench in "$@"; do
  expect2 "$(basename "$bench") RC_MEASURE_CYCLES=garbage" \
          env RC_MEASURE_CYCLES=garbage "$bench"
done

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI contract violation(s)"
  exit 1
fi
