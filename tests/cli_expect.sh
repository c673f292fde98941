#!/bin/sh
# Runs a command-line tool and checks its exit status and output:
#
#   cli_expect.sh <status> <count>:<regex>... -- <command> [args...]
#
# Passes iff <command> exits with <status> and, for each <count>:<regex>
# pair, exactly <count> lines of its standard output match the extended
# regular expression <regex>.  The output is echoed first, so a failing
# CTest log shows it.
set -u
want_status=$1
shift
specs=
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  specs="$specs$1
"
  shift
done
if [ $# -eq 0 ]; then
  echo "cli_expect.sh: missing '--' before the command" >&2
  exit 2
fi
shift
out=$("$@")
status=$?
printf '%s\n' "$out"
if [ "$status" -ne "$want_status" ]; then
  echo "cli_expect.sh: exit status $status, expected $want_status" >&2
  exit 1
fi
printf '%s' "$specs" | while IFS= read -r spec; do
  want=${spec%%:*}
  pattern=${spec#*:}
  got=$(printf '%s\n' "$out" | grep -Ec -- "$pattern")
  if [ "$got" -ne "$want" ]; then
    echo "cli_expect.sh: $got line(s) match '$pattern', expected $want" >&2
    exit 1
  fi
done
