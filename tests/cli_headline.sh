#!/bin/sh
# Checks memlp_solve's report for an analog solver: the host wall time is
# printed, and the one modelled headline splits into an iterative part and a
# programming part whose energies sum to the --cost ledger TOTAL.
#
#   cli_headline.sh <memlp_solve> <problem.mps> [solver options...]
set -eu
solve=$1
problem=$2
shift 2
out=$("$solve" "$@" --cost "$problem")
printf '%s\n' "$out"

printf '%s\n' "$out" | grep -Eq '^wall: +[0-9.]+ s$' ||
  { echo "FAIL: no host wall time"; exit 1; }
split=$(printf '%s\n' "$out" | sed -n \
  's/.*est\. iterative \([0-9.]*\) ms \/ \([0-9.]*\) mJ + programming \([0-9.]*\) mJ$/\2 \3/p')
[ -n "$split" ] || { echo "FAIL: no split hardware headline"; exit 1; }
total=$(printf '%s\n' "$out" | sed -n 's/^cost check: ledger \([0-9.]*\) mJ.*/\1/p')
[ -n "$total" ] || { echo "FAIL: no cost ledger total"; exit 1; }
# Both headline terms print with 3 decimals, so their sum may be off by 1e-3.
echo "$split $total" | awk '{
  d = $1 + $2 - $3; if (d < 0) d = -d
  if (d > 1.5e-3) { printf "FAIL: %s + %s mJ != TOTAL %s mJ\n", $1, $2, $3; exit 1 }
  printf "headline %s + %s mJ = TOTAL %s mJ\n", $1, $2, $3 }'
