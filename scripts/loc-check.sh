#!/usr/bin/env bash
# Line budget: every package's non-test Go lines (wc -l, comments and
# blanks included, as `make loc` counts them) must stay at or below its
# ceiling in scripts/loc-budget.txt. Run from the root of a checkout:
#
#   bash scripts/loc-check.sh            # make loc-check
#   UPDATE=1 bash scripts/loc-check.sh   # make loc-check UPDATE=1
#
# It counts tracked and untracked, not ignored, files, so a new file is
# held before it is added. Each package above its ceiling, or with none,
# is printed with its count and the check fails. UPDATE=1 lowers every
# ceiling to its package's count and never raises one, and drops the
# ceilings of packages that are gone; a raise, or a ceiling for a new
# package, is a hand edit of the file.
set -euo pipefail

budget=scripts/loc-budget.txt
counts=$(git ls-files --cached --others --exclude-standard -- '*.go' ':!:*_test.go' | xargs wc -l |
	awk '$2 != "total" { d = $2; if (!sub("/[^/]*$", "", d)) d = "."; n[d] += $1 }
		END { for (d in n) print d, n[d] }' | sort)

awk -v update="${UPDATE:-}" -v out="$budget.new" '
	FNR == NR {
		if ($0 !~ /^#/ && NF == 2) ceil[$1] = $2
		next
	}
	{
		now = $2
		if (!($1 in ceil)) {
			printf "%s: %d non-test lines and no ceiling in '"$budget"'\n", $1, now
			bad = 1
			next
		}
		if (now > ceil[$1]) {
			printf "%s: %d non-test lines, above its ceiling of %d by %d\n", $1, now, ceil[$1], now - ceil[$1]
			bad = 1
		} else if (update != "") {
			ceil[$1] = now
		}
		kept[$1] = ceil[$1]
	}
	END {
		if (update != "") {
			printf "" > out
			for (p in kept) printf "%s %d\n", p, kept[p] > out
		}
		exit bad
	}' "$budget" - <<<"$counts" && status=0 || status=$?

if [ -n "${UPDATE:-}" ]; then
	{ grep '^#' "$budget"; sort "$budget.new"; } >"$budget.tmp"
	mv "$budget.tmp" "$budget"
	rm -f "$budget.new"
fi
exit "$status"
