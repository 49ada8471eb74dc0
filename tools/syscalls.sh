#!/bin/sh
# How many system calls a command makes, children included:
#
#     tools/syscalls.sh <command ...>
#
# Builds tools/syscalls.c with the container's gcc into a temporary
# directory and runs the command with it preloaded: every process counts
# its sendto, recvfrom, ppoll, mprotect, madvise and write calls and its
# futex system calls exactly. After the command's own output comes one row per
# process — its command line shortened to the program's name and two
# arguments — and, for a benchmark child that reported the ops it timed,
# a second row of the same calls per op. The last row is those per-op
# rates over all such children together (total calls / total ops).
# Needs no special build. Nothing in crates/ knows this exists.
set -eu

[ $# -gt 0 ] || { echo "usage: $0 <command ...>" >&2; exit 2; }

here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
gcc -O2 -shared -fPIC -DSYSCALLS_OUT="\"$tmp/dump\"" -o "$tmp/syscalls.so" \
    "$here/syscalls.c" -ldl

status=0
LD_PRELOAD="$tmp/syscalls.so" "$@" || status=$?

echo
set -- "$tmp"/dump.*
[ -e "$1" ] || { echo "syscalls: no process wrote a dump (did it leave through _exit or a signal?)"; exit "$status"; }
awk '
    FNR == 1 { row++ }
    $1 == "pid" { pid[row] = $2 }
    $1 == "cmd" { split($0, w, " "); sub(/.*\//, "", w[2]); cmd[row] = w[2] " " w[3] " " w[4] }
    $1 == "ops" { ops[row] = $2 }
    $1 == "calls" {
        if (!($2 in col)) { col[$2] = ++ncol; name[ncol] = $2 }
        calls[row, col[$2]] = $3
    }
    END {
        printf "%-8s %-32s %10s", "pid", "process", "ops"
        for (c = 1; c <= ncol; c++) printf " %10s", name[c]
        printf "\n"
        for (r = 1; r <= row; r++) {
            printf "%-8s %-32s %10s", pid[r], cmd[r], (r in ops) ? ops[r] : "-"
            for (c = 1; c <= ncol; c++) printf " %10d", calls[r, c]
            printf "\n"
            if (!(r in ops) || ops[r] == 0) continue
            printf "%-8s %-32s %10s", "", "  per op", ""
            for (c = 1; c <= ncol; c++) {
                printf " %10.2f", calls[r, c] / ops[r]
                sum[c] += calls[r, c]
            }
            printf "\n"
            all += ops[r]
        }
        if (all == 0) exit
        printf "%-8s %-32s %10d", "all", "children that reported ops", all
        for (c = 1; c <= ncol; c++) printf " %10.2f", sum[c] / all
        printf "\n"
    }' "$@"
exit "$status"
