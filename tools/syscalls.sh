#!/bin/sh
# How many system calls a command makes, children included, and by
# which threads:
#
#     tools/syscalls.sh <command ...>
#
# Builds tools/syscalls.c with the container's gcc into a temporary
# directory and runs the command with it preloaded: every process counts
# its sendto, recvfrom, ppoll, mprotect, madvise and write calls and its
# futex waits and wakes exactly, each apart for its main thread (`main`:
# a cluster node's program) and its other threads (`rest`: the node's
# serving thread), and reads getrusage's user and system microseconds
# and voluntary context switches for both. After the command's own
# output come two rows per process — its command line shortened to the
# program's name and two arguments — and, for a benchmark child that
# reported the ops it timed, two more of the same per op. The last two
# rows are those per-op rates over all such children together (total /
# total ops). Needs no special build. Nothing in crates/ knows this
# exists.
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
    $1 == "calls" || $1 == "usage" {
        if (!($2 in col)) { col[$2] = ++ncol; name[ncol] = $2 }
        n[row, 1, col[$2]] = $3
        n[row, 2, col[$2]] = $4
    }
    # One row: of process r (0: the per-op rates in `per`), thread t.
    function line(p, what, thread, o, r, t,    c) {
        printf "%-8s %-32s %-5s %10s", p, what, thread, o
        for (c = 1; c <= ncol; c++) {
            if (r) printf " %10d", n[r, t, c]
            else printf " %10.2f", per[t, c]
        }
        printf "\n"
    }
    END {
        split("main rest", thread, " ")
        printf "%-8s %-32s %-5s %10s", "pid", "process", "of", "ops"
        for (c = 1; c <= ncol; c++) printf " %10s", name[c]
        printf "\n"
        for (r = 1; r <= row; r++) {
            for (t = 1; t <= 2; t++)
                line(t == 1 ? pid[r] : "", t == 1 ? cmd[r] : "", thread[t], (r in ops) ? ops[r] : "-", r, t)
            if (!(r in ops) || ops[r] == 0) continue
            for (t = 1; t <= 2; t++) {
                for (c = 1; c <= ncol; c++) {
                    per[t, c] = n[r, t, c] / ops[r]
                    sum[t, c] += n[r, t, c]
                }
                line("", "  per op", thread[t], "", 0, t)
            }
            all += ops[r]
        }
        if (all == 0) exit
        for (t = 1; t <= 2; t++) {
            for (c = 1; c <= ncol; c++) per[t, c] = sum[t, c] / all
            line(t == 1 ? "all" : "", t == 1 ? "children that reported ops" : "", thread[t], t == 1 ? all : "", 0, t)
        }
    }' "$@"
exit "$status"
