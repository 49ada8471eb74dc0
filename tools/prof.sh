#!/bin/sh
# A sampling profile of one command, children included:
#
#     tools/prof.sh [-i usec] <command ...>
#
# Builds tools/prof.c with the container's gcc into a temporary
# directory, runs the command with it preloaded (a SIGPROF every `usec`
# microseconds, default 1000, kept if it was running, on each process's main
# thread; the stack is walked by frame pointer), then tools/symbolize.awk
# resolves the raw addresses through `readelf -lW` and `nm -C` and prints
# two tables over all processes: samples by the function running (self),
# and by every function on the stack (inclusive). The command's own
# output comes first, untouched.
#
# Frames are only found in code built with frame pointers:
#
#     RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release ...
#
# (into its own CARGO_TARGET_DIR, or the flag rebuilds everything twice).
# A function that keeps none — most of libc — is charged to the caller
# whose return address sits at the stack pointer, where a leaf that has
# pushed nothing leaves it. Nothing in crates/ knows this exists.
set -eu

usage() {
    echo "usage: $0 [-i usec] <command ...>" >&2
    exit 2
}
usec=1000
if [ "${1:-}" = "-i" ]; then
    usec=${2:-}
    case $usec in '' | *[!0-9]* | 0) usage ;; esac
    shift 2
fi
[ $# -gt 0 ] || usage

here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
gcc -O2 -shared -fPIC -DPROF_USEC="$usec" -DPROF_OUT="\"$tmp/samples\"" \
    -o "$tmp/prof.so" "$here/prof.c"

status=0
LD_PRELOAD="$tmp/prof.so" "$@" || status=$?

echo
set -- "$tmp"/samples.*
[ -e "$1" ] || { echo "prof: no process wrote samples (did it leave through _exit or a signal?)"; exit "$status"; }
awk -v mode=prof -v usec="$usec" -f "$here/symbolize.awk" "$@" | cut -f2-
exit "$status"
