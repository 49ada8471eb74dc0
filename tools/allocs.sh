#!/bin/sh
# Where one command allocates, children included:
#
#     tools/allocs.sh [-e every] <command ...>
#
# Builds tools/allocs.c with the container's gcc into a temporary
# directory and runs the command with it preloaded: every malloc, calloc
# and realloc of every process is counted, and one call in `every`
# (default 8) keeps its frame-pointer stack and size. Then
# tools/symbolize.awk prints, after the command's own output, the calls
# each process made (exact counts) and the kept calls by call site — the
# innermost function outside the allocator and Rust's `alloc` /
# `hashbrown` — by count and by bytes.
#
# Stacks are only found in code built with frame pointers:
#
#     RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release ...
#
# (into its own CARGO_TARGET_DIR, or the flag rebuilds everything twice).
# The counts need no such build. Nothing in crates/ knows this exists.
set -eu

usage() {
    echo "usage: $0 [-e every] <command ...>" >&2
    exit 2
}
every=8
if [ "${1:-}" = "-e" ]; then
    every=${2:-}
    case $every in '' | *[!0-9]* | 0) usage ;; esac
    shift 2
fi
[ $# -gt 0 ] || usage

here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
gcc -O2 -fno-omit-frame-pointer -shared -fPIC -DALLOCS_EVERY="$every" \
    -DALLOCS_OUT="\"$tmp/dump\"" -o "$tmp/allocs.so" "$here/allocs.c"

status=0
LD_PRELOAD="$tmp/allocs.so" "$@" || status=$?

echo
set -- "$tmp"/dump.*
[ -e "$1" ] || { echo "allocs: no process wrote a dump (did it leave through _exit or a signal?)"; exit "$status"; }
awk -v mode=allocs -v every="$every" -f "$here/symbolize.awk" "$@" | cut -f2-
exit "$status"
