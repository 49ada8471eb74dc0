#!/bin/sh
# A sampling profile of one command, children included:
#
#     tools/prof.sh [-i usec] <command ...>
#
# Builds tools/prof.c with the container's gcc into a temporary
# directory, runs the command with it preloaded (a SIGPROF every `usec`
# microseconds, default 1000, kept if it was running, on each process's main
# thread; the stack is walked by frame pointer), then resolves the raw
# addresses through `readelf -lW` and `nm -C` and prints two tables over
# all processes: samples by the function running (self), and by every
# function on the stack (inclusive). The command's own output comes
# first, untouched.
#
# Frames are only found in code built with frame pointers:
#
#     RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release ...
#
# (into its own CARGO_TARGET_DIR, or the flag rebuilds everything twice).
# A function that keeps none — most of libc — appears as a leaf under
# whatever its caller's caller was. Nothing in crates/ knows this exists.
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

# Per mapped file: its PT_LOAD segments ("seg file offset vaddr filesz")
# and its symbols by address ("sym file vaddr size name"), dynamic ones too.
cat "$tmp"/samples.* 2>/dev/null | awk '$1 == "map" && $3 ~ /x/ && $7 ~ /^\// { print $7 }' |
    sort -u | while read -r file; do
    [ -r "$file" ] || continue
    readelf -lW "$file" | awk -v f="$file" '$1 == "LOAD" { print "seg", f, $2, $3, $5 }'
    { nm -CS --defined-only "$file" 2>/dev/null; nm -DCS --defined-only "$file" 2>/dev/null; } |
        awk -v f="$file" '
            $2 ~ /^[tTwWiu]$/ { $2 = "0 " $2 } # no size: hand-written assembly
            $3 ~ /^[tTwWiu]$/ { a = $1; z = $2; $1 = $2 = $3 = ""; sub(/^ +/, ""); print "sym", f, a, z, $0 }' |
        sort -u -k3,3
done >"$tmp/tables"

echo
cat "$tmp/tables" "$tmp"/samples.* 2>/dev/null | awk -v usec="$usec" '
    function hex(s,    i, n) {
        s = tolower(s); sub(/^0x/, "", s); n = 0
        for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    # The symbol of `file` that holds `vaddr`, by binary search over
    # addr[file, 1..nsym[file]]; the file itself where none does (a
    # stripped library keeps only the symbols it exports).
    function symbol(file, vaddr,    lo, hi, mid) {
        lo = 1; hi = nsym[file]
        while (lo < hi) {
            mid = int((lo + hi + 1) / 2)
            if (addr[file, mid] <= vaddr) lo = mid; else hi = mid - 1
        }
        if (hi == 0 || vaddr < addr[file, lo] || (size[file, lo] && vaddr >= addr[file, lo] + size[file, lo]))
            return "[" file "]"
        return name[file, lo]
    }
    # The function holding address `at` (hex, this process) less `back`.
    # Cached by the strings: awk may index by a rounded form of a large number.
    function resolve(at, back,    pc, m, file, off, s) {
        if ((at, back) in cache) return cache[at, back]
        pc = hex(at) - back
        for (m = 1; m <= nmap; m++) if (pc >= mlo[m] && pc < mhi[m]) {
            file = mfile[m]; off = pc - mlo[m] + moff[m]
            for (s = 1; s <= nseg[file]; s++)
                if (off >= soff[file, s] && off < soff[file, s] + ssz[file, s])
                    return cache[at, back] = symbol(file, off - soff[file, s] + sva[file, s])
        }
        return cache[at, back] = "[unmapped]"
    }
    $1 == "seg" { s = ++nseg[$2]; soff[$2, s] = hex($3); sva[$2, s] = hex($4); ssz[$2, s] = hex($5); next }
    $1 == "sym" {
        f = $2; a = hex($3); z = hex($4); $1 = $2 = $3 = $4 = ""; sub(/^ +/, "")
        if (nsym[f] && addr[f, nsym[f]] == a) next
        n = ++nsym[f]; addr[f, n] = a; size[f, n] = z; name[f, n] = $0; next
    }
    # A new process: its maps come before its samples, and its addresses are its own.
    $1 == "map" {
        if (insamples) { nmap = 0; insamples = 0; split("", cache) }
        if ($3 !~ /x/ || $7 !~ /^\//) next
        split($2, r, "-"); m = ++nmap
        mlo[m] = hex(r[1]); mhi[m] = hex(r[2]); moff[m] = hex($4); mfile[m] = $7; next
    }
    $1 == "sample" {
        insamples = 1; total++
        split("", seen)
        for (i = 2; i <= NF; i++) {
            # A return address points after the call: look up the call itself.
            fn = resolve($i, i > 2)
            if (i == 2) self[fn]++
            if (!(fn in seen)) { seen[fn] = 1; incl[fn]++ }
        }
    }
    function table(title, count,    fn, cmd) {
        printf "%s (%d samples, one per %d us)\n", title, total, usec
        cmd = "sort -t\"\t\" -k1,1nr | head -40"
        for (fn in count) printf "%d\t%6.1f %%  %s\n", count[fn], 100 * count[fn] / total, fn | cmd
        close(cmd)
        print ""
    }
    END {
        if (!total) { print "prof: no samples (the command ran for less than an interval, or left through _exit or a signal)"; exit }
        table("self", self)
        table("inclusive", incl)
    }' | cut -f2-
exit "$status"
