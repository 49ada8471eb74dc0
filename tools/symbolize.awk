# Symbolizes the per-process dumps of tools/prof.c and tools/allocs.c and
# prints their tables; tools/prof.sh and tools/allocs.sh run it:
#
#     awk -v mode=prof -v usec=1000 -f tools/symbolize.awk DUMP...
#     awk -v mode=allocs -v every=8 -f tools/symbolize.awk DUMP...
#
# A dump is one process: a copy of its /proc/self/maps as `map` lines,
# then one `sample` line per kept stack, innermost address first. For an
# executable file a map names, the segments come from `readelf -lW` and
# the symbols from `nm -C` (dynamic ones too), read once per file; a
# stripped library resolves to its exported names or to the file itself.
#
# prof: `sample RIP @WORD RET...` — the interrupted instruction, the word
# at the stack pointer, then the frame-pointer chain's return addresses,
# or, where there was no chain, `~WORD...`: the stack words above.
# A frameless leaf (most of libc) leaves its return address at the stack
# pointer and its caller's caller at the top of the chain, so the word
# stands in for the missing caller when it points into executable code
# of another file than the interrupted instruction. Prints samples by
# the function running (self) and by every function on the stack
# (inclusive). A self row of a function no symbol names (unexported
# libc: its copy routines, malloc's internals) is split by its caller
# outside that function's file, `libc ← caller`: the first such frame,
# else the first scanned stack word that points into another file's code
# (the return address past the library's frames, unless a stale word
# comes first).
#
# allocs: `calls M C R` (every malloc / calloc / realloc the process
# made) and `asked BM BC BR` (the bytes they asked for), then for one
# call in `every` a `bytes N` line and `sample RET...` from the
# allocator's caller outwards. Prints the per-process totals, then the
# sampled calls by call site — the innermost frame outside the
# allocator, Rust's `alloc` / `hashbrown` and `core::ptr` — by count and
# by bytes.

function hex(s,    i, n) {
    s = tolower(s); sub(/^0x/, "", s); n = 0
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}

# Segments (file offset, vaddr, size) and symbols (vaddr, size, name —
# ascending, by binary search below) of `file`, read once.
function load(file,    cmd, line, f, s, n, a, z, name) {
    if (file in loaded) return
    loaded[file] = 1
    cmd = "readelf -lW '" file "' 2>/dev/null"
    while ((cmd | getline line) > 0) {
        split(line, f, " ")
        if (f[1] != "LOAD") continue
        s = ++nseg[file]; soff[file, s] = hex(f[2]); sva[file, s] = hex(f[3]); ssz[file, s] = hex(f[5])
    }
    close(cmd)
    cmd = "{ nm -CS --defined-only '" file "'; nm -DCS --defined-only '" file "'; } 2>/dev/null | LC_ALL=C sort -u -k1,1"
    while ((cmd | getline line) > 0) {
        split(line, f, " ")
        name = line
        if (f[2] ~ /^[tTwWiu]$/) { # no size: hand-written assembly
            a = f[1]; z = "0"; sub(/^ *[^ ]+ +[^ ]+ +/, "", name)
        } else if (f[3] ~ /^[tTwWiu]$/) {
            a = f[1]; z = f[2]; sub(/^ *[^ ]+ +[^ ]+ +[^ ]+ +/, "", name)
        } else continue
        a = hex(a)
        if (nsym[file] && addr[file, nsym[file]] == a) continue
        n = ++nsym[file]; addr[file, n] = a; size[file, n] = hex(z); sname[file, n] = name
    }
    close(cmd)
}

# The symbol of `file` that holds `vaddr`; the file itself where none
# does (a stripped library keeps only the symbols it exports).
function symbol(file, vaddr,    lo, hi, mid) {
    lo = 1; hi = nsym[file]
    while (lo < hi) {
        mid = int((lo + hi + 1) / 2)
        if (addr[file, mid] <= vaddr) lo = mid; else hi = mid - 1
    }
    if (hi == 0 || vaddr < addr[file, lo] || (size[file, lo] && vaddr >= addr[file, lo] + size[file, lo]))
        return "[" file "]"
    return sname[file, lo]
}

# The executable mapping of this process holding address `pc`, or 0.
function mapping(pc,    m) {
    for (m = 1; m <= nmap; m++) if (pc >= mlo[m] && pc < mhi[m]) return m
    return 0
}

# The function holding address `at` (hex, this process) less `back`.
# Cached by the strings: awk may index by a rounded form of a large number.
function resolve(at, back,    pc, m, file, off, s) {
    if ((at, back) in cache) return cache[at, back]
    pc = hex(at) - back
    if (m = mapping(pc)) {
        file = mfile[m]; off = pc - mlo[m] + moff[m]
        for (s = 1; s <= nseg[file]; s++)
            if (off >= soff[file, s] && off < soff[file, s] + ssz[file, s])
                return cache[at, back] = symbol(file, off - soff[file, s] + sva[file, s])
    }
    return cache[at, back] = "[unmapped]"
}

# Rows `count[fn]` under `title`, largest first, with their shares of
# `all`. (The first column is the sort key; the scripts cut it.)
function table(title, count, all,    fn, cmd) {
    print title
    cmd = "sort -t\"\t\" -k1,1nr | head -40"
    for (fn in count)
        printf "%.0f\t%10.0f %6.1f %%  %s\n", count[fn], count[fn], all ? 100 * count[fn] / all : 0, fn | cmd
    close(cmd)
    print ""
}

BEGIN {
    # What a call site is not: the allocator and the library code that
    # only passes a request on.
    passes_on = "^(\\[|malloc|calloc|realloc|__rdl_|__rust_|_?alloc::|<alloc::|<[^>]* as alloc::|hashbrown::|<hashbrown::|core::ptr::|<core::ptr::)"
}

# A new process: its maps come before its samples, and its addresses are its own.
FNR == 1 { nmap = 0; split("", cache); proc = FILENAME; sub(/.*\./, "", proc); procs[proc] = 1 }

$1 == "map" {
    if ($3 !~ /x/ || $7 !~ /^\//) next
    split($2, r, "-"); m = ++nmap
    mlo[m] = hex(r[1]); mhi[m] = hex(r[2]); moff[m] = hex($4); mfile[m] = $7
    load($7)
    next
}

$1 == "calls" { calls[proc] = sprintf("%10.0f %10.0f %10.0f", $2, $3, $4); next }
$1 == "asked" { asked[proc] = $2 + $3 + $4; next }
$1 == "bytes" { weight = $2; next }

$1 == "sample" && mode == "prof" {
    total++
    split("", seen)
    k = 0
    at = mapping(hex($2)); home = at ? mfile[at] : ""
    scan = ""
    for (i = 2; i <= NF; i++) {
        if ($i ~ /^~/) {
            word = substr($i, 2)
            if (scan == "" && (at = mapping(hex(word))) && mfile[at] != home) scan = resolve(word, 1)
            continue
        }
        if ($i ~ /^@/) {
            word = substr($i, 2); at = mapping(hex(word))
            if (at && mfile[at] != home) { frames[++k] = resolve(word, 1); ffile[k] = mfile[at] }
            continue
        }
        # A return address points after the call: look up the call itself.
        at = mapping(hex($i) - (i > 2)); ffile[k + 1] = at ? mfile[at] : ""
        frames[++k] = resolve($i, i > 2)
    }
    top = frames[1]
    if (top ~ /^\[\//) {
        for (i = 2; i <= k && ffile[i] == home; i++) ;
        lib = home; sub(/.*\//, "", lib); sub(/\.so.*/, "", lib)
        top = lib " ← " (i <= k ? frames[i] : scan != "" ? scan : "[no caller outside it]")
    }
    self[top]++
    for (i = 1; i <= k; i++) if (!(frames[i] in seen)) { seen[frames[i]] = 1; incl[frames[i]]++ }
    next
}

$1 == "sample" && mode == "allocs" {
    total++; weighed += weight
    site = "[no frame outside the allocator]"
    for (i = 2; i <= NF; i++) {
        fn = resolve($i, 1)
        if (fn !~ passes_on) { site = fn; break }
    }
    by_count[site]++; by_bytes[site] += weight
    next
}

END {
    if (mode == "allocs") {
        print "calls per process (every one counted):"
        printf "%8s %10s %10s %10s %14s\n", "pid", "malloc", "calloc", "realloc", "bytes asked"
        for (p in procs) if (p in calls) printf "%8s %s %14.0f\n", p, calls[p], asked[p]
        print ""
        if (!total) { print "allocs: no sampled calls"; exit }
        table(sprintf("sampled calls by call site (%d samples, one call in %d)", total, every), by_count, total)
        table(sprintf("sampled bytes by call site (%.0f bytes)", weighed), by_bytes, weighed)
        exit
    }
    if (!total) { print "prof: no samples (the command ran for less than an interval, or left through _exit or a signal)"; exit }
    table(sprintf("self (%d samples, one per %d us)", total, usec), self, total)
    table(sprintf("inclusive (%d samples, one per %d us)", total, usec), incl, total)
}
