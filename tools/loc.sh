#!/bin/sh
# Non-test lines of Rust under crates/*/src, per crate and in total: the
# number every simplicity PR quotes. A file counts up to its
# `#[cfg(test)]` *module* (the attribute line directly above a
# `mod name {` line, or `#![cfg(test)]` making the whole file one); a
# `#[cfg(test)]` on a single fn or use inside live code does not end
# the count. Run from anywhere; plain awk, no dependencies.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { flush(); crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate) }
    done { next }
    held != "" {
        if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+ *\{/) { done = 1; held = ""; next }
        n[crate]++; held = ""
    }
    /^#!\[cfg\(test\)\]/ { done = 1; next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = $0; next }
    { n[crate]++ }
    function flush() { if (held != "") n[crate]++; held = ""; done = 0 }
    END {
        flush()
        for (c in n) total += n[c]
        for (c in n) printf "%-8s %6d\n", c, n[c] | "sort"
        close("sort")
        printf "%-8s %6d\n", "total", total
    }'
