#!/bin/sh
# The app table sweep: `dsmrun --app A --proto P --nodes N` for every app
# and every protocol `dsmrun --list` names, at 3 and 8 nodes and the
# apps' default sizes. A run either verifies (exit 0) or is refused with
# its protocol row's reason (exit 2). A MISMATCH (exit 1) or any other
# exit fails the sweep, naming the app, protocol and node count.
#
#   tools/app_sweep.sh target/release/dsmrun
set -u
dsmrun=${1:?usage: tools/app_sweep.sh <dsmrun>}
list=$("$dsmrun" --list) || exit 1
apps=$(printf '%s\n' "$list" | sed -n 's/^apps: *//p')
protos=$(printf '%s\n' "$list" | sed -n 's/^protocols: *//p')
runs=0 refused=0 failed=0
for n in 3 8; do
    for proto in $protos; do
        for app in $apps; do
            "$dsmrun" --app "$app" --proto "$proto" --nodes "$n" >/dev/null 2>&1
            code=$?
            runs=$((runs + 1))
            case $code in
            0) ;;
            2) refused=$((refused + 1)) ;;
            *)
                echo "FAILED (exit $code): --app $app --proto $proto --nodes $n"
                failed=$((failed + 1))
                ;;
            esac
        done
    done
done
echo "app sweep: $runs runs, $refused refused by their row, $failed failed"
[ "$failed" -eq 0 ]
