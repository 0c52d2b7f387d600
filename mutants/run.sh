#!/usr/bin/env bash
# Mutation matrix: how many one-hunk model bugs the test suite catches.
#
# Copies the working tree (tracked and untracked files, ignored ones left
# out) into a scratch directory, checks that every check below passes on
# the unmutated copy, then applies each `mutants/*.patch` in turn, runs
# every check against the mutant and reverts the patch. Writes the
# mutants × checks matrix to OUT, followed by each patch's first line,
# which says what the mutant breaks (or why it cannot break anything).
#
#   bash mutants/run.sh [OUT]     # from the repository root
#
# OUT defaults to MUTANTS.txt. The scratch directory is a fresh
# `mktemp -d`, removed at the end. Each check is one `cargo test`
# invocation on the debug profile; a check that fails, does not build or
# runs past 900 seconds kills the mutant. Fifteen mutants take about
# 4 minutes on 2 vCPUs, the scratch tree's first build included. CI runs
# the script and fails when a row differs from the committed MUTANTS.txt.
set -euo pipefail

out=${1:-MUTANTS.txt}
scratch=$(mktemp -d)
root=$(git rev-parse --show-toplevel)
tree="$scratch/tree"
logs="$scratch/logs"

# The correctness oracles check a property of the model; the change
# detectors pin its numbers, so they kill any mutant that moves a number.
oracles=(cycle_stepped golden_timing random_programs fabric_properties lsq:: queues:: steering::)
detectors=(golden_equivalence golden_run_all model_version_is_pinned_to_behaviour)

check_cmd() {
    case "$1" in
        cycle_stepped) echo "cargo test -q -p rcmc-sim --test cycle_stepped" ;;
        golden_timing) echo "cargo test -q -p rcmc-core --test golden_timing" ;;
        random_programs) echo "cargo test -q --test random_programs" ;;
        fabric_properties) echo "cargo test -q -p rcmc-core --test fabric_properties" ;;
        lsq::) echo "cargo test -q -p rcmc-core --lib lsq::" ;;
        queues::) echo "cargo test -q -p rcmc-core --lib queues::" ;;
        steering::) echo "cargo test -q -p rcmc-core --lib steering::" ;;
        golden_equivalence) echo "cargo test -q -p rcmc-sim --test golden_equivalence" ;;
        golden_run_all) echo "cargo test -q -p rcmc-sim --test golden_run_all" ;;
        model_version_is_pinned_to_behaviour)
            echo "cargo test -q -p rcmc-sim --lib runner::tests::model_version_is_pinned_to_behaviour" ;;
        *) echo "unknown check $1" >&2; exit 2 ;;
    esac
}

# Run check $1 in the scratch tree, logging to $2. Prints `.` when it
# passes with at least one test run, `K` otherwise.
run_check() {
    local cmd
    cmd=$(check_cmd "$1")
    if (cd "$tree" && CARGO_TARGET_DIR="$scratch/target" timeout 900 $cmd) >"$2" 2>&1 &&
        grep -qE 'test result: ok\. [1-9][0-9]* passed' "$2"; then
        echo .
    else
        echo K
    fi
}

mkdir -p "$tree" "$logs"
# Its own repository, so `git apply` patches this tree wherever it lies.
git init -q "$tree"
(cd "$root" && git ls-files -co --exclude-standard |
    while IFS= read -r f; do [ -e "$f" ] && printf '%s\n' "$f"; done |
    tar -cf - -T -) | tar -xf - -C "$tree"

checks=("${oracles[@]}" "${detectors[@]}")
for c in "${checks[@]}"; do
    if [ "$(run_check "$c" "$logs/baseline-$c.log")" != . ]; then
        echo "check $c fails on the unmutated tree (see $logs/baseline-$c.log)" >&2
        exit 1
    fi
done

rev=$(cd "$root" && git rev-parse --short HEAD)
{
    echo "# Mutation matrix: one-hunk model patches (mutants/*.patch) x checks."
    echo "# K = the check fails on the mutant (killed); . = it passes (survived)."
    echo "# Oracles: ${oracles[*]}"
    echo "# Detectors: ${detectors[*]}"
    echo "# Tree: the working tree at $rev; written by bash mutants/run.sh."
    echo "#"
    printf '%-32s' mutant
    for c in "${checks[@]}"; do printf ' %s' "$c"; done
    echo "  oracle-killed"
} >"$out.tmp"

killed=0
total=0
for patch in "$tree"/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    (cd "$tree" && git apply "$patch")
    row=$(printf '%-32s' "$name")
    by_oracle=no
    for c in "${checks[@]}"; do
        v=$(run_check "$c" "$logs/$name-$c.log")
        row+=$(printf " %${#c}s" "$v")
        if [ "$v" = K ] && [[ " ${oracles[*]} " == *" $c "* ]]; then
            by_oracle=yes
        fi
    done
    (cd "$tree" && git apply -R "$patch")
    echo "$row  $by_oracle" >>"$out.tmp"
    echo "$row  $by_oracle" >&2
    total=$((total + 1))
    [ "$by_oracle" = yes ] && killed=$((killed + 1))
done
{
    echo "# Score: $killed of $total mutants killed by at least one correctness oracle."
    echo "#"
    for patch in "$tree"/mutants/*.patch; do
        echo "# $(basename "$patch" .patch): $(head -n 1 "$patch")"
    done
} >>"$out.tmp"
mv "$out.tmp" "$out"
rm -rf "$scratch"
