#!/usr/bin/env bash
# The checks of .github/workflows/tests.yml, one step per call, runnable offline
# from the root of a checkout:
#
#   ci/checks.sh tier1   the Tier-1 suite
#   ci/checks.sh cli     the CLI and fuzz tests under an address-space limit
#   ci/checks.sh dev     the simulation and benchmark tests in development mode
#   ci/checks.sh bench   one benchmark pass per workload, outputs checked
#   ci/checks.sh smoke   the installed package, run from outside the checkout
#                        (CI only: it installs the package with pip, which
#                        needs setuptools >= 68, wheel and, for the build, the
#                        network)
#   ci/checks.sh all     every step but smoke and digests
#   ci/checks.sh digests one benchmark pass per workload for seeds 0-9, every
#                        output compared bit for bit with perfbench/reference.json
#                        (a few minutes; kept out of "all" and out of the
#                        workflow, it is run by hand before a change is merged)
#
# Per-process limits (ulimit, -X dev, the -W options) are set here, so a step
# runs the same in CI and on a desk.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tier1() {
    python -m pytest -q --continue-on-collection-errors
}

cli() {
    # a size that reaches an allocation before its memory guard fails here at
    # once, instead of swapping or getting the runner OOM-killed; a subshell
    # keeps the limit to this step
    (
        ulimit -v 3000000
        OPENBLAS_NUM_THREADS=1 python -m pytest -q tests/test_cli.py tests/test_fuzz.py
    )
}

dev() {
    # -X dev reports unclosed resources and exceptions raised in threads, such
    # as simulate_grid's draw-ahead worker; the -W options fail the step on
    # those warnings. The simulate tests draw ahead with the threshold patched
    # to 0, the split tests split with theirs patched to 0; A4-A6 and the CLI benchmark tests draw ahead at n = 10^4, over the
    # real threshold
    local run=(python -X dev -m pytest -q
               -W error::ResourceWarning
               -W error::pytest.PytestUnhandledThreadExceptionWarning
               -W error::pytest.PytestUnraisableExceptionWarning)
    "${run[@]}" tests/test_simulate.py tests/test_evaluate.py tests/test_split.py
    "${run[@]}" tests/test_acceptance.py -k "a4 or a5 or a6"
    "${run[@]}" tests/test_cli.py -k benchmark
    # which thread draws a replicate, or sums a half, depends on timing, so
    # the grid tests and the split and helper-lock tests run five more times
    # in a row to catch races (a shell loop: pytest-repeat is not a dependency)
    local i
    for i in 1 2 3 4 5; do
        "${run[@]}" tests/test_simulate.py -k grid
        "${run[@]}" tests/test_split.py
    done
}

bench() {
    # run.py exits 0 even when outputs fail, so the step reads its last line;
    # the reference digests are compared only on the platform that recorded
    # them, the other output checks run everywhere
    local w out
    for w in pipeline-tall grid-wide grid-paper; do
        out=$(python perfbench/run.py --workload "$w" --seed 0 --seconds 0)
        echo "$out"
        echo "$out" | tail -n 1 | grep -q '"correct": true' || { echo "$w: outputs failed"; exit 1; }
    done
}

digests() {
    # fails on a last line without "correct": true, or on outputs that differ
    # from the digests recorded for that seed; on a platform other than the
    # one that recorded them the comparison is skipped, and the reference
    # line says so
    local w seed out
    for w in pipeline-tall grid-wide grid-paper; do
        for seed in 0 1 2 3 4 5 6 7 8 9; do
            out=$(python perfbench/run.py --workload "$w" --seed "$seed" --seconds 0)
            echo "$w seed $seed: $(echo "$out" | grep '^reference: ')"
            echo "$out" | tail -n 1 | grep -q '"correct": true' \
                || { echo "$out"; echo "$w seed $seed: outputs failed"; exit 1; }
            if echo "$out" | grep -q '^reference: differs'; then
                echo "$out"; echo "$w seed $seed: outputs differ from the reference"; exit 1
            fi
        done
    done
}

smoke() {
    # the steps above import from src/; this one runs an installed copy from
    # outside the checkout, so a broken entry point or missing fixtures/*.json
    # package data fails here
    unset PYTHONPATH
    python -m pip install .
    cd "${RUNNER_TEMP:-$(mktemp -d)}"
    heavytail --version
    local fixture
    fixture=$(python -c 'import importlib.resources as r; print(r.files("heavytail") / "fixtures/swiss_finance_psi.json")')
    heavytail discover --matrix "$fixture" --out order.json
    cat order.json
}

case "${1:-}" in
    tier1|cli|dev|bench|digests|smoke) "$1" ;;
    all) tier1; cli; dev; bench ;;
    *) echo "usage: $0 tier1|cli|dev|bench|digests|smoke|all" >&2; exit 2 ;;
esac
