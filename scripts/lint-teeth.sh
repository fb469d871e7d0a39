#!/bin/sh
# lint-teeth: prove the taalint gates bite on the real module, not just on
# fixtures. For every patch in internal/analysis/testdata/teeth/ this script
# checks out a snapshot of the working tree into a throwaway git worktree,
# applies the deliberate mutation, runs only the check named by the patch
# file's basename, and asserts taalint exits with code 1 — findings, not a
# crash (2) and not a pass (0). Any toothless check fails the script. The
# eleven patches, one per check: epochbump (skip an epoch bump in
# SetNodeAlive), errcompare (compare an error with == in faults.React),
# floateq (test a drained transfer with == 0 in netsim's event loop),
# maporder (the fault loop's dead-switch check ranges over the
# controller's policy map and returns on the first dead switch),
# mergeorder (append the cell index to a captured slice in runCells'
# worker), oraclebypass (call topology.StageTemplate in the
# controller's typeTemplate), panicpath (a naked goroutine plus a
# channel wait in the preference build), policyfreeze
# (OptimizeInstalledDetailed writes opt.List[0] before installing it),
# poolescape (RandomPolicy keeps its filter buffer as the policy's list),
# rngsource (core's random start draws rand.Intn from the global source)
# and wallclock (read time.Now in sim.RunWithArrivals).
#
# The snapshot is HEAD plus every tracked, staged and untracked non-ignored
# change, so an edited check or teeth patch is proven before it is
# committed. It is built through a temporary index (add -A, write-tree,
# commit-tree); the real index, HEAD, the stash list and the working tree
# are left untouched. On a clean checkout, as in CI, the snapshot is
# exactly HEAD.
#
# Usage: scripts/lint-teeth.sh   (from anywhere inside the repo)
set -eu

root=$(git rev-parse --show-toplevel)
teeth="$root/internal/analysis/testdata/teeth"
[ -d "$teeth" ] || { echo "lint-teeth: no patch directory $teeth" >&2; exit 2; }
tmp=${TMPDIR:-/tmp}

scratch=$(mktemp -d "$tmp/lint-teeth-index.XXXXXX")
GIT_INDEX_FILE="$scratch/index" git -C "$root" read-tree HEAD
GIT_INDEX_FILE="$scratch/index" git -C "$root" add -A
tree=$(GIT_INDEX_FILE="$scratch/index" git -C "$root" write-tree)
rm -rf "$scratch"
if [ "$tree" = "$(git -C "$root" rev-parse 'HEAD^{tree}')" ]; then
    snapshot=$(git -C "$root" rev-parse HEAD)
    echo "lint-teeth: testing tree $tree (HEAD, no working-tree changes)"
else
    snapshot=$(git -C "$root" commit-tree "$tree" -p HEAD -m "lint-teeth working-tree snapshot")
    echo "lint-teeth: testing tree $tree (HEAD $(git -C "$root" rev-parse --short HEAD) plus working-tree changes)"
fi

fail=0
for patch in "$teeth"/*.patch; do
    [ -e "$patch" ] || { echo "lint-teeth: no patches in $teeth" >&2; exit 2; }
    check=$(basename "$patch" .patch)
    wt=$(mktemp -d "$tmp/lint-teeth.XXXXXX")
    # --detach: a throwaway checkout of the snapshot, no branch to clean up.
    git -C "$root" worktree add --detach --quiet "$wt" "$snapshot"
    git -C "$wt" apply "$patch"

    set +e
    (cd "$wt" && go run ./cmd/taalint -checks "$check" .) >/dev/null 2>&1
    code=$?
    set -e

    git -C "$root" worktree remove --force "$wt"
    if [ "$code" -eq 1 ]; then
        echo "lint-teeth: $check PASS (mutation caught, exit 1)"
    else
        echo "lint-teeth: $check FAIL (exit $code, want 1 — the check is toothless or broken)" >&2
        fail=1
    fi
done
exit "$fail"
