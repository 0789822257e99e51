#!/usr/bin/env sh
# Lock-free hot-path lint.
#
# The scheduler, setup cache, and serve result store promise lock-free
# READ paths (EXPERIMENTS.md, "Hot-path concurrency rules"). Locks are
# still legitimate on write/retire paths, in test-only plumbing, and in
# panic reporting — but every such site must say so: any `.lock()` in
# the files below without a `// lock-ok: <reason>` tag on the same line
# fails this lint. Adding a lock to a read path means either tagging it
# (and defending the tag in review) or, correctly, not adding it.
#
# Run from the repository root: sh scripts/lint_lockfree.sh

set -eu

HOT_PATH_FILES="
crates/sync/src/once.rs
crates/sync/src/steal.rs
crates/sync/src/swap.rs
crates/sync/src/prefetch.rs
crates/sim/src/setup.rs
crates/sim/src/runner.rs
crates/serve/src/store.rs
crates/mem/src/numa.rs
crates/mem/src/dram.rs
"

status=0
for f in $HOT_PATH_FILES; do
    # A listed file that is gone (deleted or renamed) must fail loudly
    # rather than silently drop out of the lint.
    if [ ! -f "$f" ]; then
        echo "listed hot-path file does not exist: $f" >&2
        status=1
        continue
    fi
    # Strip test modules? No — stress tests also must not lock around
    # the primitives they exercise; the tag requirement applies there
    # too.
    untagged=$(grep -n '\.lock()' "$f" | grep -v 'lock-ok:' || true)
    if [ -n "$untagged" ]; then
        echo "untagged .lock() on a lock-free hot-path file: $f" >&2
        echo "$untagged" | sed "s|^|  $f:|" >&2
        status=1
    fi
    # RwLock never appears on these paths at all (readers of a RwLock
    # still serialize against writers); no tag can excuse it.
    if grep -n 'RwLock' "$f" >&2; then
        echo "RwLock is not permitted on lock-free hot-path file: $f" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "lock-free hot-path lint OK ($(echo $HOT_PATH_FILES | wc -w) files)"
fi
exit $status
