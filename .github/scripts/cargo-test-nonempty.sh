#!/usr/bin/env bash
# Run `cargo test` with the given arguments and fail unless at least one
# test ran. A filtered gating step must not pass silently once a rename
# or a move leaves its filter matching nothing.
#
#   bash .github/scripts/cargo-test-nonempty.sh -p tseig-core --lib stage2::tests::cancel
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$log"; then
    echo "error: the filter matched no test: cargo test $*" >&2
    exit 1
fi
