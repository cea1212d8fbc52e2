#!/usr/bin/env bash
# Print the total and non-test line counts of the core and relq crates, and
# the total line count of the integration tests.
#
# A file's non-test lines are the lines above its first unindented
# `#[cfg(test)]` (the test module); a file without one counts whole. An
# indented `#[cfg(test)]` on a single item does not end the count. Every
# line of crates/integration/tests is test code, so only its total prints.
#
# Usage, from anywhere in the checkout: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
for dir in crates/core/src crates/relq/src; do
    total=0
    non_test=0
    while IFS= read -r file; do
        lines=$(wc -l < "$file")
        first=$(grep -n -m1 '^#\[cfg(test)\]' "$file" | cut -d: -f1 || true)
        total=$((total + lines))
        non_test=$((non_test + ${first:-$((lines + 1))} - 1))
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%-16s total %6d  non-test %6d\n' "$dir" "$total" "$non_test"
done
tests=$(find crates/integration/tests -name '*.rs' -exec cat {} + | wc -l)
printf '%-16s total %6d\n' crates/integration/tests "$tests"
