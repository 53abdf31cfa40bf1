#!/usr/bin/env bash
# Code lines and `unsafe` sites per crate, plus `epoch` for the vendored
# reclamation crate under the STM — the size table a simplification PR
# publishes (ROADMAP, "Collapse duplicate machinery").  Informational: CI
# prints it and gates nothing.
#
#   bash ci/loc.sh            # one row per crate
#   bash ci/loc.sh --files    # plus one row per source file
#
# A code line is a non-blank line that is not a `//` comment, counted up to
# the file's top-level `#[cfg(test)]` + `mod` (unit tests are not product
# code).  An `unsafe` site is such a line carrying an `unsafe` block, fn,
# impl or trait once its trailing comment is stripped.
set -euo pipefail
cd "$(dirname "$0")/.."

per_file=0
[ "${1:-}" = "--files" ] && per_file=1

count() { # <file> -> "<code lines> <unsafe sites>"
    awk '
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod / { exit }
        pending { pending = 0; code++ }   # a cfg(test) item that is not the test module
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        {
            code++
            line = $0
            sub(/\/\/.*/, "", line)
            if (line ~ /(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|fn|impl|trait|extern)/) sites++
        }
        END { printf "%d %d\n", code, sites }
    ' "$1"
}

printf '%-12s %10s %8s\n' crate code_lines unsafe
for crate in skiphash stm durability bench baselines model model-tests epoch; do
    dir="crates/$crate/src"
    [ "$crate" = epoch ] && dir=vendor/crossbeam-epoch/src
    code=0 sites=0
    while IFS= read -r file; do
        read -r c s < <(count "$file")
        code=$((code + c)) sites=$((sites + s))
        [ "$per_file" = 1 ] && printf '  %-40s %6d %6d\n' "${file#crates/}" "$c" "$s"
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%-12s %10d %8d\n' "$crate" "$code" "$sites"
done
