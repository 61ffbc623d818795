#!/usr/bin/env bash
# Lists every function declared in a non-test file under internal/ that
# none of the repository's 12 programs links, and fails unless that list
# equals .github/unlinked.txt with its comments stripped (DESIGN.md §9).
#
# The programs are cmd/qtenon, cmd/qtenon-bench, cmd/qtenon-asm, the
# eight examples, and perfbench built from its own module. They are
# built with inlining off, so a function inlined at every call site
# still counts as linked. The program packages name their symbols
# main.*, so only internal/ is checked. An assembly function links as
# its name plus ".abi0", which is stripped.
#
# Run from the repository root: bash .github/unlinked.sh (needs GNU sed).
set -eu
export LC_ALL=C
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
mkdir "$d/bin"
for p in cmd/qtenon cmd/qtenon-bench cmd/qtenon-asm examples/*/; do
  go build -gcflags=all=-l -o "$d/bin/$(basename "$p")" "./$p"
done
(cd perfbench && go build -gcflags=all=-l -o "$d/bin/perfbench" .)
for b in "$d"/bin/*; do go tool nm "$b"; done |
  awk '$2 == "T" && $3 ~ /^qtenon\// { print $3 }' |
  sed -E -e 's/\[[^]]*\]//g' -e 's/\.abi0$//' | sort -u > "$d/linked"
# Each "func" line becomes its symbol name: the package path, then the
# function, or the receiver type and method, with type arguments
# stripped from generic symbols.
git ls-files 'internal/*.go' | grep -v '_test\.go$' |
  xargs grep -H '^func ' |
  sed -E -e 's#^(.*)/[^/]*\.go:func #qtenon/\1.#' \
    -e 's#\.\((\w+ )?\*(\w+)(\[[^]]*\])?\) (\w+).*#.(*\2).\4#' \
    -e 's#\.\((\w+ )?(\w+)(\[[^]]*\])?\) (\w+).*#.\2.\4#' \
    -e 's#^([^(]*\.\w+)[[(].*#\1#' |
  grep -v '\.init$' | sort -u > "$d/declared"
comm -23 "$d/declared" "$d/linked" > "$d/unlinked"
sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' .github/unlinked.txt |
  sort > "$d/kept"
if ! diff "$d/kept" "$d/unlinked"; then
  echo "unlinked functions (>) differ from .github/unlinked.txt (<):" \
    "delete a dead function with the tests that test only it, list a" \
    "kept one with its reason, or drop a listed one that a program now links" >&2
  exit 1
fi
echo "$(wc -l < "$d/unlinked") unlinked functions, all listed in .github/unlinked.txt"
