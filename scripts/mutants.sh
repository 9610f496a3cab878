#!/bin/sh
# Seeded mutants: each patch under test/mutants/ plants one known bug, and
# its "Suite:" header line names the test suite that must catch it.  The
# script copies the tree (without _build), requires every named suite to
# pass on the unpatched copy, then applies each patch in turn and requires
# its suite to fail.  A suite that cannot fail is no evidence.
#
#   sh scripts/mutants.sh                      # every patch
#   sh scripts/mutants.sh test/mutants/X.patch # some of them
#
# The copy lives under $TMPDIR (default /tmp) and is removed on exit.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)
if [ "$#" -eq 0 ]; then set -- test/mutants/*.patch; fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for f in * .[!.]*; do
  case "$f" in _build | .git) ;; *) [ ! -e "$f" ] || cp -R "$f" "$work/" ;; esac
done

suite_of() { sed -n 's/^Suite: //p' "$1" | head -n 1; }

# Exit status of the named suite on the copy, built incrementally.
run_suite() {
  (cd "$work" && dune build --root . ./test/main.exe 2>&1) >"$work/build.log" || {
    cat "$work/build.log"
    echo "mutants: the copy does not build"
    exit 1
  }
  (cd "$work/_build/default/test" && ./main.exe test "$1" >/dev/null 2>&1)
}

for p in "$@"; do
  [ -n "$(suite_of "$p")" ] || { echo "mutants: $p names no Suite:"; exit 1; }
done
for s in $(for p; do suite_of "$p"; done | sort -u); do
  if ! run_suite "$s"; then
    echo "mutants: $s fails on the unpatched tree"
    exit 1
  fi
done

status=0
for p in "$@"; do
  s=$(suite_of "$p")
  name=$(basename "$p" .patch)
  if ! patch -s -p1 -d "$work" <"$root/$p"; then
    echo "mutants: $name no longer applies"
    status=1
    continue
  fi
  if run_suite "$s"; then
    echo "mutants: $name SURVIVED: $s passes on the patched tree"
    status=1
  else
    echo "mutants: $name caught by $s"
  fi
  patch -s -R -p1 -d "$work" <"$root/$p"
done
exit "$status"
