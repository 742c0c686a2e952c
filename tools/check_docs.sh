#!/usr/bin/env bash
# Doc-rot guard, registered as the `check_docs` ctest so tier-1 catches
# stale documentation:
#   1. every intra-repo markdown link in docs/*.md and README.md must
#      resolve (relative to the file containing it);
#   2. every src/ subdirectory must appear (as `src/<name>`) in
#      docs/ARCHITECTURE.md — a new subsystem lands with its map entry;
#   3. every `*.md` file named in a `//` comment of a .h/.cc/.cpp file
#      under src/, bench/, tests/, examples/ or tools/ must exist, relative
#      to the repo root or to docs/.
# External links (http/https/mailto) and pure #anchors are not checked.
# Usage: tools/check_docs.sh [repo_root]
set -euo pipefail

REPO_ROOT="${1:-"$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"}"
fail=0

for required in docs/ARCHITECTURE.md docs/SERVING.md docs/BENCHMARKS.md; do
  if [[ ! -f "$REPO_ROOT/$required" ]]; then
    echo "check_docs: missing $required" >&2
    fail=1
  fi
done

check_file_links() {
  local f="$1"
  local dir links link target
  dir="$(dirname "$f")"
  # Inline links: ](target). Targets with spaces are not used here and
  # would be quoted in markdown anyway.
  links="$(grep -oE '\]\([^) ]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//' \
           || true)"
  while IFS= read -r link; do
    [[ -z "$link" ]] && continue
    case "$link" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    target="${link%%#*}"
    [[ -z "$target" ]] && continue
    if [[ ! -e "$dir/$target" ]]; then
      echo "check_docs: broken link in ${f#"$REPO_ROOT/"}: $link" >&2
      fail=1
    fi
  done <<< "$links"
}

for f in "$REPO_ROOT"/docs/*.md "$REPO_ROOT/README.md"; do
  [[ -f "$f" ]] && check_file_links "$f"
done

ARCH="$REPO_ROOT/docs/ARCHITECTURE.md"
if [[ -f "$ARCH" ]]; then
  for d in "$REPO_ROOT"/src/*/; do
    name="$(basename "$d")"
    if ! grep -q "src/$name" "$ARCH"; then
      echo "check_docs: src/$name has no entry in docs/ARCHITECTURE.md" >&2
      fail=1
    fi
  done
fi

# Only the text after a line's first `//` is read, so a string literal
# before it is not taken for a citation.
while IFS=: read -r file line text; do
  comment="${text#*//}"
  for name in $(grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md' <<< "$comment"); do
    [[ -e "$REPO_ROOT/$name" || -e "$REPO_ROOT/docs/$name" ]] && continue
    echo "check_docs: $file:$line cites missing $name" >&2
    fail=1
  done
done < <(cd "$REPO_ROOT" && grep -rnE --include='*.h' --include='*.cc' \
           --include='*.cpp' '//.*\.md' src bench tests examples tools || true)

if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK"
