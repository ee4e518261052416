#!/usr/bin/env bash
# Fails if any file under src/ is not mentioned in docs/ARCHITECTURE.md,
# keeping the architecture map from rotting as the tree grows. A file
# src/<dir>/<name>.<ext> counts as mentioned if the string "<dir>/<name>"
# appears in the doc (so one row covers a .h/.cc pair). The reverse holds
# too: a module row of the map (a line starting | `<dir>/<name>`) fails
# the check when no src/<dir>/<name>.* file exists, so a deleted module
# cannot leave its row behind.
#
# Also fails if any scenario-spec key accepted by the parser in
# src/sim/scenario_matrix.cc (each marked with a SCENARIO_KEY(<key>)
# comment) is missing from docs/SCENARIOS.md, so the spec-format reference
# cannot silently fall behind the parser. The reverse holds too: a key row
# of that reference (a line starting | `<key>` |) fails the check when no
# SCENARIO_KEY(<key>) marker names it, so a key deleted from the parser
# cannot leave its row behind.
set -euo pipefail
cd "$(dirname "$0")/.."

DOC=docs/ARCHITECTURE.md
[ -f "$DOC" ] || { echo "missing $DOC" >&2; exit 1; }

missing=0
while IFS= read -r f; do
  rel="${f#src/}"
  stem="${rel%.*}"
  if ! grep -qF "$stem" "$DOC"; then
    echo "undocumented source file: $f (add '$stem' to $DOC)" >&2
    missing=1
  fi
done < <(find src -type f | sort)

while IFS= read -r stem; do
  if ! compgen -G "src/$stem.*" > /dev/null; then
    echo "stale module row: $stem has no file under src/ (remove its row from $DOC)" >&2
    missing=1
  fi
done < <(grep -o '^| `[^`]*/[^`]*`' "$DOC" | sed 's/^| `\(.*\)`$/\1/')

if [ "$missing" -ne 0 ]; then
  echo "docs check FAILED: update $DOC" >&2
  exit 1
fi
echo "docs check OK: every src/ file is mapped in $DOC, every module row names one"

SCEN_DOC=docs/SCENARIOS.md
SCEN_SRC=src/sim/scenario_matrix.cc
[ -f "$SCEN_DOC" ] || { echo "missing $SCEN_DOC" >&2; exit 1; }

keys="$(grep -o 'SCENARIO_KEY([a-z_]*)' "$SCEN_SRC" | sed 's/SCENARIO_KEY(\(.*\))/\1/' | sort -u)"

missing=0
while IFS= read -r key; do
  if ! grep -qF "\`$key\`" "$SCEN_DOC"; then
    echo "undocumented scenario key: $key (add \`$key\` to $SCEN_DOC)" >&2
    missing=1
  fi
done <<< "$keys"

while IFS= read -r key; do
  if ! grep -qxF "$key" <<< "$keys"; then
    echo "stale scenario key row: $key has no SCENARIO_KEY marker in $SCEN_SRC (remove its row from $SCEN_DOC)" >&2
    missing=1
  fi
done < <(grep -o '^| `[^`]*` |' "$SCEN_DOC" | sed 's/^| `\(.*\)` |$/\1/')

if [ "$missing" -ne 0 ]; then
  echo "docs check FAILED: update $SCEN_DOC" >&2
  exit 1
fi
echo "docs check OK: every scenario-spec key is documented in $SCEN_DOC, every key row names one"
