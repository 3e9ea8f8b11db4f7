#!/usr/bin/env bash
# Run every bench listed in a determinism manifest twice and require
# byte-identical outputs (and well-formed JSON) — same seed, same bytes.
#
#   tools/ci/determinism.sh [BUILD_DIR] [MANIFEST]
#   tools/ci/determinism.sh --targets [MANIFEST]   # list the bench targets
#
# Defaults: BUILD_DIR=build, MANIFEST=tools/ci/determinism.txt. The benches
# must already be built (cmake --build BUILD_DIR --target $(... --targets)).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
if [[ ${1:-} == --targets ]]; then
  grep -v '^[[:space:]]*\(#\|$\)' "${2:-$here/determinism.txt}" |
    cut -d'|' -f1 | tr -d ' ' | tr '\n' ' '
  echo
  exit 0
fi
build=${1:-build}
manifest=${2:-$here/determinism.txt}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
line=0
while IFS='|' read -r target args outputs; do
  target=$(echo "$target" | tr -d ' ')
  [[ -z $target || $target == \#* ]] && continue
  read -ra files <<< "$outputs"
  line=$((line + 1))
  for run in 1 2; do
    out="$work/$line.$run"
    mkdir -p "$out"
    # Word splitting of the argument list is intended.
    # shellcheck disable=SC2086
    if ! "$build/bench/$target" ${args//OUT/$out} < /dev/null > "$out.log" 2>&1; then
      echo "FAIL $target (run $run exited nonzero)"
      tail -n 20 "$out.log"
      status=1
      continue 2
    fi
  done
  ok=1
  for file in "${files[@]}"; do
    if [[ $file == *.json ]] &&
       ! python3 -m json.tool "$work/$line.1/$file" > /dev/null; then
      echo "FAIL $target: $file is not well-formed JSON"
      ok=0
    fi
    if ! cmp "$work/$line.1/$file" "$work/$line.2/$file"; then
      echo "FAIL $target: $file differs between identical runs"
      ok=0
    fi
  done
  if ((ok)); then echo "ok   $target (${files[*]})"; else status=1; fi
done < "$manifest"
exit "$status"
