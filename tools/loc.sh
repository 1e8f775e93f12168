#!/bin/sh
# Line counts of the C++ sources (.cc and .hh files) under src/,
# bench/ and tests/, one directory per line, so that changes report
# their size on one basis. Build files and scripts are not counted.
#
# Usage: tools/loc.sh   (from any directory)

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)

for dir in src bench tests; do
    lines=$(find "$root/$dir" \( -name '*.cc' -o -name '*.hh' \) \
        -exec cat {} + | wc -l)
    printf '%-7s %s\n' "$dir/" "$lines"
done
