#!/bin/sh
# Public-surface census: every `pub` item (fn, struct, enum, trait, const,
# type) above its file's first `#[cfg(test)]` under crates/*/src must be
# named in at least one other file under crates/, tests/, benchmark/ or
# examples/, or be listed in the DESIGN.md allowlist (§2, between the
# `pub-census` markers). Anything else is surface nothing runs: narrow it
# to `pub(crate)` and let the `dead_code` lint say whether it can go.
#
#   sh scripts/pub_census.sh     # exit 1 and list offenders, else exit 0
set -eu
cd "$(dirname "$0")/.."

allow=$(sed -n '/<!-- pub-census:begin -->/,/<!-- pub-census:end -->/p' DESIGN.md |
    sed -n 's/^| `\([^`]*\)`.*/\1/p' | sed 's/.*:://')

items=$(git ls-files 'crates/*/src/*.rs' | xargs awk '
    FNR == 1 { stop = 0 }
    /#!?\[cfg\(test\)\]/ { stop = 1 }
    !stop && match($0, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|const|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), w, /[ \t]+/)
        print FILENAME, FNR, w[n]
    }')

bad=0
total=0
echo "$items" | {
    while read -r file line name; do
        total=$((total + 1))
        if git grep -lw -e "$name" -- crates tests benchmark examples | grep -qvx "$file"; then
            continue
        fi
        if printf '%s\n' "$allow" | grep -qx "$name"; then
            continue
        fi
        echo "$file:$line: pub \`$name\` is named in no other file and is not on the DESIGN.md allowlist"
        bad=1
    done
    echo "pub-census: $total pub items checked"
    exit $bad
}
