#!/usr/bin/env bash
# Golden guard: replay pins and committed run artifacts may only change
# in a diff that also changes the RNG stream tag itself.
#
# The replay goldens (tests/replay_golden.rs) and the committed
# `specs/*.spec` / `specs/*.expected` / `specs/*.metrics.json` /
# `specs/*.fleet.json` artifacts are the repo's bit-for-bit
# reproducibility contract: they pin the exact RNG stream of the
# engines (the superposition scheduler over order-relaxed adjacency).
# A diff that rewrites or deletes them *without* changing the stream
# tag (the `pub const RNG_CONTRACT` line in crates/sim/src/events.rs)
# is, with overwhelming likelihood, silently breaking replay rather than
# legitimately introducing a new stream generation — so CI fails it.
# Other edits to events.rs do not count: that file also holds the
# schedulers, and changing them must leave every golden as it is.
# Newly added fixtures are fine: a fresh golden pins a new surface
# without touching an existing stream.
#
# The in-test pin tables of tests/protocol_pins.rs and
# tests/graph_build_pins.rs are guarded line by line: every pin there
# carries a 64-bit hex word, so a diff that deletes or changes a line
# holding such a literal rewrites a pin. Added lines (new pins) pass.
#
# Usage: tools/golden_guard.sh [<base-ref>]   (default: origin/main)

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

base="${1:-origin/main}"
if ! git rev-parse --verify --quiet "$base" >/dev/null; then
    echo "golden-guard: base ref '$base' not found; skipping (shallow clone?)" >&2
    exit 0
fi

range="$base...HEAD"
# Only modifications and deletions of existing pins are suspect;
# additions introduce new fixtures and are always allowed.
# (--no-renames: a moved fixture counts as deleted.)
touched="$(git diff --no-renames --name-only --diff-filter=MD "$range")"

# Files whose bytes are replay pins.
guarded="$(grep -E '^(tests/replay_golden\.rs|specs/.*\.(spec|expected|metrics\.json|fleet\.json))$' <<<"$touched" || true)"

# Files holding pin tables: guarded when a removed line holds a pin.
for file in tests/protocol_pins.rs tests/graph_build_pins.rs; do
    grep -qxF "$file" <<<"$touched" || continue
    removed="$(git diff --no-renames -U0 "$range" -- "$file" | grep -E '^-' | grep -vE '^--- ' || true)"
    if grep -qE '0x[0-9a-fA-F_]{8,}' <<<"$removed"; then
        guarded="${guarded:+$guarded$'\n'}$file (pin lines changed or deleted)"
    fi
done

if [[ -z "$guarded" ]]; then
    echo "golden-guard: no golden fixtures touched in $range"
    exit 0
fi

# The one legitimate reason to regenerate goldens: the diff changes the
# stream tag itself (a new stream generation is being introduced or an
# old one retired).
# (The diff is read in full first: under pipefail, `grep -q` closing the
# pipe early could fail the pipeline.)
tag_diff="$(git diff "$range" -- crates/sim/src/events.rs)"
if grep -qE '^[-+]pub const RNG_CONTRACT\b' <<<"$tag_diff"; then
    echo "golden-guard: goldens changed alongside the RNG stream tag — allowed:"
    sed 's/^/  /' <<<"$guarded"
    exit 0
fi

echo "golden-guard: FAIL — replay goldens changed without changing the RNG stream tag" >&2
echo "(the pub const RNG_CONTRACT line in crates/sim/src/events.rs). Changed fixtures:" >&2
sed 's/^/  /' <<<"$guarded" >&2
echo "If this really is a new stream generation, bump RNG_CONTRACT there." >&2
exit 1
