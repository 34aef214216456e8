#!/bin/sh
# Switch a checkout from the offline stand-in crates (vendor/) to the real
# crates-io dependencies named in [workspace.dependencies]:
#
#   1. rewrite .cargo/config.toml down to the xtask alias, dropping the
#      [patch.crates-io] redirection and [net] offline mode;
#   2. delete Cargo.lock and benchmark/Cargo.lock, which were resolved
#      against the stand-in versions, so the next cargo invocation
#      re-resolves from crates-io.
#
# CI runs this in every job except the offline-standin parity job. See
# vendor/README.md for what the stand-ins are and the golden-fixture caveat
# when swapping rand streams.
set -eu
cd "$(dirname "$0")/.."
printf '# `cargo xtask <lint|check|ci>` — workspace automation (see crates/xtask).\n[alias]\nxtask = "run --quiet -p xtask --"\n' > .cargo/config.toml
rm -f Cargo.lock benchmark/Cargo.lock
echo "switched to upstream crates-io dependencies (stand-in patch removed)"
