#!/usr/bin/env bash
# Fails when non-test code in the hardened crates (core, cli, nn, server,
# litho, geometry, dct) or the command-line parser they share (bench's
# args.rs) calls .unwrap() or .expect(...). Recoverable failures there must
# flow through the CoreError / CliError / NnError / ApiError / LithoError /
# GeometryError / ClipIoError / DctError / ArgsError taxonomies; genuine
# invariants use an explicit match + panic!/unreachable! with a message,
# which this gate deliberately does not count.
#
# "Non-test" means everything above the first `#[cfg(test)]` in each file
# (the repo convention keeps unit tests in a trailing module). Commented
# lines are ignored.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for file in $(find crates/core/src crates/cli/src crates/nn/src crates/server/src crates/litho/src crates/geometry/src crates/dct/src crates/bench/src/args.rs -name '*.rs' | sort); do
  hits=$(awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /\.unwrap\(\)|\.expect\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
  ' "$file")
  if [ -n "$hits" ]; then
    echo "$hits"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo
  echo "panic gate: new .unwrap()/.expect( in non-test code under crates/{core,cli,nn,server,litho,geometry,dct}/src or crates/bench/src/args.rs." >&2
  echo "Return a typed error (CoreError, CliError, NnError, ApiError, LithoError, GeometryError, DctError) instead, or use an explicit match + panic! for" >&2
  echo "a true invariant (with a message saying why it cannot happen)." >&2
  exit 1
fi
echo "panic gate: clean"
