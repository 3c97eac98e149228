#!/usr/bin/env bash
# Builds afdbench from the checkout it is run in and runs it with the given
# arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload chaos-verify --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and every other file the Go toolchain
# writes stay under $CARGO_TARGET_DIR (default .bench_build) in the
# checkout.  The build needs the repository around bench/; with bench/
# alone it fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

# Stamp the git revision only where the checkout is a git work tree.
vcs=-buildvcs=false
if [ -e "$root/.git" ]; then
	vcs=-buildvcs=auto
fi
bin="$out/afdbench"
(cd "$root/bench" && go build "$vcs" -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
