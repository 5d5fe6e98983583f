#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UBSan and runs the full test
# suite. A separate build dir keeps the instrumented artifacts away from
# the regular build. Extra args are forwarded to the configure step.
# Setting OBISWAP_SANITIZE also compiles the full-mark check that runs
# after every Heap::Reclaim (nothing freed was reachable from a root).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . -DOBISWAP_SANITIZE=address,undefined "$@"
cmake --build "$BUILD_DIR" -j"$JOBS"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$JOBS")
