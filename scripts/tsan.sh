#!/usr/bin/env sh
# Configure, build and run the concurrency-sensitive tests under
# ThreadSanitizer (-Werror stays on). By default runs the suites that
# exercise the thread pool, parallel containment, governor cancellation
# propagation and single-flight compilation (omq_cache_test's
# SingleFlightTest suites on both stores, server_test's concurrent
# same-program and leader-fault checks, compiled_program_test's shared
# program handles and single-flight program cache, containment_test's
# 4-thread engine and cross-thread frozen-constant pool, and the
# process-wide null-id counter of null_exhaustion_test); pass explicit
# ctest args to override the filter.
# Usage: scripts/tsan.sh [extra ctest args...]
set -eu
cd "$(dirname "$0")/.."
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
if [ "$#" -eq 0 ]; then
  set -- -R 'base_test|governor_test|fault_injection_test|parallel_containment_test|cache_integration_test|omq_cache_test|instance_property_test|emptiness_agreement_test|server_test|compiled_program_test|containment_test|null_exhaustion_test'
fi
ctest --preset tsan -j"$(nproc)" "$@"
