#ifndef DCDATALOG_TESTING_MINIMIZER_H_
#define DCDATALOG_TESTING_MINIMIZER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "testing/program_gen.h"

namespace dcdatalog {
namespace testing_gen {

/// Predicate the minimizer probes: does this (case, worker-count) still
/// reproduce the failure? Implementations must treat analysis-invalid
/// candidates (e.g. a dropped rule orphaning a body predicate) as NOT
/// failing, or shrinking would chase load errors instead of the bug. The
/// fuzz driver implements this with a forked differential run; unit tests
/// plug in plain lambdas.
using StillFailsFn =
    std::function<bool(const FuzzCase& candidate, uint32_t num_workers)>;

/// Runs per candidate: a candidate is kept as soon as one run fails and
/// dropped only after this many runs pass, so a failure that reproduces
/// only now and then (a race, a schedule-dependent termination bug) still
/// shrinks instead of reading as "fixed" on its first passing run.
inline constexpr uint32_t kAttemptsPerCandidate = 3;

struct MinimizeOptions {
  /// Upper bound on StillFailsFn invocations; each one re-evaluates the
  /// case, so this caps total shrink cost. A rejected candidate costs
  /// kAttemptsPerCandidate invocations.
  uint32_t max_probes = 750;
};

struct MinimizeResult {
  FuzzCase reduced;
  uint32_t num_workers = 0;
  uint32_t probes = 0;  // StillFailsFn invocations spent.
};

/// Greedy 1-minimal shrink of a failing case. Passes, iterated to fixpoint
/// under the probe budget:
///   1. drop single rules (outputs recomputed from the surviving heads),
///   2. shrink the EDB — halve the edge list, then drop single edges,
///   3. shrink the update script — drop whole batches, halve each batch's
///      op list, then drop single ops (no-op when the case has no updates),
///   4. lower the worker count.
/// The result is the smallest case the budget reached; `still_fails` held
/// on it at least once.
MinimizeResult Minimize(const FuzzCase& failing, uint32_t num_workers,
                        const StillFailsFn& still_fails,
                        const MinimizeOptions& options = {});

/// Head predicates of `program` in first-definition order (helper shared
/// with the rule-dropping pass; exposed for tests).
std::vector<std::string> HeadPredicates(const std::string& program);

}  // namespace testing_gen
}  // namespace dcdatalog

#endif  // DCDATALOG_TESTING_MINIMIZER_H_
