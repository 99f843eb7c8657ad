#ifndef DCDATALOG_RUNTIME_PIPELINE_H_
#define DCDATALOG_RUNTIME_PIPELINE_H_

#include <memory>
#include <vector>

#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/recursive_table.h"
#include "storage/catalog.h"

namespace dcdatalog {

/// Everything a worker needs to execute rule pipelines: shared read-only
/// structures plus this worker's own replicas. Register banks live in the
/// BatchPipelineRunner (runtime/batch_pipeline.h).
struct PipelineContext {
  const Catalog* catalog = nullptr;
  const BaseIndexSet* base_indexes = nullptr;
  /// This worker's replica partitions, indexed by replica id.
  const std::vector<std::unique_ptr<RecursiveTable>>* replicas = nullptr;
  /// Scan relations resolved once per rule by PreparePipeline, indexed by
  /// step. The catalog registry is lock-guarded, so per-tuple Find calls
  /// from the pipeline would put a mutex on the hot path (and trip the
  /// tools/lint hot-path rule); steps read this cache instead.
  std::vector<const Relation*> scan_rels;
};

/// Resolves `rule`'s kScanBase / kAntiJoinScan relations from the catalog
/// into ctx->scan_rels. Must run once before executing the rule's pipeline
/// with this context; rules without scan steps clear the cache cheaply.
void PreparePipeline(const PhysicalRule& rule, PipelineContext* ctx);

// --- Step-compilation helpers ---------------------------------------------
// Residual-check/bind semantics per matched tuple, over the batch runner's
// columnar register banks: register r of lane `lane` lives at
// regs[r * stride + lane].

/// Applies a step's residual checks to a matched tuple and, on success,
/// binds its output columns into registers. Returns false on any mismatch.
inline bool ApplyChecksAndBindStrided(const Step& step, TupleRef tuple,
                                      uint64_t* regs, uint64_t stride,
                                      uint32_t lane) {
  for (const ConstCheck& c : step.const_checks) {
    if (tuple[c.col] != c.word) return false;
  }
  // Outputs bind only freshly allocated registers, so writing them before
  // the equality checks is safe — and necessary for repeated variables
  // within one atom (q(Y, Y)), where the check compares against the
  // just-bound first occurrence.
  for (const OutputBinding& b : step.outputs) {
    regs[b.reg * stride + lane] = tuple[b.col];
  }
  for (const EqCheck& c : step.eq_checks) {
    if (tuple[c.col] != regs[c.reg * stride + lane]) return false;
  }
  return true;
}

/// Checks whether a tuple matches a step's const and eq checks WITHOUT
/// binding outputs — the anti-join witness test. Exits at the first
/// mismatch.
inline bool StepChecksMatch(const Step& step, TupleRef tuple,
                            const uint64_t* regs, uint64_t stride,
                            uint32_t lane) {
  for (const ConstCheck& c : step.const_checks) {
    if (tuple[c.col] != c.word) return false;
  }
  for (const EqCheck& c : step.eq_checks) {
    if (tuple[c.col] != regs[c.reg * stride + lane]) return false;
  }
  return true;
}

/// Applies the driving scan's const checks, output bindings and eq checks
/// for one driving tuple. Returns false when the tuple is rejected.
inline bool ApplyDrivingScanStrided(const PhysicalRule& rule, TupleRef driving,
                                    uint64_t* regs, uint64_t stride,
                                    uint32_t lane) {
  for (const ConstCheck& c : rule.scan_const_checks) {
    if (driving[c.col] != c.word) return false;
  }
  for (const OutputBinding& b : rule.scan_outputs) {
    regs[b.reg * stride + lane] = driving[b.col];
  }
  // Eq checks on the driving scan handle repeated variables within the
  // atom, e.g. p(X, X): the first occurrence binds, later ones compare.
  for (const EqCheck& c : rule.scan_eq_checks) {
    if (driving[c.col] != regs[c.reg * stride + lane]) return false;
  }
  return true;
}

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_PIPELINE_H_
