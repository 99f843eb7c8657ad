#include "runtime/pipeline.h"

#include "common/logging.h"

namespace dcdatalog {

void PreparePipeline(const PhysicalRule& rule, PipelineContext* ctx) {
  ctx->scan_rels.clear();
  bool any = false;
  for (const Step& step : rule.steps) {
    if (step.kind == StepKind::kScanBase ||
        step.kind == StepKind::kAntiJoinScan) {
      any = true;
      break;
    }
  }
  if (!any) return;  // Keep the common index-join case allocation-free.
  ctx->scan_rels.resize(rule.steps.size(), nullptr);
  for (size_t i = 0; i < rule.steps.size(); ++i) {
    const Step& step = rule.steps[i];
    if (step.kind != StepKind::kScanBase &&
        step.kind != StepKind::kAntiJoinScan) {
      continue;
    }
    const Relation* rel = ctx->catalog->Find(step.relation);
    DCD_CHECK(rel != nullptr);
    ctx->scan_rels[i] = rel;
  }
}

}  // namespace dcdatalog
