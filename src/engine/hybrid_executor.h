// HybridExecutor: the stage runner over compiled physical plans.
//
// This is the paper's "middle ground": any subgraph may execute
// UDF-centric (whole tensors in the working arena) or
// relation-centric (block relations through the buffer pool), with
// transitions between the two. A plan of all-UDF nodes is the pure
// UDF-centric architecture; all-relational is the pure
// relation-centric architecture; the adaptive optimizer emits mixes.
//
// All of those decisions are taken once, at deploy time, by
// PhysicalPlan::Compile. Serving a request is a flat loop over the
// compiled stages — no graph walking, no per-request dispatch on
// op kind x representation, elementwise chains fused into their
// producer — that records per-stage wall time, rows and bytes into
// the plan's StageStats (rendered by EXPLAIN ANALYZE) and totals
// into ExecStats.
//
// Every allocation on the UDF path is charged to the context arena, so
// an operator whose whole-tensor footprint exceeds the arena comes
// back as Status::OutOfMemory — the Table 3 outcome. A storage-tier
// failure inside a relation-centric stage re-executes just that stage
// UDF-centric (same math, same bits), preserving PR-4's graceful
// degradation.

#ifndef RELSERVE_ENGINE_HYBRID_EXECUTOR_H_
#define RELSERVE_ENGINE_HYBRID_EXECUTOR_H_

#include <memory>

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/physical_plan.h"
#include "storage/block_store.h"
#include "tensor/tensor.h"

namespace relserve {

// The result of an inference: whole tensor if the final stage ran
// UDF-centric, block relation if it ran relation-centric (a
// larger-than-memory output stays blocked, as LandCover's feature map
// must).
struct ExecOutput {
  Tensor tensor;
  std::unique_ptr<BlockStore> store;

  bool blocked() const { return store != nullptr; }

  // Materializes the output as a whole tensor (assembling a blocked
  // result through the arena, which may OOM if it truly does not fit).
  Result<Tensor> ToTensor(ExecContext* ctx) const;
};

// The rolling activation between compiled stages: exactly one of
// tensor/store set.
struct Activation {
  Tensor tensor;
  std::unique_ptr<BlockStore> store;
  // Whether `tensor` is writable (false while it aliases the caller's
  // input buffer).
  bool owned = false;

  bool blocked() const { return store != nullptr; }
};

class HybridExecutor {
 public:
  // `input` is the batched feature tensor, batch on dim 0, sample
  // dims matching the model's sample shape.
  static Result<ExecOutput> Run(const PhysicalPlan& plan,
                                const Tensor& input, ExecContext* ctx);

  // Runs on an input that is already a block relation
  // ([batch, sample_width]) — used when the batch itself exceeds the
  // working arena and was streamed into the store straight from a
  // table scan, never materialized whole.
  static Result<ExecOutput> RunOnStore(
      const PhysicalPlan& plan, std::unique_ptr<BlockStore> input_store,
      ExecContext* ctx);

  // Executes one compiled stage over `act` (`batch` rows), transforming
  // it in place: the stage kernel, the UDF re-execution of a
  // relation-centric stage after a storage failure, and the
  // StageStats / ExecStats recording. Run is a loop of these calls;
  // PipelineExecutor's stage workers make one per micro-batch.
  static Status RunStage(const PhysicalStage& stage, int64_t batch,
                         Activation* act, ExecContext* ctx);
};

}  // namespace relserve

#endif  // RELSERVE_ENGINE_HYBRID_EXECUTOR_H_
