// PipelineExecutor: the paper's Sec. 5(2) — DL-style pipelining inside
// the RDBMS. The compiled plan's stages (fused operator UDFs) run as
// a stream pipeline: one worker per stage, connected by bounded queues
// of micro-batches, each worker executing its stage through the same
// HybridExecutor::RunStage entry a whole-batch run loops over — same
// kernels, fused epilogues, int8/sparse arms and top-k heads, same
// per-stage statistics.
//
// This is the *other* parallelism regime the paper contrasts with the
// RDBMS's data parallelism: peak memory is bounded by
//   stages x queue_capacity x micro-batch activation size
// instead of whole-batch activations, and no global shuffle is needed
// between operators. (With one worker per stage it also overlaps
// stage compute across micro-batches on multicore hosts.)

#ifndef RELSERVE_ENGINE_PIPELINE_EXECUTOR_H_
#define RELSERVE_ENGINE_PIPELINE_EXECUTOR_H_

#include <cstdint>

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/physical_plan.h"
#include "tensor/tensor.h"

namespace relserve {

struct PipelineConfig {
  // Rows per in-flight micro-batch.
  int64_t micro_batch_rows = 64;
  // Bounded queue depth between adjacent stages (backpressure).
  int64_t queue_capacity = 2;
};

class PipelineExecutor {
 public:
  // Runs the compiled plan as a stage-per-worker stream pipeline over
  // `input` ([batch, sample...]). The plan must be all-UDF (stages
  // execute whole micro-batch tensors). Returns the assembled
  // [batch, out...] prediction; bit-identical to HybridExecutor::Run
  // over the same micro-batch slices.
  static Result<Tensor> Run(const PhysicalPlan& plan,
                            const Tensor& input, ExecContext* ctx,
                            PipelineConfig config = PipelineConfig());
};

}  // namespace relserve

#endif  // RELSERVE_ENGINE_PIPELINE_EXECUTOR_H_
