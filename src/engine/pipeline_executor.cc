#include "engine/pipeline_executor.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/hybrid_executor.h"
#include "resource/bounded_queue.h"

namespace relserve {

namespace {

struct Chunk {
  int64_t row_offset = 0;
  Activation act;  // whole tensor, [rows, sample dims of the stage]
};

using ChunkQueue = BoundedQueue<Chunk>;

// First error wins; later errors are dropped.
class ErrorSlot {
 public:
  void Set(Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.ok()) first_ = std::move(status);
  }
  Status Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  std::mutex mu_;
  Status first_;
};

}  // namespace

Result<Tensor> PipelineExecutor::Run(const PhysicalPlan& plan,
                                     const Tensor& input,
                                     ExecContext* ctx,
                                     PipelineConfig config) {
  if (input.shape().ndim() < 1) {
    return Status::InvalidArgument("input must have a batch dimension");
  }
  if (config.micro_batch_rows <= 0 || config.queue_capacity <= 0) {
    return Status::InvalidArgument("bad pipeline configuration");
  }
  if (!plan.logical_plan().AllUdf()) {
    return Status::InvalidArgument(
        "pipeline stages execute whole micro-batches; compile the "
        "model with the UDF representation");
  }
  const std::vector<std::unique_ptr<PhysicalStage>>& stages =
      plan.stages();
  const int num_stages = static_cast<int>(stages.size());
  if (num_stages < 1) {
    return Status::InvalidArgument("model has no operators");
  }
  const int64_t batch = input.shape().dim(0);
  const int64_t sample_width = input.NumElements() / batch;
  std::vector<int64_t> out_dims = {batch};
  out_dims.insert(out_dims.end(), plan.output_sample().begin(),
                  plan.output_sample().end());
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor output,
      Tensor::Create(Shape(std::move(out_dims)), ctx->tracker));
  const int64_t out_width = output.NumElements() / batch;

  // One queue feeding each stage plus one carrying the final output.
  std::vector<std::unique_ptr<ChunkQueue>> queues;
  queues.reserve(num_stages + 1);
  for (int i = 0; i <= num_stages; ++i) {
    queues.push_back(std::make_unique<ChunkQueue>(
        static_cast<size_t>(config.queue_capacity)));
  }
  ErrorSlot error;
  auto abort_all = [&queues]() {
    for (auto& q : queues) q->Close();
  };

  std::vector<std::thread> workers;
  workers.reserve(num_stages + 1);

  // Producer: slices the input into micro-batches.
  workers.emplace_back([&, batch, sample_width]() {
    for (int64_t row = 0; row < batch;
         row += config.micro_batch_rows) {
      const int64_t rows =
          std::min(config.micro_batch_rows, batch - row);
      auto chunk = Tensor::Create(Shape{rows, sample_width},
                                  ctx->tracker);
      if (!chunk.ok()) {
        error.Set(chunk.status());
        abort_all();
        return;
      }
      std::memcpy(chunk->data(),
                  input.data() + row * sample_width,
                  rows * sample_width * sizeof(float));
      Activation act{std::move(*chunk), nullptr, /*owned=*/true};
      if (!queues[0]->Push(Chunk{row, std::move(act)})) return;
    }
    queues[0]->Close();
  });

  // One worker per compiled stage.
  for (int stage = 0; stage < num_stages; ++stage) {
    workers.emplace_back([&, stage]() {
      while (true) {
        std::optional<Chunk> chunk = queues[stage]->Pop();
        if (!chunk.has_value()) break;  // upstream done or aborted
        const int64_t rows = chunk->act.tensor.shape().dim(0);
        Status s = HybridExecutor::RunStage(*stages[stage], rows,
                                            &chunk->act, ctx);
        if (!s.ok()) {
          error.Set(std::move(s));
          abort_all();
          return;
        }
        if (!queues[stage + 1]->Push(std::move(*chunk))) return;
      }
      queues[stage + 1]->Close();
    });
  }

  // Collector (this thread): scatter finished chunks into the output.
  while (true) {
    std::optional<Chunk> chunk = queues[num_stages]->Pop();
    if (!chunk.has_value()) break;
    const int64_t rows = chunk->act.tensor.NumElements() / out_width;
    std::memcpy(output.data() + chunk->row_offset * out_width,
                chunk->act.tensor.data(),
                rows * out_width * sizeof(float));
  }
  for (std::thread& w : workers) w.join();

  RELSERVE_RETURN_NOT_OK(error.Get());
  return output;
}

}  // namespace relserve
