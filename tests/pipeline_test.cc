#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "engine/hybrid_executor.h"
#include "engine/pipeline_executor.h"
#include "graph/model.h"
#include "graph/model_zoo.h"
#include "resource/bounded_queue.h"
#include "resource/thread_pool.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 4; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, PopAfterCloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  q.Close();
  EXPECT_FALSE(q.Push(2));
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, BackpressureBlocksProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    q.Push(2);
    second_pushed = true;
  });
  // Producer must be blocked while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.Push(2));  // woken by Close, push fails
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : tracker_("pipeline") { ctx_.tracker = &tracker_; }

  Result<std::unique_ptr<PhysicalPlan>> CompileUdf(const Model& model) {
    return PhysicalPlan::Compile(
        &model, MakeForcedPlan(model, Repr::kUdf, 0), &ctx_);
  }

  Result<Tensor> RunBatch(const PhysicalPlan& plan, const Tensor& input) {
    RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                              HybridExecutor::Run(plan, input, &ctx_));
    return out.ToTensor(&ctx_);
  }

  // The exact reference for a pipelined run: HybridExecutor::Run over
  // the same micro-batch slices, one after another, concatenated.
  Result<Tensor> RunSliceLoop(const PhysicalPlan& plan,
                              const Tensor& input, int64_t micro) {
    const int64_t batch = input.shape().dim(0);
    const int64_t in_width = input.NumElements() / batch;
    std::vector<int64_t> out_dims = {batch};
    for (int64_t d : plan.output_sample()) out_dims.push_back(d);
    RELSERVE_ASSIGN_OR_RETURN(Tensor output,
                              Tensor::Create(Shape(std::move(out_dims))));
    const int64_t out_width = output.NumElements() / batch;
    for (int64_t row = 0; row < batch; row += micro) {
      const int64_t rows = std::min(micro, batch - row);
      std::vector<int64_t> dims = input.shape().dims();
      dims[0] = rows;
      RELSERVE_ASSIGN_OR_RETURN(Tensor slice,
                                Tensor::Create(Shape(std::move(dims))));
      std::memcpy(slice.data(), input.data() + row * in_width,
                  rows * in_width * sizeof(float));
      RELSERVE_ASSIGN_OR_RETURN(Tensor out, RunBatch(plan, slice));
      std::memcpy(output.data() + row * out_width, out.data(),
                  rows * out_width * sizeof(float));
    }
    return output;
  }

  MemoryTracker tracker_;
  ExecContext ctx_;
};

TEST_F(PipelineTest, MatchesBatchExecutionFfnn) {
  auto model = BuildFFNN("m", {12, 24, 5}, 3);
  ASSERT_TRUE(model.ok());
  auto plan = CompileUdf(*model);
  ASSERT_TRUE(plan.ok());
  auto input = workloads::GenBatch(100, Shape{12}, 7);
  ASSERT_TRUE(input.ok());
  auto batch = RunBatch(**plan, *input);
  ASSERT_TRUE(batch.ok());
  PipelineConfig config;
  config.micro_batch_rows = 16;  // ragged tail: 100 = 6*16 + 4
  auto piped = PipelineExecutor::Run(**plan, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok()) << piped.status();
  EXPECT_EQ(piped->shape(), batch->shape());
  EXPECT_LT(batch->MaxAbsDiff(*piped), 1e-6f);
}

TEST_F(PipelineTest, MatchesBatchExecutionCnn) {
  auto model = zoo::BuildCachingCnn(2);
  ASSERT_TRUE(model.ok());
  auto plan = CompileUdf(*model);
  ASSERT_TRUE(plan.ok());
  auto input = workloads::GenBatch(10, Shape{28, 28, 1}, 5);
  ASSERT_TRUE(input.ok());
  auto batch = RunBatch(**plan, *input);
  ASSERT_TRUE(batch.ok());
  PipelineConfig config;
  config.micro_batch_rows = 3;
  auto piped = PipelineExecutor::Run(**plan, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok()) << piped.status();
  EXPECT_LT(batch->MaxAbsDiff(*piped), 1e-5f);
}

// Pipelined output is bit-identical to running the plan serially over
// the same micro-batch slices — also with stage workers sharing an
// intra-op pool. (Against the whole batch it is only close: micro-
// and whole-batch GEMMs block differently.)
TEST_F(PipelineTest, BitIdenticalToSerialSliceLoop) {
  auto model = BuildFFNN("m", {96, 160, 160, 12}, 5);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(300, Shape{96}, 8);
  ASSERT_TRUE(input.ok());
  for (int threads : {0, 2}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    ctx_.pool = pool.get();
    auto plan = CompileUdf(*model);
    ASSERT_TRUE(plan.ok());
    PipelineConfig config;
    config.micro_batch_rows = 64;  // ragged tail: 300 = 4*64 + 44
    auto piped = PipelineExecutor::Run(**plan, *input, &ctx_, config);
    ASSERT_TRUE(piped.ok()) << piped.status();
    ctx_.pool = nullptr;
    auto serial = RunSliceLoop(**plan, *input, 64);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_EQ(piped->shape(), serial->shape());
    EXPECT_EQ(serial->MaxAbsDiff(*piped), 0.0f) << threads << " threads";
  }
}

// Stage workers record through the same entry as Run: one invocation
// per micro-batch on every compiled stage.
TEST_F(PipelineTest, StageStatsCountEveryChunk) {
  auto model = BuildFFNN("m", {12, 24, 5}, 3);
  ASSERT_TRUE(model.ok());
  auto plan = CompileUdf(*model);
  ASSERT_TRUE(plan.ok());
  auto input = workloads::GenBatch(100, Shape{12}, 7);
  ASSERT_TRUE(input.ok());
  PipelineConfig config;
  config.micro_batch_rows = 16;  // 7 chunks
  ASSERT_TRUE(PipelineExecutor::Run(**plan, *input, &ctx_, config).ok());
  ASSERT_FALSE((*plan)->stages().empty());
  for (const auto& stage : (*plan)->stages()) {
    EXPECT_EQ(stage->stats.invocations.load(), 7) << stage->label;
    EXPECT_EQ(stage->stats.rows.load(), 100) << stage->label;
  }
  EXPECT_EQ(ctx_.stats.stages_executed.load(),
            7 * static_cast<int64_t>((*plan)->stages().size()));
}

// Compiled kernel arms stream like any other stage: an int8 matmul
// (no fp32 copy of its weight is kept) and a fused top-k head (the
// pipeline emits the packed [batch, 2k] row).
TEST_F(PipelineTest, StreamsInt8ArmAndTopKHead) {
  auto model = BuildFFNN("m", {24, 48, 10}, 4);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(70, Shape{24}, 2);
  ASSERT_TRUE(input.ok());
  InferencePlan int8 = MakeForcedPlan(*model, Repr::kUdf, 0);
  int8.decisions[1].arm = KernelArm::kInt8;  // first matmul
  InferencePlan topk = MakeForcedPlan(*model, Repr::kUdf, 0);
  topk.decisions[4].topk = 3;  // head matmul (+bias+softmax fused)
  for (InferencePlan* logical : {&int8, &topk}) {
    auto plan = PhysicalPlan::Compile(&*model, *logical, &ctx_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    PipelineConfig config;
    config.micro_batch_rows = 16;
    auto piped = PipelineExecutor::Run(**plan, *input, &ctx_, config);
    ASSERT_TRUE(piped.ok()) << piped.status();
    auto serial = RunSliceLoop(**plan, *input, 16);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_EQ(piped->shape(), serial->shape());
    EXPECT_EQ(serial->MaxAbsDiff(*piped), 0.0f);
  }
  auto head = PhysicalPlan::Compile(&*model, topk, &ctx_);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ((*head)->stages().back()->kind, StageKind::kMatMulTopK);
  EXPECT_EQ((*head)->output_sample(), (std::vector<int64_t>{6}));
}

class PipelineChunkSweep : public PipelineTest,
                           public ::testing::WithParamInterface<int64_t> {
};

TEST_P(PipelineChunkSweep, AnyMicroBatchSizeIsEquivalent) {
  auto model = BuildFFNN("m", {8, 16, 4}, 9);
  ASSERT_TRUE(model.ok());
  auto plan = CompileUdf(*model);
  ASSERT_TRUE(plan.ok());
  auto input = workloads::GenBatch(37, Shape{8}, 1);
  ASSERT_TRUE(input.ok());
  auto batch = RunBatch(**plan, *input);
  ASSERT_TRUE(batch.ok());
  PipelineConfig config;
  config.micro_batch_rows = GetParam();
  auto piped = PipelineExecutor::Run(**plan, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok());
  EXPECT_LT(batch->MaxAbsDiff(*piped), 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineChunkSweep,
                         ::testing::Values(1, 2, 5, 16, 37, 64));

TEST_F(PipelineTest, BoundedPeakMemory) {
  // A deep-ish model over a big batch: the pipeline's peak arena use
  // must stay near (stages x queue x micro-batch), far below the
  // whole-batch activations.
  auto model = BuildFFNN("m", {256, 512, 512, 8}, 1);
  ASSERT_TRUE(model.ok());
  auto plan = CompileUdf(*model);
  ASSERT_TRUE(plan.ok());
  auto input = workloads::GenBatch(2048, Shape{256}, 4);
  ASSERT_TRUE(input.ok());

  tracker_.ResetPeak();
  auto batch = RunBatch(**plan, *input);
  ASSERT_TRUE(batch.ok());
  const int64_t batch_peak = tracker_.peak_bytes();

  tracker_.ResetPeak();
  PipelineConfig config;
  config.micro_batch_rows = 32;
  auto piped = PipelineExecutor::Run(**plan, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok());
  const int64_t pipe_peak = tracker_.peak_bytes();

  EXPECT_LT(batch->MaxAbsDiff(*piped), 1e-4f);
  // Pipeline holds micro-batches, not whole activations (the output
  // tensor dominates its peak).
  EXPECT_LT(pipe_peak, batch_peak / 2);
}

TEST_F(PipelineTest, RejectsRelationalPlans) {
  auto model = BuildFFNN("m", {8, 8, 2}, 1);
  ASSERT_TRUE(model.ok());
  DiskManager disk;
  BufferPool pool(&disk, 32);
  ExecContext rel_ctx = ctx_;
  rel_ctx.buffer_pool = &pool;
  auto plan = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kRelational, 0), &rel_ctx);
  ASSERT_TRUE(plan.ok());
  auto input = workloads::GenBatch(4, Shape{8}, 1);
  ASSERT_TRUE(input.ok());
  EXPECT_TRUE(PipelineExecutor::Run(**plan, *input, &rel_ctx)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PipelineTest, PropagatesStageOom) {
  auto model = BuildFFNN("m", {64, 128, 8}, 1);
  ASSERT_TRUE(model.ok());
  // Compile with an unlimited arena, then execute with a tiny one so
  // the failure happens mid-pipeline.
  auto plan = CompileUdf(*model);
  ASSERT_TRUE(plan.ok());
  auto input = workloads::GenBatch(512, Shape{64}, 1);
  ASSERT_TRUE(input.ok());
  MemoryTracker tiny("tiny", 64 * 1024);
  ExecContext tight;
  tight.tracker = &tiny;
  PipelineConfig config;
  config.micro_batch_rows = 128;
  auto out = PipelineExecutor::Run(**plan, *input, &tight, config);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsOutOfMemory());
  // Nothing leaked even on the failure path.
  EXPECT_EQ(tiny.used_bytes(), 0);
}

TEST_F(PipelineTest, RejectsBadConfig) {
  auto model = BuildFFNN("m", {4, 4, 2}, 1);
  ASSERT_TRUE(model.ok());
  auto plan = CompileUdf(*model);
  ASSERT_TRUE(plan.ok());
  auto input = workloads::GenBatch(4, Shape{4}, 1);
  ASSERT_TRUE(input.ok());
  PipelineConfig config;
  config.micro_batch_rows = 0;
  EXPECT_TRUE(PipelineExecutor::Run(**plan, *input, &ctx_, config)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace relserve
