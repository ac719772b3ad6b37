#include "serving/model_versions.h"

#include <algorithm>
#include <set>

#include "engine/hybrid_executor.h"
#include "storage/quantize.h"
#include "workloads/datasets.h"

namespace relserve {

namespace {

// Runs a model whole-tensor on `input` through the session's context.
Result<Tensor> ProbeRun(ServingSession* session, const Model& model,
                        const Tensor& input) {
  ExecContext* ctx = session->exec_context();
  RELSERVE_ASSIGN_OR_RETURN(
      std::unique_ptr<PhysicalPlan> plan,
      PhysicalPlan::Compile(
          &model, MakeForcedPlan(model, Repr::kUdf, input.shape().dim(0)),
          ctx));
  RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                            HybridExecutor::Run(*plan, input, ctx));
  return out.ToTensor(ctx);
}

}  // namespace

Result<std::vector<ModelVersion>> CreateQuantizedVersion(
    ServingSession* session, const std::string& base_model,
    int64_t probe_batch, uint64_t seed) {
  RELSERVE_ASSIGN_OR_RETURN(const Model* base,
                            session->GetModel(base_model));
  // Rebuild the graph with quantize/dequantize-roundtripped weights.
  Model quantized(base_model + "@int8", base->sample_shape());
  for (const Node& node : base->nodes()) {
    if (node.kind == OpKind::kInput) {
      quantized.AddNode(OpKind::kInput);
    } else {
      quantized.AddNode(node.kind, node.weight_name, node.stride,
                        node.input);
    }
  }
  // Only matmul weights are worth compressing — they dominate the
  // footprint. Everything else (biases, conv kernels) is carried over
  // as a buffer-sharing copy of the base tensor, byte-identical, so
  // deploy-time binding through the shared PhysicalBlockIndex dedups
  // those layers against the base model's deployment.
  std::set<std::string> matmul_weights;
  for (const Node& node : base->nodes()) {
    if (node.kind == OpKind::kMatMul && !node.weight_name.empty()) {
      matmul_weights.insert(node.weight_name);
    }
  }
  int64_t quantized_bytes = 0;
  for (const auto& [name, weight] : base->weights()) {
    if (matmul_weights.count(name) == 0) {
      // Shared with the base: no marginal bytes for this version.
      RELSERVE_RETURN_NOT_OK(quantized.AddWeight(name, weight));
      continue;
    }
    RELSERVE_ASSIGN_OR_RETURN(QuantizedTensor q,
                              QuantizeUniform8(weight));
    quantized_bytes += q.ByteSize() + static_cast<int64_t>(
        2 * sizeof(float));  // scale + offset
    RELSERVE_ASSIGN_OR_RETURN(Tensor restored, Dequantize(q));
    RELSERVE_RETURN_NOT_OK(quantized.AddWeight(name, std::move(restored)));
  }

  // Measure the output deviation on a probe batch.
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor probe,
      workloads::GenBatch(probe_batch, base->sample_shape(), seed));
  RELSERVE_ASSIGN_OR_RETURN(Tensor reference,
                            ProbeRun(session, *base, probe));
  RELSERVE_ASSIGN_OR_RETURN(Tensor approx,
                            ProbeRun(session, quantized, probe));
  const float error = reference.MaxAbsDiff(approx);

  std::vector<ModelVersion> versions;
  versions.push_back(
      ModelVersion{base_model, base->TotalWeightBytes(), 0.0f});
  versions.push_back(ModelVersion{quantized.name(), quantized_bytes,
                                  error});
  RELSERVE_RETURN_NOT_OK(session->RegisterModel(std::move(quantized)));
  return versions;
}

Result<std::string> SelectVersionForSla(
    const std::vector<ModelVersion>& versions, float max_error) {
  const ModelVersion* best = nullptr;
  for (const ModelVersion& v : versions) {
    if (v.max_output_error > max_error) continue;
    if (best == nullptr || v.weight_bytes < best->weight_bytes) {
      best = &v;
    }
  }
  if (best == nullptr) {
    return Status::NotFound("no model version satisfies error bound " +
                            std::to_string(max_error));
  }
  return best->model_name;
}

}  // namespace relserve
