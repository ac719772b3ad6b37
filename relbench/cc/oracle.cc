#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace relbench {

using relserve::OpKind;
using relserve::Result;
using relserve::Status;

Result<OracleNet> OracleNet::FromModel(const relserve::Model& model) {
  OracleNet net;
  if (model.sample_shape().ndim() != 1) {
    return Status::InvalidArgument("oracle: rank-1 samples only");
  }
  net.in_dim_ = model.sample_shape().dim(0);
  int64_t width = net.in_dim_;
  for (const relserve::Node& node : model.nodes()) {
    Layer layer;
    switch (node.kind) {
      case OpKind::kInput:
        continue;
      case OpKind::kMatMul:
      case OpKind::kBiasAdd: {
        RELSERVE_ASSIGN_OR_RETURN(const relserve::Tensor* w,
                                  model.GetWeight(node.weight_name));
        const float* data = w->data();
        layer.w.assign(data, data + w->NumElements());
        if (node.kind == OpKind::kMatMul) {
          layer.kind = Layer::kMatMul;
          layer.out = w->shape().dim(0);
          layer.in = w->shape().dim(1);
          if (layer.in != width) {
            return Status::InvalidArgument("oracle: width mismatch");
          }
          width = layer.out;
        } else {
          layer.kind = Layer::kBias;
          layer.out = w->NumElements();
        }
        break;
      }
      case OpKind::kRelu:
        layer.kind = Layer::kRelu;
        break;
      case OpKind::kSoftmax:
        layer.kind = Layer::kSoftmax;
        break;
      default:
        return Status::InvalidArgument("oracle: unsupported op");
    }
    net.layers_.push_back(std::move(layer));
  }
  net.out_dim_ = width;
  return net;
}

std::vector<double> OracleNet::Forward(const float* x) const {
  std::vector<double> cur(x, x + in_dim_);
  std::vector<double> next;
  for (const Layer& layer : layers_) {
    switch (layer.kind) {
      case Layer::kMatMul:
        next.assign(layer.out, 0.0);
        for (int64_t o = 0; o < layer.out; ++o) {
          const double* row = layer.w.data() + o * layer.in;
          double acc = 0;
          for (int64_t i = 0; i < layer.in; ++i) acc += row[i] * cur[i];
          next[o] = acc;
        }
        cur.swap(next);
        break;
      case Layer::kBias:
        for (int64_t o = 0; o < layer.out; ++o) cur[o] += layer.w[o];
        break;
      case Layer::kRelu:
        for (double& v : cur) v = std::max(0.0, v);
        break;
      case Layer::kSoftmax: {
        const double top = *std::max_element(cur.begin(), cur.end());
        double sum = 0;
        for (double& v : cur) sum += (v = std::exp(v - top));
        for (double& v : cur) v /= sum;
        break;
      }
    }
  }
  return cur;
}

std::vector<std::vector<double>> OracleNet::ForwardRows(
    const float* x, int64_t n, int threads) const {
  std::vector<std::vector<double>> out(n);
  std::vector<std::thread> pool;
  const int t = std::max(1, threads);
  for (int k = 0; k < t; ++k) {
    pool.emplace_back([&, k] {
      for (int64_t r = k; r < n; r += t) out[r] = Forward(x + r * in_dim_);
    });
  }
  for (std::thread& th : pool) th.join();
  return out;
}

bool Close(const float* got, const std::vector<double>& want,
           int64_t n) {
  if (static_cast<int64_t>(want.size()) != n) return false;
  for (int64_t i = 0; i < n; ++i) {
    const double g = got[i];
    if (!std::isfinite(g) ||
        std::fabs(g - want[i]) >
            kAbsTolerance + kRelTolerance * std::fabs(want[i])) {
      return false;
    }
  }
  return true;
}

bool ClassMatches(int64_t cls, const std::vector<double>& probs) {
  if (cls < 0 || cls >= static_cast<int64_t>(probs.size())) return false;
  const double best = *std::max_element(probs.begin(), probs.end());
  return probs[cls] >= best - 2 * kAbsTolerance;
}

std::string CheckSelectVisibility(int64_t lo, int64_t hi,
                                  int64_t start_ns, int64_t end_ns,
                                  const std::vector<int64_t>& returned,
                                  const std::map<int64_t, IdTimes>& ids) {
  std::vector<int64_t> sorted = returned;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate id in SELECT result";
  }
  for (int64_t id : sorted) {
    if (id < lo || id >= hi) {
      return "id " + std::to_string(id) + " outside the WHERE range";
    }
    auto it = ids.find(id);
    if (it == ids.end()) {
      return "id " + std::to_string(id) + " was never inserted";
    }
    if (it->second.begin_ns > end_ns) {
      return "id " + std::to_string(id) +
             " returned by a SELECT that ended before its insert began";
    }
  }
  for (auto it = ids.lower_bound(lo); it != ids.end() && it->first < hi;
       ++it) {
    if (it->second.ack_ns != 0 && it->second.ack_ns < start_ns &&
        !std::binary_search(sorted.begin(), sorted.end(), it->first)) {
      return "id " + std::to_string(it->first) +
             " acknowledged before the SELECT began but missing";
    }
  }
  return "";
}

std::string CheckCacheReply(
    int request, const float* got, int64_t width,
    const std::vector<std::vector<int>>& neighbors,
    const std::vector<std::vector<double>>& oracle) {
  for (int p : neighbors[request]) {
    if (Close(got, oracle[p], width)) return "";
  }
  return "cached reply for pool input " + std::to_string(request) +
         " matches no pooled input within max_distance";
}

std::string CheckRecovered(const std::map<int64_t, int64_t>& want,
                           const std::map<int64_t, int64_t>& got) {
  for (const auto& [id, tag] : want) {
    auto it = got.find(id);
    if (it == got.end()) {
      return "acknowledged id " + std::to_string(id) + " not recovered";
    }
    if (it->second != tag) {
      return "id " + std::to_string(id) + " recovered with tag " +
             std::to_string(it->second) + ", acknowledged " +
             std::to_string(tag);
    }
  }
  for (const auto& [id, tag] : got) {
    if (want.count(id) == 0) {
      return "recovered id " + std::to_string(id) +
             " was never acknowledged";
    }
  }
  return "";
}

}  // namespace relbench
