// The correctness oracle, built apart from the program: a
// double-precision forward pass of a feed-forward model read only
// through Model::GetWeight, plus the property checks the workloads
// apply to what they observed. Every check is a pure function over
// recorded observations so the self-test can feed it corrupted ones.
#ifndef RELBENCH_ORACLE_H_
#define RELBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/model.h"

namespace relbench {

// Outputs are softmax probabilities in [0, 1]; fp32 serving differs
// from the double reference by accumulated rounding only.
inline constexpr double kAbsTolerance = 2e-5;
inline constexpr double kRelTolerance = 1e-3;

class OracleNet {
 public:
  // Accepts chains of Input, MatMul, BiasAdd, Relu and Softmax nodes.
  static relserve::Result<OracleNet> FromModel(const relserve::Model& m);

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }
  std::vector<double> Forward(const float* x) const;
  // Rows of a [n, in_dim] row-major input, spread over `threads`.
  std::vector<std::vector<double>> ForwardRows(const float* x, int64_t n,
                                               int threads) const;

 private:
  struct Layer {
    enum Kind { kMatMul, kBias, kRelu, kSoftmax } kind;
    int64_t out = 0, in = 0;
    std::vector<double> w;  // [out, in] for kMatMul, [out] for kBias
  };
  std::vector<Layer> layers_;
  int64_t in_dim_ = 0;
  int64_t out_dim_ = 0;
};

// True when `got` matches `want` elementwise within the tolerances.
bool Close(const float* got, const std::vector<double>& want,
           int64_t n);
// True when `cls` is an arg-max of `probs` (ties within tolerance
// accept either class).
bool ClassMatches(int64_t cls, const std::vector<double>& probs);

// --- Property checks (return "" when the property holds) ------------

// One SELECT over the id range [lo, hi): `returned` ids; the harness
// knows, per id, when its insert began and when it was acknowledged.
struct IdTimes {
  int64_t begin_ns = 0;
  int64_t ack_ns = 0;  // 0 = never acknowledged
};
std::string CheckSelectVisibility(int64_t lo, int64_t hi,
                                  int64_t start_ns, int64_t end_ns,
                                  const std::vector<int64_t>& returned,
                                  const std::map<int64_t, IdTimes>& ids);

// A cached read of pool input `request` answered with `got`: some
// pooled input within `max_distance` of the request must have an
// oracle output equal to `got`. `neighbors[request]` lists them.
std::string CheckCacheReply(
    int request, const float* got, int64_t width,
    const std::vector<std::vector<int>>& neighbors,
    const std::vector<std::vector<double>>& oracle);

// After recovery: exactly the acknowledged ids, each with its last
// acknowledged tag.
std::string CheckRecovered(const std::map<int64_t, int64_t>& want_tags,
                           const std::map<int64_t, int64_t>& got_tags);

}  // namespace relbench

#endif  // RELBENCH_ORACLE_H_
