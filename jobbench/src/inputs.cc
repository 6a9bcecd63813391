#include "inputs.h"

#include <vector>

#include "data/fixed_point.h"
#include "data/generators.h"

namespace jobbench {
namespace {

using namespace ppdbscan;

constexpr double kCenterSpan = 4.5;  // |center coordinate| <= this
constexpr double kNoiseSpan = 7.0;   // |noise coordinate| <= this

/// `count` signs per dimension, half of them negative, shuffled per
/// dimension: signs[i][t] for item i, dimension t.
std::vector<std::vector<double>> BalancedSigns(SecureRng& rng, size_t count,
                                               size_t dims) {
  std::vector<std::vector<double>> signs(count, std::vector<double>(dims));
  for (size_t t = 0; t < dims; ++t) {
    std::vector<double> column(count, 1.0);
    for (size_t i = 0; i < count / 2; ++i) column[i] = -1.0;
    for (size_t i = count; i > 1; --i) {
      std::swap(column[i - 1], column[rng.UniformU64(i)]);
    }
    for (size_t i = 0; i < count; ++i) signs[i][t] = column[i];
  }
  return signs;
}

}  // namespace

Dataset MakeBalancedBlobs(SecureRng& rng, size_t clusters, size_t per_cluster,
                          size_t noise, size_t dims) {
  RawDataset raw;
  raw.dims = dims;
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * rng.NextDouble();
  };
  // Slot i of `count` equal slots over [-half, half], jittered within its
  // middle half: the first coordinate is spread evenly, symmetric about 0.
  const auto slot = [&](size_t i, size_t count, double half) {
    const double width = 2 * half / static_cast<double>(count);
    return -half + width * (static_cast<double>(i) + uniform(0.25, 0.75));
  };
  const std::vector<std::vector<double>> center_signs =
      BalancedSigns(rng, clusters, dims);
  for (size_t k = 0; k < clusters; ++k) {
    std::vector<double> center(dims);
    center[0] = slot(k, clusters, kCenterSpan);
    for (size_t t = 1; t < dims; ++t) {
      center[t] = center_signs[k][t] * uniform(1.5, kCenterSpan);
    }
    for (size_t i = 0; i < per_cluster; ++i) {
      std::vector<double> p(dims);
      for (size_t t = 0; t < dims; ++t) {
        p[t] = center[t] + 0.5 * rng.NextGaussian();
      }
      raw.points.push_back(std::move(p));
      raw.true_labels.push_back(static_cast<int>(k));
    }
  }
  const std::vector<std::vector<double>> noise_signs =
      BalancedSigns(rng, noise, dims);
  for (size_t i = 0; i < noise; ++i) {
    std::vector<double> p(dims);
    p[0] = slot(i, noise, kNoiseSpan);
    for (size_t t = 1; t < dims; ++t) {
      p[t] = noise_signs[i][t] * uniform(0, kNoiseSpan);
    }
    raw.points.push_back(std::move(p));
    raw.true_labels.push_back(-1);
  }
  Result<Dataset> encoded = FixedPointEncoder(kEncoderScale).Encode(raw);
  PPD_CHECK(encoded.ok());
  return std::move(*encoded);
}

}  // namespace jobbench
