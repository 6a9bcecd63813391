#ifndef PPDBSCAN_SMC_INNER_PRODUCT_H_
#define PPDBSCAN_SMC_INNER_PRODUCT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "common/random.h"
#include "common/status.h"
#include "crypto/paillier.h"

namespace ppdbscan {

/// The helper's half of HDP's Multiplication Protocol (§4.2), folded over
/// the coordinates. The responder sends E(y_kj) under its own key for each
/// of its points k; for a driver point x the helper returns one cipher per
/// pair,
///
///     E(x·y_k) = Π_j E(y_kj)^{x_j} · r^n        (fresh r per pair),
///
/// and the responder decrypts that single value. It learns exactly the sum
/// Σ_j x_j·y_kj it recovered from the paper's zero-sum-masked
/// per-coordinate shares: those shares were uniform given the sum, so they
/// told it nothing more. A negative x_j raises the cipher's inverse to
/// |x_j| (PaillierContext::NegateBatch) instead of a full-width exponent.
/// HdpBatchDriver, MembershipBatchDriver and ArbitraryPairDriver all use
/// this one helper.
class InnerProductCiphers {
 public:
  /// Takes the responder's row-major `rows` × `dims` matrix under `peer`'s
  /// key (which must outlive the helper). Fails kDataLoss unless
  /// every cipher is a unit mod n²: a non-unit can power to 0, which no
  /// homomorphic step accepts. Every cipher is inverted once here, so all
  /// queries reusing the matrix share the inversions.
  static Result<InnerProductCiphers> Create(const PaillierContext& peer,
                                            std::vector<BigInt> matrix,
                                            size_t rows, size_t dims);

  /// E(x·y_k) for every query x in queries[first, first + count) and every
  /// row k, query-major (index (q − first)·rows + k). The per-pair
  /// randomizers are drawn from `rng` serially in that order.
  Result<std::vector<BigInt>> Products(
      const std::vector<std::vector<int64_t>>& queries, size_t first,
      size_t count, SecureRng& rng) const;

 private:
  InnerProductCiphers(const PaillierContext& peer, std::vector<BigInt> matrix,
                      std::vector<BigInt> negated, size_t rows, size_t dims);

  const PaillierContext* peer_;
  std::vector<BigInt> matrix_;
  std::vector<BigInt> negated_;  // negated_[i] = matrix_[i]⁻¹ mod n²
  size_t rows_;
  size_t dims_;
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_SMC_INNER_PRODUCT_H_
