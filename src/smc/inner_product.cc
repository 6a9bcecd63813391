#include "smc/inner_product.h"

#include <utility>

#include "common/thread_pool.h"

namespace ppdbscan {

InnerProductCiphers::InnerProductCiphers(const PaillierContext& peer,
                                         std::vector<BigInt> matrix,
                                         std::vector<BigInt> negated,
                                         size_t rows, size_t dims)
    : peer_(&peer),
      matrix_(std::move(matrix)),
      negated_(std::move(negated)),
      rows_(rows),
      dims_(dims) {}

Result<InnerProductCiphers> InnerProductCiphers::Create(
    const PaillierContext& peer, std::vector<BigInt> matrix, size_t rows,
    size_t dims) {
  if (matrix.size() != rows * dims) {
    return Status::InvalidArgument("inner-product matrix size mismatch");
  }
  Result<std::vector<BigInt>> negated = peer.NegateBatch(matrix);
  if (!negated.ok()) return Status::DataLoss("cipher not invertible");
  return InnerProductCiphers(peer, std::move(matrix),
                             std::move(negated).value(), rows, dims);
}

Result<std::vector<BigInt>> InnerProductCiphers::Products(
    const std::vector<std::vector<int64_t>>& queries, size_t first,
    size_t count, SecureRng& rng) const {
  for (size_t q = first; q < first + count; ++q) {
    if (queries[q].size() != dims_) {
      return Status::InvalidArgument("inner-product query dimension mismatch");
    }
  }
  std::vector<BigInt> products(count * rows_);
  ParallelFor(products.size(), [&](size_t i) {
    const std::vector<int64_t>& x = queries[first + i / rows_];
    const size_t row = (i % rows_) * dims_;
    // Every factor is a unit (Create checked), so the product stays a
    // valid ciphertext.
    BigInt product(1);
    for (size_t j = 0; j < dims_; ++j) {
      if (x[j] == 0) continue;
      const BigInt& base = x[j] < 0 ? negated_[row + j] : matrix_[row + j];
      product = peer_->Add(product, peer_->MulPlain(base, BigInt(x[j]).Abs()));
    }
    products[i] = std::move(product);
  });
  return peer_->RerandomizeBatch(products, rng);
}

}  // namespace ppdbscan
