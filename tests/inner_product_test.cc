// The folded HDP Multiplication Protocol: one inner-product cipher per pair
// (smc/inner_product.h) under HdpBatchDriver, MembershipBatchDriver and
// ArbitraryPairDriver, its batch Paillier primitives, and the HDP driver's
// decoder against a hostile responder.

#include "smc/inner_product.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/codec.h"
#include "core/distance_protocols.h"
#include "core/wire.h"
#include "net/message.h"
#include "smc/comparator.h"
#include "smc/membership.h"
#include "test_util.h"

namespace ppdbscan {
namespace {

using testing_util::MakeSessionPair;
using testing_util::RunTwoParty;
using testing_util::SessionPair;

class InnerProductTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new SessionPair(MakeSessionPair(256, 128));
  }
  static SessionPair* pair_;

  struct Comparators {
    std::unique_ptr<SecureComparator> alice;
    std::unique_ptr<SecureComparator> bob;
  };

  static Comparators MakeComparators(SessionPair* pair = pair_) {
    ComparatorOptions options;
    options.kind = ComparatorKind::kBlindedPaillier;
    options.magnitude_bound = BigInt(int64_t{1} << 40);
    Result<std::unique_ptr<SecureComparator>> a =
        CreateComparator(options, *pair->alice, *pair->alice_rng);
    Result<std::unique_ptr<SecureComparator>> b =
        CreateComparator(options, *pair->bob, *pair->bob_rng);
    PPD_CHECK(a.ok() && b.ok());
    return {std::move(*a), std::move(*b)};
  }

  /// Alice's key context, from Bob's side (Bob encrypts under it).
  static const PaillierContext& AliceKey() { return pair_->bob->peer_paillier(); }
};
SessionPair* InnerProductTest::pair_ = nullptr;

/// Deterministic mixed-sign points with zeros: coordinate j of point k.
std::vector<std::vector<int64_t>> MixedSignPoints(size_t count, size_t dims,
                                                  int64_t salt) {
  std::vector<std::vector<int64_t>> points(count,
                                           std::vector<int64_t>(dims));
  for (size_t k = 0; k < count; ++k) {
    for (size_t j = 0; j < dims; ++j) {
      const int64_t v =
          static_cast<int64_t>((k * 7 + j * 5 + static_cast<size_t>(salt)) %
                               11) -
          5;  // in [-5, 5], zero included
      points[k][j] = v;
    }
  }
  return points;
}

int64_t Dist2(const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
  int64_t d2 = 0;
  for (size_t j = 0; j < a.size(); ++j) d2 += (a[j] - b[j]) * (a[j] - b[j]);
  return d2;
}

Dataset ToDataset(const std::vector<std::vector<int64_t>>& points,
                  size_t dims) {
  Dataset ds(dims);
  for (const std::vector<int64_t>& p : points) PPD_CHECK(ds.Add(p).ok());
  return ds;
}

TEST_F(InnerProductTest, BatchPrimitivesMatchSerial) {
  const PaillierContext& ctx = AliceKey();
  SecureRng rng(5);
  std::vector<BigInt> cs;
  for (int64_t m : {0, 1, 7, 123456}) {
    cs.push_back(*ctx.Encrypt(BigInt(m), rng));
  }
  Result<std::vector<BigInt>> negated = ctx.NegateBatch(cs);
  ASSERT_TRUE(negated.ok()) << negated.status();
  for (size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ((*negated)[i], *ctx.Negate(cs[i])) << i;
  }
  SecureRng batch_rng(6), serial_rng(6);
  Result<std::vector<BigInt>> fresh = ctx.RerandomizeBatch(cs, batch_rng);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  for (size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ((*fresh)[i], *ctx.Rerandomize(cs[i], serial_rng)) << i;
    EXPECT_NE((*fresh)[i], cs[i]) << i;
  }

  // n (a multiple of both primes) has no inverse mod n²; 0 is no cipher.
  std::vector<BigInt> hostile = cs;
  hostile.push_back(ctx.pub().n);
  EXPECT_EQ(ctx.NegateBatch(hostile).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ctx.NegateBatch({BigInt()}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ctx.RerandomizeBatch({BigInt()}, rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(InnerProductTest, ProductsDecryptToInnerProducts) {
  const PaillierContext& ctx = AliceKey();
  SecureRng rng(7);
  for (size_t dims : {1u, 2u, 3u, 5u}) {
    const std::vector<std::vector<int64_t>> ys = MixedSignPoints(4, dims, 1);
    const std::vector<std::vector<int64_t>> xs = MixedSignPoints(3, dims, 4);
    std::vector<BigInt> plain;
    for (const std::vector<int64_t>& y : ys) {
      for (int64_t v : y) plain.push_back(BigInt(v));
    }
    Result<std::vector<BigInt>> matrix = ctx.EncryptSignedBatch(plain, rng);
    ASSERT_TRUE(matrix.ok());
    Result<InnerProductCiphers> ip =
        InnerProductCiphers::Create(ctx, *matrix, ys.size(), dims);
    ASSERT_TRUE(ip.ok()) << ip.status();
    // Queries 1 and 2 only: the range arguments pick a slice.
    Result<std::vector<BigInt>> products = ip->Products(xs, 1, 2, rng);
    ASSERT_TRUE(products.ok()) << products.status();
    ASSERT_EQ(products->size(), 2 * ys.size());
    for (size_t q = 1; q < 3; ++q) {
      for (size_t k = 0; k < ys.size(); ++k) {
        int64_t want = 0;
        for (size_t j = 0; j < dims; ++j) want += xs[q][j] * ys[k][j];
        Result<BigInt> got = pair_->alice->own_paillier().DecryptSigned(
            (*products)[(q - 1) * ys.size() + k]);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, BigInt(want)) << "dims=" << dims << " q=" << q
                                      << " k=" << k;
      }
    }
  }
}

TEST_F(InnerProductTest, NonUnitMatrixIsDataLoss) {
  const PaillierContext& ctx = AliceKey();
  Result<InnerProductCiphers> ip = InnerProductCiphers::Create(
      ctx, {BigInt(1), ctx.pub().n}, 1, 2);
  EXPECT_EQ(ip.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(InnerProductCiphers::Create(ctx, {BigInt(1)}, 1, 2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(InnerProductTest, HdpDriverRejectsNonUnitCiphers) {
  // A responder sending E(y) = n makes n^3 ≡ 0 mod n²; the driver must
  // name that before any homomorphic step sees it, not abort the process.
  SessionPair pair = MakeSessionPair(256, 128, /*seed=*/77);
  Comparators comparators = MakeComparators(&pair);
  auto [count, script] = RunTwoParty<Result<size_t>, bool>(
      pair,
      [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
        return HdpBatchDriver(ch, session, *comparators.alice, {3, 2}, 25,
                              rng);
      },
      [&](Channel& ch, const SmcSession& session, SecureRng&) {
        const BigInt& n = session.own_paillier_ctx().pub().n;
        ByteWriter out;
        out.PutU32(1);
        out.PutU32(2);
        WriteBigInt(out, n);
        WriteBigInt(out, n);
        return SendMessage(ch, wire::kHdpCiphers, out).ok();
      },
      /*close_on_return=*/true);
  EXPECT_TRUE(script);
  EXPECT_EQ(count.status().code(), StatusCode::kDataLoss) << count.status();
  EXPECT_NE(count.status().message().find("HDP cipher not invertible"),
            std::string::npos)
      << count.status();
}

TEST_F(InnerProductTest, HdpCountsMatchPlaintextOverMixedSigns) {
  for (size_t dims : {1u, 2u, 3u, 5u}) {
    const std::vector<std::vector<int64_t>> ys = MixedSignPoints(9, dims, 2);
    const Dataset own = ToDataset(ys, dims);
    for (const std::vector<int64_t>& x : MixedSignPoints(3, dims, 6)) {
      const int64_t eps2 = 20;
      size_t want = 0;
      for (const std::vector<int64_t>& y : ys) want += Dist2(x, y) <= eps2;
      Comparators comparators = MakeComparators();
      auto [count, status] = RunTwoParty<Result<size_t>, Status>(
          *pair_,
          [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
            return HdpBatchDriver(ch, session, *comparators.alice, x, eps2,
                                  rng);
          },
          [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
            return HdpBatchResponder(ch, session, *comparators.bob, own, rng);
          });
      ASSERT_TRUE(count.ok()) << count.status();
      ASSERT_TRUE(status.ok()) << status;
      EXPECT_EQ(*count, want) << "dims=" << dims;
    }
  }
}

TEST_F(InnerProductTest, MembershipCountsMatchPlaintextOverMixedSigns) {
  for (size_t dims : {1u, 2u, 3u, 5u}) {
    const std::vector<std::vector<int64_t>> ys = MixedSignPoints(9, dims, 3);
    const std::vector<std::vector<int64_t>> xs = MixedSignPoints(4, dims, 8);
    const int64_t eps2 = 20;
    std::vector<size_t> want(xs.size(), 0);
    for (size_t q = 0; q < xs.size(); ++q) {
      for (const std::vector<int64_t>& y : ys) want[q] += Dist2(xs[q], y) <= eps2;
    }
    Comparators comparators = MakeComparators();
    auto [counts, status] = RunTwoParty<Result<std::vector<size_t>>, Status>(
        *pair_,
        [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
          return MembershipBatchDriver(ch, session, *comparators.alice, xs,
                                       eps2, rng);
        },
        [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
          return MembershipBatchResponder(ch, session, *comparators.bob, ys,
                                          rng);
        });
    ASSERT_TRUE(counts.ok()) << counts.status();
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(*counts, want) << "dims=" << dims;
  }
}

TEST_F(InnerProductTest, ArbitraryPairBitsMatchPlaintextOverMixedSigns) {
  // Two records, every cell given to one party by a fixed pattern, so the
  // pair mixes same-owner and cross-owner attributes.
  for (size_t dims : {1u, 2u, 3u, 5u}) {
    const std::vector<std::vector<int64_t>> records =
        MixedSignPoints(2, dims, 5);
    ArbitraryPartyView alice{dims, {}, {}}, bob{dims, {}, {}};
    for (size_t r = 0; r < 2; ++r) {
      alice.values.emplace_back(dims, 0);
      bob.values.emplace_back(dims, 0);
      alice.owned.emplace_back(dims, 0);
      bob.owned.emplace_back(dims, 0);
      for (size_t t = 0; t < dims; ++t) {
        ArbitraryPartyView& owner = (r + t * 3) % 4 < 2 ? alice : bob;
        owner.values[r][t] = records[r][t];
        owner.owned[r][t] = 1;
      }
    }
    const int64_t d2 = Dist2(records[0], records[1]);
    for (int64_t eps2 : {d2 - 1, d2, d2 + 1}) {
      Comparators comparators = MakeComparators();
      auto [bit, status] = RunTwoParty<Result<bool>, Status>(
          *pair_,
          [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
            return ArbitraryPairDriver(ch, session, *comparators.alice, alice,
                                       0, 1, eps2, rng);
          },
          [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
            return ArbitraryPairResponder(ch, session, *comparators.bob, bob,
                                          0, 1, rng);
          });
      ASSERT_TRUE(bit.ok()) << bit.status();
      ASSERT_TRUE(status.ok()) << status;
      EXPECT_EQ(*bit, d2 <= eps2) << "dims=" << dims << " eps2=" << eps2;
    }
  }
}

}  // namespace
}  // namespace ppdbscan
