#include "smc/comparator.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ppdbscan {
namespace {

using testing_util::MakeSessionPair;
using testing_util::RunTwoParty;
using testing_util::SessionPair;

class ComparatorTest : public ::testing::TestWithParam<ComparatorKind> {
 protected:
  static void SetUpTestSuite() {
    pair_ = new SessionPair(MakeSessionPair(256, 128));
  }
  static SessionPair* pair_;

  struct Pieces {
    std::unique_ptr<SecureComparator> alice;
    std::unique_ptr<SecureComparator> bob;
  };

  Pieces Make(const ComparatorOptions& options) {
    Pieces pieces;
    Result<std::unique_ptr<SecureComparator>> a =
        CreateComparator(options, *pair_->alice, *pair_->alice_rng);
    Result<std::unique_ptr<SecureComparator>> b =
        CreateComparator(options, *pair_->bob, *pair_->bob_rng);
    PPD_CHECK(a.ok() && b.ok());
    pieces.alice = std::move(*a);
    pieces.bob = std::move(*b);
    return pieces;
  }

  std::pair<Result<bool>, Status> RunOnce(Pieces& pieces, const BigInt& x_q,
                                          const BigInt& x_p,
                                          const BigInt& threshold) {
    return RunTwoParty<Result<bool>, Status>(
        *pair_,
        [&](Channel& ch, const SmcSession&, SecureRng&) {
          return pieces.alice->QuerierCompare(ch, x_q, threshold);
        },
        [&](Channel& ch, const SmcSession&, SecureRng&) {
          return pieces.bob->PeerAssist(ch, x_p);
        });
  }
};
SessionPair* ComparatorTest::pair_ = nullptr;

TEST_P(ComparatorTest, TruthTableSweep) {
  ComparatorOptions options;
  options.kind = GetParam();
  options.magnitude_bound = BigInt(64);
  options.blinding_bits = 20;
  Pieces pieces = Make(options);
  for (int64_t x_q : {-20, -1, 0, 3, 20}) {
    for (int64_t x_p : {-20, 0, 1, 20}) {
      for (int64_t t : {-41, -1, 0, 7, 41}) {
        auto [bit, assist] = RunOnce(pieces, BigInt(x_q), BigInt(x_p),
                                     BigInt(t));
        ASSERT_TRUE(bit.ok()) << bit.status();
        ASSERT_TRUE(assist.ok()) << assist;
        EXPECT_EQ(*bit, x_q + x_p <= t)
            << "x_q=" << x_q << " x_p=" << x_p << " t=" << t;
      }
    }
  }
}

TEST_P(ComparatorTest, ExactBoundaryBehaviour) {
  ComparatorOptions options;
  options.kind = GetParam();
  options.magnitude_bound = BigInt(1000);
  Pieces pieces = Make(options);
  // Equality must report <= (the protocols compare dist² <= Eps²).
  auto [eq, s1] = RunOnce(pieces, BigInt(500), BigInt(-100), BigInt(400));
  ASSERT_TRUE(eq.ok() && s1.ok());
  EXPECT_TRUE(*eq);
  auto [above, s2] = RunOnce(pieces, BigInt(500), BigInt(-99), BigInt(400));
  ASSERT_TRUE(above.ok() && s2.ok());
  EXPECT_FALSE(*above);
}

TEST_P(ComparatorTest, InvocationCounter) {
  ComparatorOptions options;
  options.kind = GetParam();
  options.magnitude_bound = BigInt(10);
  Pieces pieces = Make(options);
  for (int k = 0; k < 3; ++k) {
    auto [bit, assist] = RunOnce(pieces, BigInt(1), BigInt(1), BigInt(5));
    ASSERT_TRUE(bit.ok() && assist.ok());
  }
  EXPECT_EQ(pieces.alice->invocations(), 3u);
  EXPECT_EQ(pieces.bob->invocations(), 3u);
  pieces.alice->ResetInvocations();
  EXPECT_EQ(pieces.alice->invocations(), 0u);
}

TEST_P(ComparatorTest, BatchMatchesTruthTable) {
  ComparatorOptions options;
  options.kind = GetParam();
  options.magnitude_bound = BigInt(64);
  options.blinding_bits = 20;
  Pieces pieces = Make(options);
  // Shared threshold, per-element querier/peer values — the HDP shape
  // (same S_A against many responder points).
  const BigInt threshold(7);
  std::vector<int64_t> xq = {0, 0, 0, -20, 20, 3, 3, 3};
  std::vector<int64_t> xp = {-20, 7, 8, 20, -20, 4, 5, 0};
  std::vector<BigInt> xqs, xps;
  for (size_t i = 0; i < xq.size(); ++i) {
    xqs.push_back(BigInt(xq[i]));
    xps.push_back(BigInt(xp[i]));
  }
  // Each element in a batch uses xqs[i] on the querier side; every element
  // here keeps x_q identical per call pair on both sides of the protocol.
  auto [bits, assist] = RunTwoParty<Result<std::vector<bool>>, Status>(
      *pair_,
      [&](Channel& ch, const SmcSession&, SecureRng&) {
        return pieces.alice->QuerierCompareBatch(ch, xqs, threshold);
      },
      [&](Channel& ch, const SmcSession&, SecureRng&) {
        return pieces.bob->PeerAssistBatch(ch, xps);
      });
  ASSERT_TRUE(bits.ok()) << bits.status();
  ASSERT_TRUE(assist.ok()) << assist;
  ASSERT_EQ(bits->size(), xq.size());
  for (size_t i = 0; i < xq.size(); ++i) {
    EXPECT_EQ((*bits)[i], xq[i] + xp[i] <= 7)
        << "i=" << i << " x_q=" << xq[i] << " x_p=" << xp[i];
  }
  // Batch counts every element as one invocation, matching the serial path.
  EXPECT_EQ(pieces.alice->invocations(), xq.size());
  EXPECT_EQ(pieces.bob->invocations(), xp.size());

  // Empty batches are no-ops that touch neither channel nor counters.
  auto [empty_bits, empty_assist] =
      RunTwoParty<Result<std::vector<bool>>, Status>(
          *pair_,
          [&](Channel& ch, const SmcSession&, SecureRng&) {
            return pieces.alice->QuerierCompareBatch(ch, {}, threshold);
          },
          [&](Channel& ch, const SmcSession&, SecureRng&) {
            return pieces.bob->PeerAssistBatch(ch, {});
          });
  ASSERT_TRUE(empty_bits.ok() && empty_assist.ok());
  EXPECT_TRUE(empty_bits->empty());
  EXPECT_EQ(pieces.alice->invocations(), xq.size());
}

TEST_P(ComparatorTest, GroupedBatchMatchesTruthTable) {
  // Runs of `group` comparisons share one querier value (the HDP and
  // membership shape). Flight caps of 7 cut groups of 3 and 20 mid-run;
  // the results must not depend on where the cuts fall.
  const BigInt threshold(7);
  const size_t total = 45;
  for (size_t flight : {size_t{0}, size_t{7}, size_t{256}}) {
    for (size_t group : {size_t{1}, size_t{3}, size_t{20}}) {
      ComparatorOptions options;
      options.kind = GetParam();
      options.magnitude_bound = BigInt(64);
      options.blinding_bits = 20;
      options.max_batch_in_flight = flight;
      Pieces pieces = Make(options);
      std::vector<BigInt> xqs, xps;
      std::vector<bool> want;
      for (size_t i = 0; i < total; ++i) {
        const int64_t xq = static_cast<int64_t>((i / group) % 5) * 5 - 10;
        const int64_t xp = static_cast<int64_t>((i * 7) % 31) - 15;
        xqs.push_back(BigInt(xq));
        xps.push_back(BigInt(xp));
        want.push_back(xq + xp <= 7);
      }
      auto [bits, assist] = RunTwoParty<Result<std::vector<bool>>, Status>(
          *pair_,
          [&](Channel& ch, const SmcSession&, SecureRng&) {
            return pieces.alice->QuerierCompareBatch(ch, xqs, threshold,
                                                     group);
          },
          [&](Channel& ch, const SmcSession&, SecureRng&) {
            return pieces.bob->PeerAssistBatch(ch, xps, group);
          });
      ASSERT_TRUE(bits.ok()) << bits.status();
      ASSERT_TRUE(assist.ok()) << assist;
      EXPECT_EQ(*bits, want) << "flight=" << flight << " group=" << group;
    }
  }
}

TEST_P(ComparatorTest, GroupedBatchRejectsDifferingQuerierValues) {
  ComparatorOptions options;
  options.kind = GetParam();
  options.magnitude_bound = BigInt(64);
  Pieces pieces = Make(options);
  // Validation fires before the first send, so no peer is needed.
  Result<std::vector<bool>> bits = pieces.alice->QuerierCompareBatch(
      *pair_->alice_channel, {BigInt(1), BigInt(2)}, BigInt(7), 2);
  EXPECT_EQ(bits.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ComparatorTest,
    ::testing::Values(ComparatorKind::kYmpp, ComparatorKind::kBlindedPaillier,
                      ComparatorKind::kIdeal),
    [](const auto& info) {
      return std::string(ComparatorKindToString(info.param));
    });

TEST(ComparatorModularTest, ModularSharesSupported) {
  // Blinded and ideal backends must accept mod-n additive shares whose raw
  // magnitudes are huge but whose reconstructed difference is small — the
  // §5 protocol's share regime.
  SessionPair pair = MakeSessionPair(256, 128);
  SecureRng rng(17);
  const BigInt n = pair.alice->own_paillier_ctx().pub().n;
  for (ComparatorKind kind :
       {ComparatorKind::kBlindedPaillier, ComparatorKind::kIdeal}) {
    ComparatorOptions options;
    options.kind = kind;
    options.magnitude_bound = BigInt(1) << 24;
    auto alice_cmp = CreateComparator(options, *pair.alice, *pair.alice_rng);
    auto bob_cmp = CreateComparator(options, *pair.bob, *pair.bob_rng);
    ASSERT_TRUE(alice_cmp.ok() && bob_cmp.ok());
    for (int iter = 0; iter < 8; ++iter) {
      int64_t dist = static_cast<int64_t>(rng.UniformU64(1000));
      int64_t eps = static_cast<int64_t>(rng.UniformU64(1000));
      BigInt v = BigInt::RandomBelow(rng, n);            // uniform mask
      BigInt u = (BigInt(dist) + v).Mod(n);              // share of dist
      auto [bit, assist] = testing_util::RunTwoParty<Result<bool>, Status>(
          pair,
          [&](Channel& ch, const SmcSession&, SecureRng&) {
            return (*alice_cmp)->QuerierCompare(ch, u, BigInt(eps));
          },
          [&](Channel& ch, const SmcSession&, SecureRng&) {
            return (*bob_cmp)->PeerAssist(ch, -v);
          });
      ASSERT_TRUE(bit.ok()) << bit.status();
      ASSERT_TRUE(assist.ok());
      EXPECT_EQ(*bit, dist <= eps) << "dist=" << dist << " eps=" << eps;
    }
  }
}

TEST(ComparatorCreateTest, YmppRejectsHugeBounds) {
  SessionPair pair = MakeSessionPair(128, 128);
  ComparatorOptions options;
  options.kind = ComparatorKind::kYmpp;
  options.magnitude_bound = BigInt(1) << 40;
  EXPECT_FALSE(CreateComparator(options, *pair.alice, *pair.alice_rng).ok());
}

TEST(ComparatorCreateTest, BlindedRejectsOverflowingConfig) {
  SessionPair pair = MakeSessionPair(128, 128);
  ComparatorOptions options;
  options.kind = ComparatorKind::kBlindedPaillier;
  options.magnitude_bound = BigInt(1) << 100;
  options.blinding_bits = 64;  // ρ·δ would exceed n/2 for 128-bit n
  EXPECT_FALSE(CreateComparator(options, *pair.alice, *pair.alice_rng).ok());
}

TEST(ComparatorCreateTest, RejectsNonPositiveBound) {
  SessionPair pair = MakeSessionPair(128, 128);
  ComparatorOptions options;
  options.magnitude_bound = BigInt(0);
  EXPECT_FALSE(CreateComparator(options, *pair.alice, *pair.alice_rng).ok());
}

TEST(ComparatorYmppBoundsTest, OutOfRangeInputsAbortBothSides) {
  SessionPair pair = MakeSessionPair(128, 128);
  ComparatorOptions options;
  options.kind = ComparatorKind::kYmpp;
  options.magnitude_bound = BigInt(10);
  auto alice_cmp = CreateComparator(options, *pair.alice, *pair.alice_rng);
  auto bob_cmp = CreateComparator(options, *pair.bob, *pair.bob_rng);
  ASSERT_TRUE(alice_cmp.ok() && bob_cmp.ok());
  auto [bit, assist] = testing_util::RunTwoParty<Result<bool>, Status>(
      pair,
      [&](Channel& ch, const SmcSession&, SecureRng&) {
        return (*alice_cmp)->QuerierCompare(ch, BigInt(100), BigInt(0));
      },
      [&](Channel& ch, const SmcSession&, SecureRng&) {
        return (*bob_cmp)->PeerAssist(ch, BigInt(1));
      });
  EXPECT_EQ(bit.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(assist.code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace ppdbscan
