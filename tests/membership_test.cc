#include "smc/membership.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "bigint/codec.h"
#include "net/recording_channel.h"
#include "smc/comparator.h"
#include "test_util.h"

namespace ppdbscan {
namespace {

using testing_util::MakeSessionPair;
using testing_util::RunTwoParty;
using testing_util::SessionPair;

class MembershipTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new SessionPair(MakeSessionPair(256, 128));
  }
  static SessionPair* pair_;

  struct Comparators {
    std::unique_ptr<SecureComparator> alice;
    std::unique_ptr<SecureComparator> bob;
  };

  Comparators MakeComparators(
      ComparatorKind kind = ComparatorKind::kIdeal,
      size_t max_batch_in_flight = ComparatorOptions().max_batch_in_flight) {
    ComparatorOptions options;
    options.kind = kind;
    options.magnitude_bound = BigInt(int64_t{1} << 50);
    options.max_batch_in_flight = max_batch_in_flight;
    Result<std::unique_ptr<SecureComparator>> a =
        CreateComparator(options, *pair_->alice, *pair_->alice_rng);
    Result<std::unique_ptr<SecureComparator>> b =
        CreateComparator(options, *pair_->bob, *pair_->bob_rng);
    PPD_CHECK(a.ok() && b.ok());
    return {std::move(*a), std::move(*b)};
  }

  /// Runs one membership round (Alice drives with `queries`, Bob responds
  /// with `points`) and returns {driver counts, responder status}.
  std::pair<Result<std::vector<size_t>>, Status> RunRound(
      const std::vector<std::vector<int64_t>>& queries,
      const std::vector<std::vector<int64_t>>& points, int64_t eps_squared) {
    Comparators comparators = MakeComparators();
    return RunTwoParty<Result<std::vector<size_t>>, Status>(
        *pair_,
        [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
          return MembershipBatchDriver(ch, session, *comparators.alice,
                                       queries, eps_squared, rng);
        },
        [&](Channel& ch, const SmcSession& session, SecureRng& rng) {
          return MembershipBatchResponder(ch, session, *comparators.bob,
                                          points, rng);
        });
  }

  static std::vector<size_t> BruteForce(
      const std::vector<std::vector<int64_t>>& queries,
      const std::vector<std::vector<int64_t>>& points, int64_t eps_squared) {
    std::vector<size_t> counts(queries.size(), 0);
    for (size_t q = 0; q < queries.size(); ++q) {
      for (const std::vector<int64_t>& y : points) {
        int64_t d2 = 0;
        for (size_t j = 0; j < y.size(); ++j) {
          const int64_t d = queries[q][j] - y[j];
          d2 += d * d;
        }
        if (d2 <= eps_squared) ++counts[q];
      }
    }
    return counts;
  }
};
SessionPair* MembershipTest::pair_ = nullptr;

TEST_F(MembershipTest, CountsMatchPlaintext) {
  std::vector<std::vector<int64_t>> points = {
      {0, 0}, {3, 4}, {-3, -4}, {10, 0}, {0, -10}, {7, 7}, {-1, 2}};
  std::vector<std::vector<int64_t>> queries = {
      {0, 0}, {5, 5}, {-2, -3}, {100, 100}, {10, 0}};
  const int64_t eps2 = 25;
  auto [counts, status] = RunRound(queries, points, eps2);
  ASSERT_TRUE(counts.ok()) << counts.status();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(*counts, BruteForce(queries, points, eps2));
}

TEST_F(MembershipTest, ThresholdIsInclusive) {
  // dist² == eps² must count: the planner treats membership as <= Eps,
  // matching the protocols' core tests.
  auto [counts, status] = RunRound({{0, 0}}, {{3, 4}}, 25);
  ASSERT_TRUE(counts.ok() && status.ok());
  EXPECT_EQ((*counts)[0], 1u);
  auto [counts2, status2] = RunRound({{0, 0}}, {{3, 4}}, 24);
  ASSERT_TRUE(counts2.ok() && status2.ok());
  EXPECT_EQ((*counts2)[0], 0u);
}

TEST_F(MembershipTest, EmptyQueryBatch) {
  // Q = 0 short-circuits after the begin frame — no cipher matrix moves.
  auto [counts, status] = RunRound({}, {{1, 2}, {3, 4}}, 10);
  ASSERT_TRUE(counts.ok()) << counts.status();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(counts->empty());
}

TEST_F(MembershipTest, EmptyResponder) {
  auto [counts, status] = RunRound({{0, 0}, {5, 5}}, {}, 100);
  ASSERT_TRUE(counts.ok()) << counts.status();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(*counts, (std::vector<size_t>{0, 0}));
}

TEST_F(MembershipTest, MixedDimensionQueriesRejectedBeforeAnyTraffic) {
  // Validation fires before the first send, so no responder is needed.
  Comparators comparators = MakeComparators();
  SecureRng rng(9);
  Result<std::vector<size_t>> counts = MembershipBatchDriver(
      *pair_->alice_channel, *pair_->alice, *comparators.alice,
      {{1, 2}, {3}}, 10, rng);
  EXPECT_EQ(counts.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MembershipTest, ChunkedFlightsMatchPlaintext) {
  // count > kMshMaxCiphersPerFlight / 2 leaves room for one query's
  // count inner products per flight, so three queries exercise the
  // multi-flight schedule end to end.
  const size_t count = kMshMaxCiphersPerFlight / 2 + 1;  // 1 query/flight
  std::vector<std::vector<int64_t>> points;
  points.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    points.push_back({static_cast<int64_t>(k % 200),
                      static_cast<int64_t>((k * 7) % 200)});
  }
  std::vector<std::vector<int64_t>> queries = {{0, 0}, {100, 100}, {199, 0}};
  const int64_t eps2 = 400;
  auto [counts, status] = RunRound(queries, points, eps2);
  ASSERT_TRUE(counts.ok()) << counts.status();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(*counts, BruteForce(queries, points, eps2));
}

/// Frames of `type` that `transcript` saw in `direction`, payloads only.
std::vector<std::vector<uint8_t>> FramesOf(const Transcript& transcript,
                                           TranscriptFrame::Direction direction,
                                           uint16_t type) {
  std::vector<std::vector<uint8_t>> out;
  for (const TranscriptFrame& frame : transcript.frames) {
    if (frame.direction != direction || frame.payload.size() < 2) continue;
    if ((frame.payload[0] << 8 | frame.payload[1]) != type) continue;
    out.emplace_back(frame.payload.begin() + 2, frame.payload.end());
  }
  return out;
}

TEST_F(MembershipTest, WireCarriesOneCipherPerPairAndOneQueryPerQuery) {
  // Q = 3 queries against P = 5 points in 2-D: the driver's response holds
  // Q·P inner-product ciphers (not Q·P·dims), and the blinded querier sends
  // one query cipher per query — also when flights of 4 cut the groups.
  const std::vector<std::vector<int64_t>> points = {
      {0, 0}, {3, -4}, {-3, 4}, {10, 0}, {0, -1}};
  const std::vector<std::vector<int64_t>> queries = {{0, 0}, {-2, 3}, {9, 1}};
  for (size_t flight : {size_t{256}, size_t{4}}) {
    Comparators comparators =
        MakeComparators(ComparatorKind::kBlindedPaillier, flight);
    RecordingChannel recorder(pair_->alice_channel.get());
    Status responder = Status::Internal("unset");
    std::thread bob([&] {
      responder = MembershipBatchResponder(*pair_->bob_channel, *pair_->bob,
                                           *comparators.bob, points,
                                           *pair_->bob_rng);
    });
    Result<std::vector<size_t>> counts = MembershipBatchDriver(
        recorder, *pair_->alice, *comparators.alice, queries, 25,
        *pair_->alice_rng);
    bob.join();
    ASSERT_TRUE(counts.ok()) << counts.status();
    ASSERT_TRUE(responder.ok()) << responder;
    EXPECT_EQ(*counts, BruteForce(queries, points, 25));

    const auto kSent = TranscriptFrame::Direction::kSent;
    std::vector<std::vector<uint8_t>> responses =
        FramesOf(recorder.transcript(), kSent, kMshResponse);
    ASSERT_EQ(responses.size(), 1u);
    ByteReader reader(responses[0]);
    size_t ciphers = 0;
    while (!reader.Done()) {
      ASSERT_TRUE(ReadBigInt(reader).ok());
      ++ciphers;
    }
    EXPECT_EQ(ciphers, queries.size() * points.size());
    EXPECT_EQ(FramesOf(recorder.transcript(), kSent, kBlindQuery).size(),
              queries.size())
        << "flight=" << flight;
    EXPECT_EQ(FramesOf(recorder.transcript(),
                       TranscriptFrame::Direction::kReceived, kBlindAnswer)
                  .size(),
              queries.size() * points.size());
  }
}

}  // namespace
}  // namespace ppdbscan
