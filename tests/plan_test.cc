#include "core/plan.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"
#include "eval/plan_eval.h"

namespace ppdbscan {
namespace {

Dataset MakePoints(const std::vector<std::vector<int64_t>>& points) {
  Dataset ds(points.empty() ? 1 : points[0].size());
  for (const auto& p : points) PPD_CHECK(ds.Add(p).ok());
  return ds;
}

TEST(PlanModeTest, StringRoundTrip) {
  for (PlanMode mode : {PlanMode::kExact, PlanMode::kPrune, PlanMode::kSieve}) {
    Result<PlanMode> back = PlanModeFromString(PlanModeToString(mode));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, mode);
  }
  EXPECT_EQ(PlanModeFromString("quantum").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SieveIndicesTest, PartitionProperties) {
  EXPECT_EQ(SievedIndices(7, 3), (std::vector<size_t>{0, 3, 6}));
  EXPECT_EQ(LeftoverIndices(7, 3), (std::vector<size_t>{1, 2, 4, 5}));
  EXPECT_EQ(SievedCount(7, 3), 3u);
  EXPECT_TRUE(SievedIndices(0, 2).empty());
  EXPECT_EQ(SievedCount(0, 2), 0u);
  // Sieved + leftover partition [0, n) for a sweep of (n, k).
  for (size_t n : {1u, 2u, 5u, 16u, 17u}) {
    for (uint32_t k : {2u, 3u, 4u, 7u}) {
      std::vector<size_t> sieved = SievedIndices(n, k);
      std::vector<size_t> leftover = LeftoverIndices(n, k);
      EXPECT_EQ(sieved.size(), SievedCount(n, k));
      EXPECT_EQ(sieved.size() + leftover.size(), n);
      std::vector<bool> seen(n, false);
      for (size_t i : sieved) seen[i] = true;
      for (size_t i : leftover) {
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
      }
      for (size_t i = 0; i < n; ++i) EXPECT_TRUE(seen[i]);
    }
  }
}

TEST(SubsetDatasetTest, PicksIndexedPoints) {
  Dataset ds = MakePoints({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  Dataset sub = SubsetDataset(ds, {0, 2});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.point(0), ds.point(0));
  EXPECT_EQ(sub.point(1), ds.point(2));
  EXPECT_EQ(sub.dims(), ds.dims());
  EXPECT_EQ(SubsetDataset(ds, {}).size(), 0u);
}

TEST(BoundingBoxCodecTest, RoundTrip) {
  BoundingBox box{{-5, 0}, {3, 7}};
  ByteWriter out;
  WriteBoundingBox(out, box);
  ByteReader reader(out.data());
  Result<BoundingBox> back = ReadBoundingBox(reader, 2);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->lo, box.lo);
  EXPECT_EQ(back->hi, box.hi);
  EXPECT_TRUE(reader.Done());
}

TEST(BoundingBoxCodecTest, EmptyBox) {
  ByteWriter out;
  WriteBoundingBox(out, BoundingBox{});
  ByteReader reader(out.data());
  Result<BoundingBox> back = ReadBoundingBox(reader, 2);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(BoundingBoxCodecTest, RejectsInvertedBounds) {
  BoundingBox bad{{5}, {1}};  // lo > hi: never produced by ComputeBoundingBox
  ByteWriter out;
  WriteBoundingBox(out, bad);
  ByteReader reader(out.data());
  EXPECT_EQ(ReadBoundingBox(reader, 1).status().code(), StatusCode::kDataLoss);
}

TEST(PlanStatsTest, SavedFractionClampsAndSummarizes) {
  PlanStats stats;
  stats.mode = PlanMode::kPrune;
  EXPECT_EQ(stats.SavedFraction(), 0.0);  // exact == 0
  stats.exact_comparisons = 1000;
  stats.encrypted_comparisons = 250;
  EXPECT_DOUBLE_EQ(stats.SavedFraction(), 0.75);
  stats.encrypted_comparisons = 2000;  // merge can exceed the scan model
  EXPECT_EQ(stats.SavedFraction(), 0.0);
  EXPECT_NE(stats.Summary().find("plan[prune]"), std::string::npos);
  stats.mode = PlanMode::kSieve;
  stats.sieve_k = 4;
  EXPECT_NE(stats.Summary().find("plan[sieve k=4]"), std::string::npos);
}

/// A batched core-test hook fake: local counts only, no peer density.
Result<std::vector<bool>> LocalCoreFlags(const std::vector<size_t>& own_full,
                                         const DbscanParams& params) {
  std::vector<bool> core;
  for (size_t count : own_full) core.push_back(count >= params.min_pts);
  return core;
}

TEST(RunSievePlanTest, MatchesLocalDbscanOnSeparatedBlobs) {
  // Without peer density (core_test = local count only), the sieve plan on
  // two tight blobs must reproduce plain DBSCAN exactly: sieved points scan,
  // leftovers attach to the first sieved core within eps.
  Dataset ds = MakePoints({{0, 0}, {1, 0}, {0, 1}, {1, 1},
                           {50, 50}, {51, 50}, {50, 51}, {51, 51}});
  DbscanParams params{2, 2};
  SievePeerHooks hooks;
  hooks.core_test = [&](const std::vector<std::vector<int64_t>>&,
                        const std::vector<size_t>& own_full) {
    return LocalCoreFlags(own_full, params);
  };
  hooks.membership = [](const std::vector<std::vector<int64_t>>& queries)
      -> Result<std::vector<size_t>> {
    ADD_FAILURE() << "membership round must not run: every leftover has a "
                     "sieved local core";
    return std::vector<size_t>(queries.size(), 0);
  };
  PlanStats stats;
  Result<DbscanResult> got = RunSievePlan(ds, params, 2, hooks, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  DbscanResult exact = RunDbscan(ds, params);
  EXPECT_EQ(got->labels, exact.labels);
  EXPECT_EQ(got->num_clusters, 2u);
  EXPECT_EQ(stats.sieve_assigned_local, 4u);
  EXPECT_EQ(stats.sieve_rescued, 0u);
  EXPECT_EQ(stats.sieve_noise, 0u);
  EXPECT_EQ(stats.rescue_queries, 0u);
}

TEST(RunSievePlanTest, RescueRoundPromotesPeerDenseLeftover) {
  // Leftover {100, 100} has no sieved local core within eps and too few own
  // neighbours, so it lands in the batched rescue round; the peer count the
  // hook returns is k-scaled and makes it core.
  Dataset ds = MakePoints({{0, 0}, {100, 100}});
  DbscanParams params{2, 3};
  size_t membership_calls = 0;
  SievePeerHooks hooks;
  hooks.core_test = [&](const std::vector<std::vector<int64_t>>&,
                        const std::vector<size_t>& own_full) {
    return LocalCoreFlags(own_full, params);  // peer sees nothing
  };
  hooks.membership = [&](const std::vector<std::vector<int64_t>>& queries)
      -> Result<std::vector<size_t>> {
    ++membership_calls;
    EXPECT_EQ(queries.size(), 1u);
    EXPECT_EQ(queries[0], (std::vector<int64_t>{100, 100}));
    return std::vector<size_t>{2};  // own_full 1 + k·2 = 5 >= 3
  };
  PlanStats stats;
  Result<DbscanResult> got = RunSievePlan(ds, params, 2, hooks, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->labels, (Labels{kNoise, 0}));
  EXPECT_FALSE(got->is_core[0]);
  EXPECT_TRUE(got->is_core[1]);
  EXPECT_EQ(membership_calls, 1u);
  EXPECT_EQ(stats.rescue_queries, 1u);
  EXPECT_EQ(stats.sieve_rescued, 1u);
  EXPECT_EQ(stats.sieve_noise, 0u);

  // Same data, peer sees nothing either: the leftover must become noise.
  hooks.membership = [](const std::vector<std::vector<int64_t>>& queries)
      -> Result<std::vector<size_t>> {
    return std::vector<size_t>(queries.size(), 0);
  };
  PlanStats noise_stats;
  Result<DbscanResult> noise = RunSievePlan(ds, params, 2, hooks,
                                            &noise_stats);
  ASSERT_TRUE(noise.ok());
  EXPECT_EQ(noise->labels, (Labels{kNoise, kNoise}));
  EXPECT_EQ(noise_stats.sieve_noise, 1u);
}

TEST(RunSievePlanTest, DeterministicAcrossReruns) {
  SecureRng rng(77);
  Dataset ds(2);
  for (size_t i = 0; i < 60; ++i) {
    PPD_CHECK(ds.Add({static_cast<int64_t>(rng.UniformU64(40)),
                      static_cast<int64_t>(rng.UniformU64(40))}).ok());
  }
  DbscanParams params{9, 4};
  SievePeerHooks hooks;
  hooks.core_test = [&](const std::vector<std::vector<int64_t>>&,
                        const std::vector<size_t>& own_full) {
    return LocalCoreFlags(own_full, params);
  };
  hooks.membership = [](const std::vector<std::vector<int64_t>>& queries)
      -> Result<std::vector<size_t>> {
    return std::vector<size_t>(queries.size(), 0);
  };
  Result<DbscanResult> a = RunSievePlan(ds, params, 3, hooks, nullptr);
  Result<DbscanResult> b = RunSievePlan(ds, params, 3, hooks, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->is_core, b->is_core);
}

TEST(SimulateHorizontalPartyTest, PeerDensityCountsTowardCoreStatus) {
  // Plaintext mirror of HorizontalTest.PeerDensityCountsTowardCoreStatus:
  // Alice's lone point is core only because Bob's points raise the count.
  Dataset alice = MakePoints({{0, 0}});
  Dataset bob = MakePoints({{1, 0}, {0, 1}});
  DbscanResult with_peer = SimulateHorizontalParty(alice, {&bob}, {2, 3});
  EXPECT_EQ(with_peer.labels[0], 0);
  EXPECT_TRUE(with_peer.is_core[0]);
  DbscanResult alone = SimulateHorizontalParty(alice, {}, {2, 3});
  EXPECT_EQ(alone.labels[0], kNoise);
}

TEST(SimulateHorizontalPartyTest, NoPeersMatchesPlainDbscan) {
  SecureRng rng(5);
  Dataset ds(2);
  for (size_t i = 0; i < 80; ++i) {
    PPD_CHECK(ds.Add({static_cast<int64_t>(rng.UniformU64(30)),
                      static_cast<int64_t>(rng.UniformU64(30))}).ok());
  }
  DbscanParams params{4, 3};
  DbscanResult sim = SimulateHorizontalParty(ds, {}, params);
  DbscanResult exact = RunDbscan(ds, params);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(sim.labels, exact.labels), 1.0);
  EXPECT_EQ(sim.num_clusters, exact.num_clusters);
}

}  // namespace
}  // namespace ppdbscan
