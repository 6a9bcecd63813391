#include "core/horizontal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "core/run.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"
#include "eval/plan_eval.h"
#include "test_util.h"

namespace ppdbscan {
namespace {

using testing_util::MakeSessionRing;
using testing_util::RunParties;
using testing_util::SessionRing;

Dataset MakePoints(const std::vector<std::vector<int64_t>>& points) {
  Dataset ds(points.empty() ? 1 : points[0].size());
  for (const auto& p : points) PPD_CHECK(ds.Add(p).ok());
  return ds;
}

SmcOptions FastSmc() {
  SmcOptions smc;
  smc.paillier_bits = 256;
  smc.rsa_bits = 128;
  return smc;
}

ProtocolOptions FastOptions(int64_t eps_squared, size_t min_pts) {
  ProtocolOptions options;
  options.params = {eps_squared, min_pts};
  options.comparator.kind = ComparatorKind::kIdeal;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  return options;
}

/// Runs one kMultiparty job per party on an in-process mesh and returns
/// the outcomes in party order; party i's rng seed is seed_base + i.
Result<std::vector<RunOutcome>> RunMesh(const std::vector<Dataset>& parties,
                                        const ProtocolOptions& options,
                                        uint64_t seed_base = 0x9bd1) {
  std::vector<LocalJob> jobs;
  for (size_t i = 0; i < parties.size(); ++i) {
    jobs.push_back({ClusteringJob::Multiparty(parties[i], i, parties.size(),
                                              options),
                    seed_base + i});
  }
  return ExecuteLocal(jobs, FastSmc());
}

TEST(MultipartyTest, RejectsFewerThanTwoParties) {
  std::vector<Dataset> parties;
  parties.push_back(MakePoints({{0, 0}}));
  Result<std::vector<RunOutcome>> out = RunMesh(parties, FastOptions(2, 2));
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  SecureRng rng(1);
  Result<PartyClusteringResult> direct = RunHorizontalDbscan(
      {nullptr}, {nullptr}, parties[0], 0, 1, FastOptions(2, 2), rng);
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultipartyTest, RejectsEnhancedMode) {
  std::vector<Dataset> parties{MakePoints({{0, 0}}), MakePoints({{1, 0}})};
  ProtocolOptions options = FastOptions(2, 2);
  options.mode = HorizontalMode::kEnhanced;
  Result<std::vector<RunOutcome>> out = RunMesh(parties, options);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultipartyTest, RejectsCrossPartyMerge) {
  std::vector<Dataset> parties{MakePoints({{0, 0}}), MakePoints({{1, 0}})};
  ProtocolOptions options = FastOptions(2, 2);
  options.cross_party_merge = true;
  Result<std::vector<RunOutcome>> out = RunMesh(parties, options);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultipartyTest, TwoPartiesMatchTwoPartyProtocol) {
  // P = 2 must reduce exactly to RunHorizontalDbscan's output.
  Dataset alice = MakePoints({{0, 0}, {1, 0}, {0, 1}, {9, 9}});
  Dataset bob = MakePoints({{1, 1}, {10, 9}, {9, 10}});
  ProtocolOptions options = FastOptions(2, 3);

  Result<std::vector<RunOutcome>> multi = RunMesh({alice, bob}, options);
  ASSERT_TRUE(multi.ok()) << multi.status();

  Result<std::vector<RunOutcome>> two = ExecuteLocal(
      {{ClusteringJob::Horizontal(alice, PartyRole::kAlice, options), 0x0a11ce},
       {ClusteringJob::Horizontal(bob, PartyRole::kBob, options), 0x0b0b}},
      FastSmc());
  ASSERT_TRUE(two.ok()) << two.status();

  EXPECT_EQ((*multi)[0].clustering.labels, (*two)[0].clustering.labels);
  EXPECT_EQ((*multi)[1].clustering.labels, (*two)[1].clustering.labels);
  EXPECT_EQ((*multi)[0].clustering.is_core, (*two)[0].clustering.is_core);
  EXPECT_EQ((*multi)[1].clustering.is_core, (*two)[1].clustering.is_core);
}

TEST(MultipartyTest, DensityAccumulatesAcrossAllPeers) {
  // The center point is core only because THREE parties each contribute
  // one neighbour; the satellites are pairwise farther than Eps apart, so
  // each satellite sees only itself and the center (2 < MinPts = 4).
  Dataset p0 = MakePoints({{0, 0}});          // the tested point
  Dataset p1 = MakePoints({{2, 0}, {50, 0}});
  Dataset p2 = MakePoints({{-2, 0}, {60, 0}});
  Dataset p3 = MakePoints({{0, 2}, {70, 0}});
  ProtocolOptions options = FastOptions(4, 4);
  Result<std::vector<RunOutcome>> out = RunMesh({p0, p1, p2, p3}, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE((*out)[0].clustering.is_core[0]);
  EXPECT_EQ((*out)[0].clustering.labels[0], 0);
  // Every other party's points are non-core (only 2 neighbours each).
  for (size_t p = 1; p <= 3; ++p) {
    EXPECT_FALSE((*out)[p].clustering.is_core[0]) << "party " << p;
  }
}

TEST(MultipartyTest, PartySeparatedClustersAreExact) {
  // Each party wholly owns one dense blob; per-party output must match
  // centralized DBSCAN restricted to that party (same guarantee the
  // two-party protocol gives).
  SecureRng rng(17);
  std::vector<Dataset> parties;
  Dataset full(2);
  const int64_t centers[3][2] = {{0, 0}, {40, 0}, {0, 40}};
  for (const auto& c : centers) {
    Dataset party(2);
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        std::vector<int64_t> pt{c[0] + dx, c[1] + dy};
        PPD_CHECK(party.Add(pt).ok());
        PPD_CHECK(full.Add(pt).ok());
      }
    }
    parties.push_back(std::move(party));
  }
  ProtocolOptions options = FastOptions(2, 4);
  Result<std::vector<RunOutcome>> out = RunMesh(parties, options);
  ASSERT_TRUE(out.ok()) << out.status();

  DbscanResult central = RunDbscan(full, options.params);
  EXPECT_EQ(central.num_clusters, 3u);
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ((*out)[p].clustering.num_clusters, 1u) << "party " << p;
    Labels restricted(central.labels.begin() + 9 * p,
                      central.labels.begin() + 9 * (p + 1));
    EXPECT_DOUBLE_EQ(
        AdjustedRandIndex((*out)[p].clustering.labels, restricted), 1.0);
  }
}

TEST(MultipartyTest, DeterministicUnderSeeds) {
  SecureRng rng(21);
  RawDataset raw = MakeBlobs(rng, 2, 9, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  std::vector<Dataset> parties{Dataset(2), Dataset(2), Dataset(2)};
  for (size_t i = 0; i < full.size(); ++i) {
    PPD_CHECK(parties[i % 3].Add(full.point(i)).ok());
  }
  ProtocolOptions options = FastOptions(*enc.EncodeEpsSquared(1.4), 3);
  Result<std::vector<RunOutcome>> a = RunMesh(parties, options, 555);
  Result<std::vector<RunOutcome>> b = RunMesh(parties, options, 555);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ((*a)[p].clustering.labels, (*b)[p].clustering.labels);
  }
}

TEST(MultipartyTest, DisclosureCountsOneRecordPerPeerPerCoreTest) {
  // Basic-mode Theorem 9 accounting generalizes per link: each peer's
  // membership round records one peer count per candidate, so an exact
  // scan records (own points) × (P−1) counts, each once.
  Dataset p0 = MakePoints({{0, 0}, {30, 30}});
  Dataset p1 = MakePoints({{1, 0}});
  Dataset p2 = MakePoints({{0, 1}});
  ProtocolOptions options = FastOptions(2, 3);
  Result<std::vector<RunOutcome>> out = RunMesh({p0, p1, p2}, options);
  ASSERT_TRUE(out.ok()) << out.status();
  // Party 0: 2 candidates x 2 peers; its first point has one neighbour at
  // each peer, its second none.
  EXPECT_EQ((*out)[0].disclosures.Count("peer_neighbor_count"), 4u);
  std::vector<int64_t> counts =
      (*out)[0].disclosures.values("peer_neighbor_count");
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts, (std::vector<int64_t>{0, 0, 1, 1}));
  EXPECT_EQ((*out)[1].disclosures.Count("peer_neighbor_count"), 2u);
  EXPECT_EQ((*out)[2].disclosures.Count("peer_neighbor_count"), 2u);
}

TEST(MultipartySessionRingTest, LowLevelRingMatchesHarness) {
  // Driving RunHorizontalDbscan directly over a SessionRing must
  // reproduce the in-process harness exactly (same data, ideal comparator,
  // so the clustering is a deterministic function of the inputs).
  std::vector<Dataset> parties{
      MakePoints({{0, 0}, {1, 0}, {0, 1}, {9, 9}}),
      MakePoints({{1, 1}, {10, 9}, {9, 10}}),
      MakePoints({{0, 2}, {30, 30}})};
  ProtocolOptions options = FastOptions(2, 3);

  Result<std::vector<RunOutcome>> harness = RunMesh(parties, options);
  ASSERT_TRUE(harness.ok()) << harness.status();

  SessionRing ring = MakeSessionRing(parties.size(), 256, 128, 77);
  std::vector<Result<PartyClusteringResult>> ring_results =
      RunParties<Result<PartyClusteringResult>>(
          ring, [&](size_t i, SessionRing& r) {
            return RunHorizontalDbscan(r.LinksFor(i), r.SessionsFor(i),
                                       parties[i], i, r.parties, options,
                                       *r.rngs[i]);
          });

  for (size_t i = 0; i < parties.size(); ++i) {
    ASSERT_TRUE(ring_results[i].ok()) << "party " << i << ": "
                                      << ring_results[i].status();
    const PartyClusteringResult& expected = (*harness)[i].clustering;
    EXPECT_EQ(ring_results[i]->labels, expected.labels) << "party " << i;
    EXPECT_EQ(ring_results[i]->is_core, expected.is_core) << "party " << i;
    EXPECT_EQ(ring_results[i]->num_clusters, expected.num_clusters)
        << "party " << i;
  }
}

TEST(MultipartySessionRingTest, FourPartyDensityAccumulatesOverRing) {
  // N = 4 over the low-level API: the center point is core only because
  // three peers each contribute one neighbour (same scenario as the
  // harness-level DensityAccumulatesAcrossAllPeers).
  std::vector<Dataset> parties{
      MakePoints({{0, 0}}), MakePoints({{2, 0}, {50, 0}}),
      MakePoints({{-2, 0}, {60, 0}}), MakePoints({{0, 2}, {70, 0}})};
  ProtocolOptions options = FastOptions(4, 4);

  SessionRing ring = MakeSessionRing(parties.size(), 256, 128, 99);
  std::vector<Result<PartyClusteringResult>> results =
      RunParties<Result<PartyClusteringResult>>(
          ring, [&](size_t i, SessionRing& r) {
            return RunHorizontalDbscan(r.LinksFor(i), r.SessionsFor(i),
                                       parties[i], i, r.parties, options,
                                       *r.rngs[i]);
          });

  for (size_t i = 0; i < parties.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "party " << i << ": "
                                 << results[i].status();
  }
  EXPECT_TRUE(results[0]->is_core[0]);
  EXPECT_EQ(results[0]->labels[0], 0);
  for (size_t p = 1; p <= 3; ++p) {
    EXPECT_FALSE(results[p]->is_core[0]) << "party " << p;
  }
  // Every pairwise link carried protocol traffic (key exchange excluded by
  // MakeSessionRing's counter reset).
  for (size_t i = 0; i < ring.parties; ++i) {
    for (size_t j = 0; j < ring.parties; ++j) {
      if (i == j) continue;
      EXPECT_GT(ring.channels[i][j]->stats().bytes_sent, 0u)
          << "link " << i << "->" << j;
    }
  }
}

TEST(MultipartyTest, TrafficGrowsWithPartyCountAtFixedN) {
  // E8 shape: at fixed total n with equal shares, pairwise work is
  // n²·(1 − 1/P) — monotonically increasing in P.
  SecureRng rng(33);
  RawDataset raw = MakeBlobs(rng, 2, 12, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  ProtocolOptions options = FastOptions(*enc.EncodeEpsSquared(1.4), 3);

  uint64_t prev_bytes = 0;
  for (size_t p : {2, 3, 4}) {
    std::vector<Dataset> parties(p, Dataset(2));
    for (size_t i = 0; i < full.size(); ++i) {
      PPD_CHECK(parties[i % p].Add(full.point(i)).ok());
    }
    Result<std::vector<RunOutcome>> out = RunMesh(parties, options);
    ASSERT_TRUE(out.ok()) << out.status();
    uint64_t total = 0;
    for (const RunOutcome& party : *out) total += party.stats.bytes_sent;
    EXPECT_GT(total, prev_bytes) << "P=" << p;
    prev_bytes = total;
  }
}

// --- One engine over P−1 links -----------------------------------------
// The N-party scan is the two-party bulk scan run once per peer link. These
// cases pin its labels to the plaintext oracle for every party count and
// plan, and its P = 2 traffic to the two-party job's.

constexpr int64_t kStripEpsSquared = 23;  // Eps = 1.2 at scale 4
constexpr size_t kStripMinPts = 4;

/// Three blobs plus uniform noise (coordinates of both signs), cut into
/// `parties` strips along x: each party's bounding box meets its
/// neighbours' only in a band, so prune mode has interior points.
std::vector<Dataset> StripFixture(uint64_t seed, size_t parties) {
  SecureRng rng(seed);
  RawDataset raw = MakeBlobs(rng, 3, 10, 2, 0.5, 6.0);
  AddUniformNoise(raw, rng, 4, 9.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  std::vector<size_t> order(full.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return full.point(a)[0] < full.point(b)[0];
  });
  std::vector<Dataset> out(parties, Dataset(2));
  for (size_t r = 0; r < order.size(); ++r) {
    PPD_CHECK(out[r * parties / order.size()].Add(full.point(order[r])).ok());
  }
  return out;
}

TEST(MultipartyTest, LabelsMatchSimulatorAcrossPartyCountsAndPlans) {
  for (size_t p : {2, 3, 4}) {
    const std::vector<Dataset> parties = StripFixture(51, p);
    ProtocolOptions options = FastOptions(kStripEpsSquared, kStripMinPts);
    for (PlanMode plan : {PlanMode::kExact, PlanMode::kPrune}) {
      options.plan.mode = plan;
      Result<std::vector<RunOutcome>> out = RunMesh(parties, options);
      ASSERT_TRUE(out.ok()) << out.status();
      for (size_t i = 0; i < p; ++i) {
        SCOPED_TRACE("P=" + std::to_string(p) + " " + PlanModeToString(plan) +
                     " party " + std::to_string(i));
        std::vector<const Dataset*> peers;
        for (size_t j = 0; j < p; ++j) {
          if (j != i) peers.push_back(&parties[j]);
        }
        const DbscanResult sim =
            SimulateHorizontalParty(parties[i], peers, options.params);
        EXPECT_EQ((*out)[i].clustering.labels, sim.labels);
        EXPECT_EQ((*out)[i].clustering.is_core, sim.is_core);
        EXPECT_EQ((*out)[i].clustering.num_clusters, sim.num_clusters);
      }
      if (plan == PlanMode::kPrune && p > 2) {
        // Points far from a peer's strip leave that peer's batch.
        EXPECT_LT((*out)[0].plan.encrypted_comparisons,
                  (*out)[0].plan.exact_comparisons);
      }
    }
  }
}

TEST(MultipartyTest, SieveMatchesReferenceLabels) {
  // Sieve labels are approximate, so they are pinned to the labels the
  // per-point multi-party scan produced before the engines merged (same
  // fixture, k = 3); the batched phase-1 round must not move them.
  const std::vector<std::vector<Labels>> expected = {
      {{-1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0},
       {0, 0, 0, 0, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1}},
      {{-1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1},
       {0, 1, 1, 1, 0, 1, 1, 1, 1, -1, 1},
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1}},
      {{-1, -1, -1, 0, 0, 0, 0, 0, 0},
       {0, 0, 1, 0, 1, 1, 1, 0},
       {0, 0, 0, 0, -1, 1, 1, 1, 1},
       {0, 0, 0, 0, 0, 0, 0, -1}},
  };
  for (size_t p : {2, 3, 4}) {
    const std::vector<Dataset> parties = StripFixture(51, p);
    ProtocolOptions options = FastOptions(kStripEpsSquared, kStripMinPts);
    options.plan.mode = PlanMode::kSieve;
    options.plan.sieve_k = 3;
    Result<std::vector<RunOutcome>> out = RunMesh(parties, options);
    ASSERT_TRUE(out.ok()) << out.status();
    for (size_t i = 0; i < p; ++i) {
      EXPECT_EQ((*out)[i].clustering.labels, expected[p - 2][i])
          << "P=" << p << " party " << i;
    }
  }
}

TEST(MultipartyTest, TwoPartyMeshCostsTheSameAsTheTwoPartyJob) {
  // At P = 2 the multi-party job is the two-party protocol: same frames in
  // the same order, so equal seeds give equal traffic on both sides.
  const std::vector<Dataset> parties = StripFixture(52, 2);
  for (PlanMode plan : {PlanMode::kExact, PlanMode::kPrune}) {
    ProtocolOptions options = FastOptions(kStripEpsSquared, kStripMinPts);
    options.plan.mode = plan;
    Result<std::vector<RunOutcome>> mesh = RunMesh(parties, options, 7);
    Result<std::vector<RunOutcome>> pair = ExecuteLocal(
        {{ClusteringJob::Horizontal(parties[0], PartyRole::kAlice, options),
          7},
         {ClusteringJob::Horizontal(parties[1], PartyRole::kBob, options), 8}},
        FastSmc());
    ASSERT_TRUE(mesh.ok()) << mesh.status();
    ASSERT_TRUE(pair.ok()) << pair.status();
    for (size_t i = 0; i < 2; ++i) {
      SCOPED_TRACE(std::string(PlanModeToString(plan)) + " party " +
                   std::to_string(i));
      const ChannelStats& m = (*mesh)[i].stats;
      const ChannelStats& t = (*pair)[i].stats;
      EXPECT_GT(m.bytes_sent, 0u);
      EXPECT_EQ(m.bytes_sent, t.bytes_sent);
      EXPECT_EQ(m.bytes_received, t.bytes_received);
      EXPECT_EQ(m.frames_sent, t.frames_sent);
      EXPECT_EQ(m.frames_received, t.frames_received);
      EXPECT_EQ(m.rounds, t.rounds);
      EXPECT_EQ((*mesh)[i].clustering.labels, (*pair)[i].clustering.labels);
    }
  }
}

}  // namespace
}  // namespace ppdbscan
