#include "core/vertical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>

#include "net/memory_channel.h"

#include "core/joint_scan.h"
#include "core/run.h"
#include "core/wire.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"
#include "net/message.h"
#include "smc/comparator.h"

namespace ppdbscan {
namespace {

/// Shared configuration of one two-party test run under the job facade.
struct FastConfig {
  SmcOptions smc;
  ProtocolOptions protocol;

  explicit FastConfig(int64_t eps_squared, size_t min_pts) {
    smc.paillier_bits = 256;
    smc.rsa_bits = 128;
    protocol.params = {eps_squared, min_pts};
    protocol.comparator.kind = ComparatorKind::kIdeal;
    protocol.comparator.magnitude_bound =
        RecommendedComparatorBound(4, 1 << 12);
  }
};

/// Runs the two vertical jobs in-process and returns {alice, bob} outcomes.
Result<std::vector<RunOutcome>> RunVertical(const VerticalPartition& vp,
                                            const FastConfig& config) {
  return ExecuteLocal(
      {{ClusteringJob::Vertical(vp.alice, PartyRole::kAlice, config.protocol),
        0x0a11ce},
       {ClusteringJob::Vertical(vp.bob, PartyRole::kBob, config.protocol),
        0x0b0b}},
      config.smc);
}

struct VerticalCase {
  const char* name;
  size_t clusters;
  size_t per_cluster;
  size_t dims;
  size_t split;
  double eps;
  size_t min_pts;
};

class VerticalEquivalenceTest : public ::testing::TestWithParam<VerticalCase> {
};

TEST_P(VerticalEquivalenceTest, MatchesCentralizedExactly) {
  const VerticalCase& c = GetParam();
  SecureRng rng(42);
  RawDataset raw = MakeBlobs(rng, c.clusters, c.per_cluster, c.dims, 0.5, 6.0);
  AddUniformNoise(raw, rng, c.per_cluster / 2, 8.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  DbscanParams params{*enc.EncodeEpsSquared(c.eps), c.min_pts};
  DbscanResult central = RunDbscan(full, params);

  VerticalPartition vp = *PartitionVertical(full, c.split);
  FastConfig config(params.eps_squared, params.min_pts);
  Result<std::vector<RunOutcome>> out = RunVertical(vp, config);
  ASSERT_TRUE(out.ok()) << out.status();

  // Theorem 10 setting: both parties obtain the exact centralized result.
  const PartyClusteringResult& alice = (*out)[0].clustering;
  const PartyClusteringResult& bob = (*out)[1].clustering;
  EXPECT_TRUE(SameClustering(alice.labels, central.labels));
  EXPECT_TRUE(SameClustering(bob.labels, central.labels));
  EXPECT_EQ(alice.labels, bob.labels);
  EXPECT_EQ(alice.is_core, central.is_core);
  EXPECT_EQ(alice.num_clusters, central.num_clusters);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, VerticalEquivalenceTest,
    ::testing::Values(VerticalCase{"two_blobs_2d", 2, 10, 2, 1, 1.2, 3},
                      VerticalCase{"three_blobs_3d", 3, 8, 3, 1, 1.2, 4},
                      VerticalCase{"three_blobs_3d_split2", 3, 8, 3, 2, 1.2,
                                   4},
                      VerticalCase{"four_dims", 2, 8, 4, 2, 1.4, 3},
                      VerticalCase{"dense_minpts2", 2, 12, 2, 1, 1.0, 2}),
    [](const auto& info) { return info.param.name; });

TEST(VerticalTest, BothPartiesSeeIdenticalDisclosures) {
  SecureRng rng(7);
  RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  VerticalPartition vp = *PartitionVertical(full, 1);
  FastConfig config(*enc.EncodeEpsSquared(1.2), 3);
  Result<std::vector<RunOutcome>> out = RunVertical(vp, config);
  ASSERT_TRUE(out.ok());
  // Neighbourhood sizes are revealed to both parties (Theorem 10) and must
  // agree event-by-event.
  EXPECT_EQ((*out)[0].disclosures.values("neighborhood_size"),
            (*out)[1].disclosures.values("neighborhood_size"));
  EXPECT_GT((*out)[0].disclosures.Count("neighborhood_size"), 0u);
}

TEST(VerticalTest, RecordCountMismatchRejected) {
  Dataset alice_cols(1);
  PPD_CHECK(alice_cols.Add({0}).ok());
  PPD_CHECK(alice_cols.Add({1}).ok());
  Dataset bob_cols(1);
  PPD_CHECK(bob_cols.Add({0}).ok());
  VerticalPartition vp{alice_cols, bob_cols, 1};
  FastConfig config(1, 1);
  Result<std::vector<RunOutcome>> out = RunVertical(vp, config);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(VerticalTest, SinglePointDataset) {
  Dataset alice_cols(1), bob_cols(1);
  PPD_CHECK(alice_cols.Add({5}).ok());
  PPD_CHECK(bob_cols.Add({7}).ok());
  VerticalPartition vp{alice_cols, bob_cols, 1};
  FastConfig config(100, 1);
  Result<std::vector<RunOutcome>> out = RunVertical(vp, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].clustering.labels[0], 0);
}

TEST(VerticalTest, QuadraticCommunicationShape) {
  // §4.3.2: O(n²) comparisons. Doubling n should roughly quadruple bytes.
  auto measure = [&](size_t n) -> uint64_t {
    Dataset alice_cols(1), bob_cols(1);
    for (size_t i = 0; i < n; ++i) {
      PPD_CHECK(alice_cols.Add({static_cast<int64_t>(10 * i)}).ok());
      PPD_CHECK(bob_cols.Add({0}).ok());
    }
    VerticalPartition vp{alice_cols, bob_cols, 1};
    FastConfig config(4, 2);
    Result<std::vector<RunOutcome>> out = RunVertical(vp, config);
    PPD_CHECK(out.ok());
    return (*out)[0].stats.total_bytes();
  };
  uint64_t small = measure(8);
  uint64_t big = measure(16);
  EXPECT_GT(big, 3 * small);
  EXPECT_LT(big, 6 * small);
}

TEST(VerticalTest, BlindedComparatorMatchesIdeal) {
  SecureRng rng(8);
  RawDataset raw = MakeBlobs(rng, 2, 6, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  VerticalPartition vp = *PartitionVertical(full, 1);
  FastConfig config(*enc.EncodeEpsSquared(1.2), 3);
  Result<std::vector<RunOutcome>> ideal = RunVertical(vp, config);
  config.protocol.comparator.kind = ComparatorKind::kBlindedPaillier;
  Result<std::vector<RunOutcome>> blinded = RunVertical(vp, config);
  ASSERT_TRUE(ideal.ok() && blinded.ok()) << blinded.status();
  EXPECT_EQ((*ideal)[0].clustering.labels, (*blinded)[0].clustering.labels);
}

TEST(VerticalTest, LocalPruningPreservesClustering) {
  // E9: pruning only ever skips pairs whose total distance provably
  // exceeds Eps², so labels, core flags and cluster counts are identical
  // across a spread of workloads and parameters.
  for (uint64_t seed : {3u, 8u, 21u}) {
    SecureRng rng(seed);
    RawDataset raw = MakeBlobs(rng, 3, 7, 2, 0.6, 6.0);
    AddUniformNoise(raw, rng, 4, 8.0);
    FixedPointEncoder enc(4.0);
    Dataset full = *enc.Encode(raw);
    VerticalPartition vp = *PartitionVertical(full, 1);
    FastConfig config(*enc.EncodeEpsSquared(1.3), 3);
    Result<std::vector<RunOutcome>> plain = RunVertical(vp, config);
    config.protocol.vdp_local_pruning = true;
    Result<std::vector<RunOutcome>> pruned = RunVertical(vp, config);
    ASSERT_TRUE(plain.ok() && pruned.ok()) << pruned.status();
    EXPECT_EQ((*plain)[0].clustering.labels, (*pruned)[0].clustering.labels)
        << "seed " << seed;
    EXPECT_EQ((*plain)[0].clustering.is_core,
              (*pruned)[0].clustering.is_core);
    EXPECT_EQ((*pruned)[0].clustering.labels,
              (*pruned)[1].clustering.labels);
  }
}

TEST(VerticalTest, LocalPruningSavesComparisonsOnSpreadData) {
  // Records spread along Alice's axis: most pairs are prunable from her
  // partials alone, so the pruned run must move far fewer bytes even
  // after paying for the bitmaps.
  Dataset alice_cols(1), bob_cols(1);
  for (size_t i = 0; i < 16; ++i) {
    PPD_CHECK(alice_cols.Add({static_cast<int64_t>(100 * i)}).ok());
    PPD_CHECK(bob_cols.Add({0}).ok());
  }
  VerticalPartition vp{alice_cols, bob_cols, 1};
  FastConfig config(4, 2);
  Result<std::vector<RunOutcome>> plain = RunVertical(vp, config);
  config.protocol.vdp_local_pruning = true;
  Result<std::vector<RunOutcome>> pruned = RunVertical(vp, config);
  ASSERT_TRUE(plain.ok() && pruned.ok());
  EXPECT_EQ((*plain)[0].clustering.labels, (*pruned)[0].clustering.labels);
  EXPECT_LT((*pruned)[0].stats.total_bytes(),
            (*plain)[0].stats.total_bytes() / 2);
  // Bob prunes nothing (his column is constant); Alice's map does all the
  // work, and each party records what it learned from the other's bitmap.
  EXPECT_GT((*pruned)[1].disclosures.Count("peer_pruned_count"), 0u);
}

TEST(VerticalTest, PruningMismatchRejectedByNegotiation) {
  // One party pruning while the other does not is a configuration
  // divergence: the facade's negotiation round must reject it with a
  // descriptive kFailedPrecondition before any protocol traffic, instead
  // of the mid-scan desync the raw protocol layer would produce.
  Dataset cols(1);
  for (int i = 0; i < 4; ++i) PPD_CHECK(cols.Add({i}).ok());
  FastConfig config(1, 2);
  ProtocolOptions pruning = config.protocol;
  pruning.vdp_local_pruning = true;

  Result<std::vector<RunOutcome>> out = ExecuteLocal(
      {{ClusteringJob::Vertical(cols, PartyRole::kAlice, pruning), 1},
       {ClusteringJob::Vertical(cols, PartyRole::kBob, config.protocol), 2}},
      config.smc);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(out.status().message().find("pruning"), std::string::npos)
      << out.status();
}

TEST(VerticalTest, PruningMismatchFailsCleanlyWithoutNegotiation) {
  // The raw protocol layer (no negotiation round) must still desynchronize
  // into a Status error (unexpected message tag), not a hang or silent
  // corruption — defense in depth below the facade.
  Dataset cols(1);
  for (int i = 0; i < 4; ++i) PPD_CHECK(cols.Add({i}).ok());
  VerticalPartition vp{cols, cols, 1};
  FastConfig config(1, 2);

  auto [alice_ch, bob_ch] = MemoryChannel::CreatePair();
  SecureRng alice_rng(1), bob_rng(2);
  Result<SmcSession> alice_session = Status::Internal("unset");
  Result<SmcSession> bob_session = Status::Internal("unset");
  {
    std::thread t([&] {
      alice_session = SmcSession::Establish(*alice_ch, alice_rng, config.smc);
    });
    bob_session = SmcSession::Establish(*bob_ch, bob_rng, config.smc);
    t.join();
  }
  ASSERT_TRUE(alice_session.ok() && bob_session.ok());

  ProtocolOptions alice_options = config.protocol;
  alice_options.vdp_local_pruning = true;   // mismatch
  ProtocolOptions bob_options = config.protocol;

  Result<PartyClusteringResult> alice_result = Status::Internal("unset");
  Result<PartyClusteringResult> bob_result = Status::Internal("unset");
  std::thread alice_thread([&] {
    alice_result =
        RunVerticalDbscan(*alice_ch, *alice_session, vp.alice,
                          PartyRole::kAlice, alice_options, alice_rng);
    alice_ch->Close();
  });
  bob_result = RunVerticalDbscan(*bob_ch, *bob_session, vp.bob,
                                 PartyRole::kBob, bob_options, bob_rng);
  bob_ch->Close();
  alice_thread.join();
  EXPECT_FALSE(alice_result.ok() && bob_result.ok());
}


/// The per-query scan's output computed in the clear: JointDbscanScan over
/// the joined records with ascending neighbour lists (self included).
/// `sizes` receives every region query's neighbourhood size, in order.
PartyClusteringResult PlaintextScan(const Dataset& full,
                                    const DbscanParams& params,
                                    std::vector<int64_t>* sizes) {
  JointRegionQueryFn query = [&](size_t x) -> Result<std::vector<size_t>> {
    std::vector<size_t> out;
    for (size_t y = 0; y < full.size(); ++y) {
      if (full.DistanceSquared(x, y) <= params.eps_squared) out.push_back(y);
    }
    sizes->push_back(static_cast<int64_t>(out.size()));
    return out;
  };
  return *JointDbscanScan(full.size(), params, query);
}

/// Unordered pairs x < y that survive E9 pruning (all of them without).
uint64_t SurvivingPairs(const VerticalPartition& vp, int64_t eps_squared,
                        bool pruning) {
  uint64_t count = 0;
  for (size_t x = 0; x < vp.alice.size(); ++x) {
    for (size_t y = x + 1; y < vp.alice.size(); ++y) {
      const bool pruned = vp.alice.DistanceSquared(x, y) > eps_squared ||
                          vp.bob.DistanceSquared(x, y) > eps_squared;
      if (!pruning || !pruned) ++count;
    }
  }
  return count;
}

/// Checks one bulk-scan run against the plaintext per-query scan: labels,
/// core flags and the neighborhood_size sequence byte-identical on both
/// parties, each surviving pair compared once, and the plan counters.
void ExpectMatchesPerQueryScan(const std::vector<RunOutcome>& out,
                               const Dataset& full,
                               const VerticalPartition& vp,
                               const ProtocolOptions& protocol) {
  std::vector<int64_t> sizes;
  PartyClusteringResult reference =
      PlaintextScan(full, protocol.params, &sizes);
  for (const RunOutcome& party : out) {
    EXPECT_EQ(party.clustering.labels, reference.labels);
    EXPECT_EQ(party.clustering.is_core, reference.is_core);
    EXPECT_EQ(party.clustering.num_clusters, reference.num_clusters);
    EXPECT_EQ(party.disclosures.values("neighborhood_size"), sizes);
  }
  const uint64_t n = full.size();
  const uint64_t surviving = SurvivingPairs(
      vp, protocol.params.eps_squared, protocol.vdp_local_pruning);
  EXPECT_EQ(out[0].plan.encrypted_comparisons, surviving);
  EXPECT_EQ(out[0].plan.exact_comparisons, n * (n - 1) / 2);
  EXPECT_EQ(out[1].plan.assisted_comparisons, surviving);
  EXPECT_EQ(out[1].plan.encrypted_comparisons, 0u);
  if (protocol.vdp_local_pruning) {
    EXPECT_EQ(out[0].disclosures.Count("peer_pruned_count"), n);
    EXPECT_EQ(out[1].disclosures.Count("peer_pruned_count"), n);
  }
}

TEST(VerticalBulkScanTest, FlightSizesGiveIdenticalClustering) {
  SecureRng rng(5);
  RawDataset raw = MakeBlobs(rng, 3, 7, 2, 0.6, 6.0);
  AddUniformNoise(raw, rng, 4, 8.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  VerticalPartition vp = *PartitionVertical(full, 1);
  for (bool pruning : {false, true}) {
    for (size_t flight : {0u, 1u, 7u, 256u}) {
      SCOPED_TRACE("pruning=" + std::to_string(pruning) +
                   " flight=" + std::to_string(flight));
      FastConfig config(*enc.EncodeEpsSquared(1.3), 3);
      config.protocol.vdp_local_pruning = pruning;
      config.protocol.comparator.max_batch_in_flight = flight;
      Result<std::vector<RunOutcome>> out = RunVertical(vp, config);
      ASSERT_TRUE(out.ok()) << out.status();
      ExpectMatchesPerQueryScan(*out, full, vp, config.protocol);
      // Two rounds per flight plus a constant: negotiation, the opening
      // and the final result/done send.
      const uint64_t pairs = (*out)[0].plan.encrypted_comparisons;
      const uint64_t per = flight == 0 ? std::max<uint64_t>(pairs, 1) : flight;
      EXPECT_LE((*out)[0].stats.rounds, 2 * ((pairs + per - 1) / per) + 4);
    }
  }
}

TEST(VerticalBulkScanTest, SecureBackendsCompareEachSurvivingPairOnce) {
  // Grid coordinates in [-6, 6] keep the Θ(domain) YMPP table small.
  const std::vector<std::vector<int64_t>> points = {
      {0, 0}, {1, 0}, {0, 1}, {1, 1}, {5, 5}, {6, 5}, {5, 6}, {6, 6}, {-6, -6}};
  Dataset full(2);
  for (const auto& p : points) PPD_CHECK(full.Add(p).ok());
  VerticalPartition vp = *PartitionVertical(full, 1);
  for (ComparatorKind kind :
       {ComparatorKind::kBlindedPaillier, ComparatorKind::kYmpp}) {
    for (bool pruning : {false, true}) {
      SCOPED_TRACE(std::string(ComparatorKindToString(kind)) +
                   " pruning=" + std::to_string(pruning));
      FastConfig config(8, 3);
      config.protocol.comparator.kind = kind;
      config.protocol.comparator.magnitude_bound =
          RecommendedComparatorBound(2, 6);
      config.protocol.comparator.max_batch_in_flight = 7;
      config.protocol.vdp_local_pruning = pruning;
      Result<std::vector<RunOutcome>> out = RunVertical(vp, config);
      ASSERT_TRUE(out.ok()) << out.status();
      ExpectMatchesPerQueryScan(*out, full, vp, config.protocol);
      if (kind == ComparatorKind::kBlindedPaillier) {
        const uint64_t pairs = (*out)[0].plan.encrypted_comparisons;
        EXPECT_LE((*out)[0].stats.rounds, 2 * ((pairs + 6) / 7) + 4);
      }
    }
  }
}

/// Runs the real vertical scan as `role` over 4 one-column records against
/// `script`, which plays the other party on a raw MemoryChannel (no
/// negotiation round). The script's end is closed when it returns, so a
/// decoder that wrongly accepts a frame fails on the closed channel
/// instead of hanging.
using PartyScript =
    std::function<void(Channel&, const SmcSession&, SecureRng&)>;

Status RunAgainstScript(PartyRole role, bool pruning,
                        const PartyScript& script) {
  Dataset cols(1);
  for (int i = 0; i < 4; ++i) PPD_CHECK(cols.Add({i}).ok());
  FastConfig config(1, 2);
  config.protocol.vdp_local_pruning = pruning;

  auto [real_ch, script_ch] = MemoryChannel::CreatePair();
  SecureRng real_rng(1), script_rng(2);
  Result<SmcSession> real_session = Status::Internal("unset");
  Result<SmcSession> script_session = Status::Internal("unset");
  {
    std::thread t([&] {
      script_session =
          SmcSession::Establish(*script_ch, script_rng, config.smc);
    });
    real_session = SmcSession::Establish(*real_ch, real_rng, config.smc);
    t.join();
  }
  PPD_CHECK(real_session.ok() && script_session.ok());

  std::thread scripted([&] {
    script(*script_ch, *script_session, script_rng);
    script_ch->Close();
  });
  Result<PartyClusteringResult> result = RunVerticalDbscan(
      *real_ch, *real_session, cols, role, config.protocol, real_rng);
  real_ch->Close();
  scripted.join();
  return result.status();
}

Status SendHello(Channel& channel, bool pruning) {
  ByteWriter hello;
  hello.PutU32(4);
  hello.PutU8(pruning ? 1 : 0);
  return SendMessage(channel, wire::kVtHello, hello);
}

/// Scripted driver: a faithful opening and first flight (4 records, 6
/// pairs, one flight), then `results` as the flight's result-bit frame.
PartyScript DriverSendingResults(std::vector<uint8_t> results) {
  return [results](Channel& ch, const SmcSession& session, SecureRng& rng) {
    if (!ExpectMessage(ch, wire::kVtHello).ok()) return;
    if (!SendHello(ch, false).ok()) return;
    Result<std::unique_ptr<SecureComparator>> cmp =
        CreateComparator(FastConfig(1, 2).protocol.comparator, session, rng);
    if (!cmp.ok()) return;
    if (!(*cmp)->QuerierCompareBatch(ch, std::vector<BigInt>(6), BigInt(1))
             .ok()) {
      return;
    }
    (void)SendMessage(ch, wire::kVtResults, results);
  };
}

void ExpectDataLoss(const Status& status, const std::string& fragment) {
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.message().find(fragment), std::string::npos) << status;
}

TEST(VerticalBulkScanTest, TruncatedResultFrameIsDataLoss) {
  ExpectDataLoss(RunAgainstScript(PartyRole::kBob, false,
                                   DriverSendingResults({})),
                 "result bit frame");
}

TEST(VerticalBulkScanTest, OversizedResultFrameIsDataLoss) {
  ExpectDataLoss(RunAgainstScript(PartyRole::kBob, false,
                                  DriverSendingResults({0x3f, 0x00})),
                 "result bit frame");
}

TEST(VerticalBulkScanTest, ResultFramePaddingBitsAreDataLoss) {
  // 6 pairs use the low 6 bits; anything above them is trailing garbage.
  ExpectDataLoss(RunAgainstScript(PartyRole::kBob, false,
                                  DriverSendingResults({0xc0})),
                 "result bit frame");
}

TEST(VerticalBulkScanTest, WrongLengthBitmapToPeerIsDataLoss) {
  Status status = RunAgainstScript(
      PartyRole::kBob, true,
      [](Channel& ch, const SmcSession&, SecureRng&) {
        if (!ExpectMessage(ch, wire::kVtHello).ok()) return;
        if (!ExpectMessage(ch, wire::kVtPrune).ok()) return;
        if (!SendHello(ch, true).ok()) return;
        (void)SendMessage(ch, wire::kVtPrune, std::vector<uint8_t>(3));
      });
  ExpectDataLoss(status, "prune bitmap frame");
}

TEST(VerticalBulkScanTest, WrongLengthBitmapToDriverIsDataLoss) {
  Status status = RunAgainstScript(
      PartyRole::kAlice, true,
      [](Channel& ch, const SmcSession&, SecureRng&) {
        if (!SendHello(ch, true).ok()) return;
        (void)SendMessage(ch, wire::kVtPrune, std::vector<uint8_t>());
      });
  ExpectDataLoss(status, "prune bitmap frame");
}

TEST(VerticalBulkScanTest, HelloWithTrailingBytesIsDataLoss) {
  Status status = RunAgainstScript(
      PartyRole::kAlice, false,
      [](Channel& ch, const SmcSession&, SecureRng&) {
        ByteWriter hello;
        hello.PutU32(4);
        hello.PutU8(0);
        hello.PutU8(0);
        (void)SendMessage(ch, wire::kVtHello, hello);
      });
  ExpectDataLoss(status, "trailing bytes");
}

}  // namespace
}  // namespace ppdbscan
