// E8 — multi-party horizontal extension (§1: "the two-party algorithm can
// be extended to multi-party cases"; core/horizontal.h).
//
// With equal shares l = n/P, the pairwise-composition cost is
//     Σ_d l_d · (n − l_d) = n² · (1 − 1/P)
// secure comparisons: increasing and saturating in P at fixed n. The harness
// measures exact bytes and checks the ratio against that prediction; it
// also reports the per-party disclosure count, which grows as (P−1) per
// core test (Theorem 9 applies per link).

#include "bench_util.h"

namespace ppdbscan {
namespace {

void Run(bool csv) {
  SecureRng rng(41);
  RawDataset raw = MakeBlobs(rng, 3, 12, 2, 0.5, 6.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  const size_t n = full.size();

  ProtocolOptions options;
  options.params = {.eps_squared = *enc.EncodeEpsSquared(1.4), .min_pts = 3};
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 64);
  SmcOptions smc;
  smc.paillier_bits = 256;
  smc.rsa_bits = 128;

  ResultTable table({"parties P", "predicted n^2(1-1/P)", "bytes total",
                     "bytes / predicted", "disclosure events",
                     "predicted n(P-1)"});
  for (size_t p : {2, 3, 4, 6}) {
    std::vector<Dataset> parties(p, Dataset(2));
    for (size_t i = 0; i < n; ++i) {
      PPD_CHECK(parties[i % p].Add(full.point(i)).ok());
    }
    std::vector<LocalJob> jobs;
    for (size_t i = 0; i < p; ++i) {
      jobs.push_back(
          {ClusteringJob::Multiparty(parties[i], i, p, options), 0x9bd1 + i});
    }
    Result<std::vector<RunOutcome>> out = ExecuteLocal(jobs, smc);
    PPD_CHECK_MSG(out.ok(), out.status().ToString().c_str());

    uint64_t bytes = 0;
    // Every point is core-tested exactly once by its owner, and each test
    // records one peer count per link: n·(P−1) events in total.
    uint64_t disclosures = 0;
    for (const RunOutcome& party : *out) {
      bytes += party.stats.bytes_sent;
      disclosures += party.disclosures.Count("peer_neighbor_count");
    }
    double predicted = static_cast<double>(n) * static_cast<double>(n) *
                       (1.0 - 1.0 / static_cast<double>(p));
    table.AddRow({ResultTable::Fmt(static_cast<uint64_t>(p)),
                  ResultTable::Fmt(predicted, 0), ResultTable::Fmt(bytes),
                  ResultTable::Fmt(static_cast<double>(bytes) / predicted, 1),
                  ResultTable::Fmt(disclosures),
                  ResultTable::Fmt(static_cast<uint64_t>(n * (p - 1)))});
  }
  bench_util::Emit(table, csv, "E8 Multi-party horizontal (fixed n, equal shares)",
                   "pairwise composition costs n^2(1-1/P) comparisons; "
                   "bytes/predicted should be ~constant across P");
}

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  ppdbscan::Run(ppdbscan::bench_util::WantCsv(argc, argv));
  return 0;
}
