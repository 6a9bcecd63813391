// E3 — communication of the vertical protocol (§4.3.2).
//
// Paper claim: O(c2·n0·n²) bits — one secure comparison per record pair
// with no spatial index, so bytes grow quadratically in n and linearly in
// the comparison domain n0.

#include "bench_util.h"

namespace ppdbscan {
namespace {

VerticalPartition MakeWorkload(size_t n, uint64_t seed) {
  SecureRng rng(seed);
  RawDataset raw = MakeBlobs(rng, 2, n / 2, 2, 0.5, 6.0);
  while (raw.size() < n) AddUniformNoise(raw, rng, 1, 8.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  return *PartitionVertical(full, 1);
}

void Run(bool csv) {
  // (a) Sweep n with the O(1)-per-comparison blinded backend: the n²
  // profile of the comparison count itself.
  {
    ResultTable table({"n", "n^2", "bytes total", "bytes / n^2"});
    for (size_t n : {8, 12, 16, 24, 32}) {
      VerticalPartition vp = MakeWorkload(n, 23);
      ExecutionConfig config = bench_util::FastCrypto();
      config.protocol.params = {.eps_squared = 23, .min_pts = 3};
      config.protocol.comparator.kind = ComparatorKind::kBlindedPaillier;
      config.protocol.comparator.magnitude_bound =
          RecommendedComparatorBound(2, 64);
      Result<TwoPartyOutcome> out = ExecuteVertical(vp, config);
      PPD_CHECK(out.ok());
      uint64_t bytes = out->alice_stats.total_bytes();
      uint64_t n2 = static_cast<uint64_t>(n) * n;
      table.AddRow({ResultTable::Fmt(static_cast<uint64_t>(n)),
                    ResultTable::Fmt(n2), ResultTable::Fmt(bytes),
                    ResultTable::Fmt(static_cast<double>(bytes) /
                                         static_cast<double>(n2),
                                     1)});
    }
    bench_util::Emit(table, csv, "E3.a Bytes vs n (vertical, Alg. 5/6)",
                     "O(n^2) comparisons without a spatial index: bytes/n² "
                     "approaches a constant");
  }

  // (b) Sweep n0 with the Algorithm 1 backend at tiny fixed n. The
  // workload lives on a small integer grid so every YMPP input (partial
  // squared distances, |S| <= 2·6² = 72... bounded by 49 here) fits the
  // smallest swept domain bound.
  {
    ResultTable table({"comparator bound B", "n0 = 2B+3", "bytes total",
                       "bytes / n0"});
    Dataset grid(2);
    for (const auto& p : std::initializer_list<std::vector<int64_t>>{
             {0, 0}, {1, 0}, {0, 1}, {5, 5}, {6, 5}, {3, -3}}) {
      PPD_CHECK(grid.Add(p).ok());
    }
    VerticalPartition vp = *PartitionVertical(grid, 1);
    for (int64_t bound : {64, 128, 256, 512}) {
      ExecutionConfig config = bench_util::FastCrypto();
      config.protocol.params = {.eps_squared = 8, .min_pts = 2};
      config.protocol.comparator.kind = ComparatorKind::kYmpp;
      config.protocol.comparator.magnitude_bound = BigInt(bound);
      Result<TwoPartyOutcome> out = ExecuteVertical(vp, config);
      PPD_CHECK(out.ok());
      uint64_t n0 = 2 * static_cast<uint64_t>(bound) + 3;
      uint64_t bytes = out->alice_stats.total_bytes();
      table.AddRow({ResultTable::Fmt(bound), ResultTable::Fmt(n0),
                    ResultTable::Fmt(bytes),
                    ResultTable::Fmt(static_cast<double>(bytes) /
                                         static_cast<double>(n0),
                                     1)});
    }
    bench_util::Emit(table, csv, "E3.b Bytes vs YMPP domain n0 (n=6)",
                     "the c2·n0 factor of the vertical bound");
  }

  // (c) E9 extension ablation: local pruning trades one disclosed bit per
  // pruned pair for skipping that pair's secure comparison entirely.
  {
    ResultTable table({"n", "bytes plain", "bytes pruned", "saving",
                       "pruned-pair bits disclosed"});
    for (size_t n : {12, 16, 24, 32}) {
      VerticalPartition vp = MakeWorkload(n, 23);
      ExecutionConfig config = bench_util::FastCrypto();
      config.protocol.params = {.eps_squared = 23, .min_pts = 3};
      config.protocol.comparator.kind = ComparatorKind::kBlindedPaillier;
      config.protocol.comparator.magnitude_bound =
          RecommendedComparatorBound(2, 64);
      Result<TwoPartyOutcome> plain = ExecuteVertical(vp, config);
      PPD_CHECK(plain.ok());
      config.protocol.vdp_local_pruning = true;
      Result<TwoPartyOutcome> pruned = ExecuteVertical(vp, config);
      PPD_CHECK(pruned.ok());
      PPD_CHECK(plain->alice.labels == pruned->alice.labels);
      // peer_pruned_count is recorded once per record row, so every
      // pruned pair is counted in both of its rows.
      uint64_t disclosed = 0;
      for (int64_t v : pruned->alice_disclosures.values("peer_pruned_count")) {
        disclosed += static_cast<uint64_t>(v);
      }
      for (int64_t v : pruned->bob_disclosures.values("peer_pruned_count")) {
        disclosed += static_cast<uint64_t>(v);
      }
      disclosed /= 2;
      double saving =
          1.0 - static_cast<double>(pruned->alice_stats.total_bytes()) /
                    static_cast<double>(plain->alice_stats.total_bytes());
      table.AddRow({ResultTable::Fmt(static_cast<uint64_t>(n)),
                    ResultTable::Fmt(plain->alice_stats.total_bytes()),
                    ResultTable::Fmt(pruned->alice_stats.total_bytes()),
                    ResultTable::Fmt(100.0 * saving, 1) + "%",
                    ResultTable::Fmt(disclosed)});
    }
    bench_util::Emit(table, csv,
                     "E3.c Local-pruning ablation (E9 extension)",
                     "identical clustering; bytes drop by the fraction of "
                     "pairs either party can refute locally, at one "
                     "disclosed bit per pruned pair");
  }
}

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  ppdbscan::Run(ppdbscan::bench_util::WantCsv(argc, argv));
  return 0;
}
