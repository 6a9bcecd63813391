// Crypto/bigint unit-cost probe: the public batch APIs timed
// single-threaded at one workload's key size and flight shape, so a kernel
// change can be tied to the job line.

#include <functional>
#include <optional>

#include "bigint/montgomery.h"
#include "common/thread_pool.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "workloads.h"

namespace jobbench {
namespace {

using namespace ppdbscan;

/// Median seconds of `op` over at least three repetitions and at least
/// `min_total_s` of measured time (capped at 50 repetitions).
double TimeOp(const std::function<void()>& op, double min_total_s = 0.05) {
  std::vector<double> reps;
  double total = 0;
  while (reps.size() < 50 && (reps.size() < 3 || total < min_total_s)) {
    const Clock::time_point t0 = Clock::now();
    op();
    reps.push_back(SecondsBetween(t0, Clock::now()));
    total += reps.back();
  }
  return Median(reps);
}

}  // namespace

void RunProbes(const ProbeShape& shape, uint64_t seed, Report& report,
               Tracer* tracer) {
  ScopedSpan all(tracer, "probes");
  ThreadPool serial(1);  // ParallelFor runs inline on a one-worker pool
  SecureRng rng(MixSeed(seed, 700));
  const size_t flight = shape.flight;
  const double per = static_cast<double>(flight);

  std::optional<PaillierKeyPair> key;
  {
    ScopedSpan span(tracer, "crypto.keygen", all.id());
    constexpr int kKeygens = 3;
    std::vector<double> reps;
    for (int i = 0; i < kKeygens; ++i) {
      const Clock::time_point t0 = Clock::now();
      Result<PaillierKeyPair> paillier =
          GeneratePaillierKeyPair(rng, shape.key_bits);
      Result<RsaKeyPair> rsa = GenerateRsaKeyPair(rng, shape.key_bits);
      reps.push_back(SecondsBetween(t0, Clock::now()));
      PPD_CHECK(paillier.ok() && rsa.ok());
      if (!key.has_value()) key.emplace(std::move(*paillier));
    }
    report.Add("crypto.keygen_s", Median(reps), "s", reps.size());
  }
  const BigInt n = key->pub.n;
  Result<PaillierDecryptor> decryptor = PaillierDecryptor::Create(*key);
  PPD_CHECK(decryptor.ok());
  const PaillierContext& ctx = decryptor->context();

  std::vector<BigInt> ms, ks, rs;
  for (size_t i = 0; i < flight; ++i) {
    ms.push_back(BigInt::FromU64(rng.UniformU64(1u << 20)));
    ks.push_back(BigInt::FromU64(rng.UniformU64(256)));
    rs.push_back(ctx.SampleRandomizer(rng));
  }
  const std::vector<BigInt> factors = ctx.RandomizerFactorBatch(rs, &serial);
  Result<std::vector<BigInt>> ciphers =
      ctx.EncryptBatchWithFactors(ms, factors, &serial);
  PPD_CHECK(ciphers.ok());

  const auto probe = [&](const std::string& name, const std::string& unit,
                         double scale, const std::function<void()>& op) {
    ScopedSpan span(tracer, name, all.id());
    report.Add(name, TimeOp(op) * scale, unit, flight);
  };
  probe("crypto.encrypt_us", "us", 1e6 / per,
        [&] { PPD_CHECK(ctx.EncryptBatch(ms, rng, &serial).ok()); });
  probe("crypto.encrypt_online_us", "us", 1e6 / per, [&] {
    PPD_CHECK(ctx.EncryptBatchWithFactors(ms, factors, &serial).ok());
  });
  probe("crypto.randomizer_us", "us", 1e6 / per,
        [&] { (void)ctx.RandomizerFactorBatch(rs, &serial); });
  probe("crypto.decrypt_us", "us", 1e6 / per,
        [&] { PPD_CHECK(decryptor->DecryptBatch(*ciphers, &serial).ok()); });
  probe("crypto.mulplain_us", "us", 1e6 / per,
        [&] { (void)ctx.MulPlainBatch(*ciphers, ks, &serial); });

  // The same r^n mod n^2 exponentiation one layer down, at |n^2|.
  Result<MontgomeryCtx> mont = MontgomeryCtx::Create(key->pub.n_squared);
  PPD_CHECK(mont.ok());
  probe("bigint.modexp_us", "us", 1e6 / per, [&] {
    for (const BigInt& r : rs) (void)mont->Exp(r, n);
  });
  probe("bigint.expbatch_us", "us", 1e6 / per,
        [&] { (void)mont->ExpBatch(rs, n, &serial); });
  constexpr int kMulChain = 2000;
  const BigInt a0 = mont->ToMont(factors[0]);
  const BigInt b = mont->ToMont(rs[0]);
  probe("bigint.montmul_ns", "ns", 1e9 / kMulChain, [&] {
    BigInt a = a0;
    for (int i = 0; i < kMulChain; ++i) a = mont->MulMont(a, b);
    PPD_CHECK(!a.IsZero());
  });
}

}  // namespace jobbench
