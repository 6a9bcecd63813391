#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "bigint/prime.h"
#include "common/thread_pool.h"

namespace ppdbscan {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SecureRng rng(11);
    kp_ = new PaillierKeyPair(*GeneratePaillierKeyPair(rng, 256));
    dec_ = new PaillierDecryptor(*PaillierDecryptor::Create(*kp_));
  }
  static PaillierKeyPair* kp_;
  static PaillierDecryptor* dec_;
};
PaillierKeyPair* PaillierTest::kp_ = nullptr;
PaillierDecryptor* PaillierTest::dec_ = nullptr;

TEST_F(PaillierTest, KeyStructure) {
  EXPECT_EQ(kp_->pub.n, kp_->p * kp_->q);
  EXPECT_EQ(kp_->pub.n.BitLength(), 256u);
  EXPECT_EQ(kp_->pub.n_squared, kp_->pub.n * kp_->pub.n);
  EXPECT_EQ(kp_->pub.g, kp_->pub.n + BigInt(1));
  // gcd(pq, (p-1)(q-1)) = 1 — the paper's key generation condition.
  EXPECT_EQ(BigInt::Gcd(kp_->pub.n,
                        (kp_->p - BigInt(1)) * (kp_->q - BigInt(1))),
            BigInt(1));
  // λ·µ = 1 (mod n) for g = n+1.
  EXPECT_EQ((kp_->lambda * kp_->mu).Mod(kp_->pub.n), BigInt(1));
}

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  SecureRng rng(12);
  const PaillierContext& ctx = dec_->context();
  for (int i = 0; i < 25; ++i) {
    BigInt m = BigInt::RandomBelow(rng, kp_->pub.n);
    Result<BigInt> c = ctx.Encrypt(m, rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*dec_->Decrypt(*c), m);
  }
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  SecureRng rng(13);
  const PaillierContext& ctx = dec_->context();
  BigInt c1 = *ctx.Encrypt(BigInt(42), rng);
  BigInt c2 = *ctx.Encrypt(BigInt(42), rng);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(*dec_->Decrypt(c1), *dec_->Decrypt(c2));
}

TEST_F(PaillierTest, HomomorphicAddition) {
  SecureRng rng(14);
  const PaillierContext& ctx = dec_->context();
  for (int i = 0; i < 15; ++i) {
    BigInt m1 = BigInt::RandomBelow(rng, kp_->pub.n);
    BigInt m2 = BigInt::RandomBelow(rng, kp_->pub.n);
    BigInt sum_cipher = ctx.Add(*ctx.Encrypt(m1, rng), *ctx.Encrypt(m2, rng));
    EXPECT_EQ(*dec_->Decrypt(sum_cipher), (m1 + m2).Mod(kp_->pub.n));
  }
}

TEST_F(PaillierTest, HomomorphicScalarMultiplication) {
  SecureRng rng(15);
  const PaillierContext& ctx = dec_->context();
  for (int64_t k : {0, 1, 2, 1000, -1, -37}) {
    BigInt m(123456789);
    BigInt c = ctx.MulPlain(*ctx.Encrypt(m, rng), BigInt(k));
    EXPECT_EQ(*dec_->Decrypt(c), (m * BigInt(k)).Mod(kp_->pub.n)) << k;
  }
}

TEST_F(PaillierTest, NegateInversePathMatchesNegativeMulPlain) {
  SecureRng rng(16);
  const PaillierContext& ctx = dec_->context();
  for (int64_t m : {0, 5, -123456789}) {
    BigInt c = *ctx.EncryptSigned(BigInt(m), rng);
    Result<BigInt> negated = ctx.Negate(c);
    ASSERT_TRUE(negated.ok()) << negated.status();
    EXPECT_EQ(*dec_->DecryptSigned(*negated), BigInt(-m));
    for (int64_t k : {-1, -2, -37, -1000000}) {
      EXPECT_EQ(*dec_->Decrypt(ctx.MulPlain(*negated, BigInt(-k))),
                *dec_->Decrypt(ctx.MulPlain(c, BigInt(k))))
          << "m=" << m << " k=" << k;
    }
  }
}

TEST_F(PaillierTest, NegateRejectsNonUnitsAndOutOfRange) {
  const PaillierContext& ctx = dec_->context();
  for (const BigInt& c :
       {kp_->pub.n, kp_->p, kp_->q * BigInt(3), BigInt(), kp_->pub.n_squared}) {
    EXPECT_EQ(ctx.Negate(c).status().code(), StatusCode::kInvalidArgument)
        << c.ToHex();
  }
}

TEST_F(PaillierTest, RerandomizePreservesPlaintextChangesCiphertext) {
  SecureRng rng(16);
  const PaillierContext& ctx = dec_->context();
  BigInt c = *ctx.Encrypt(BigInt(777), rng);
  BigInt c2 = *ctx.Rerandomize(c, rng);
  EXPECT_NE(c, c2);
  EXPECT_EQ(*dec_->Decrypt(c2), BigInt(777));
}

TEST_F(PaillierTest, SignedEncoding) {
  SecureRng rng(17);
  const PaillierContext& ctx = dec_->context();
  for (int64_t v : {0, 1, -1, 1000000, -1000000}) {
    Result<BigInt> c = ctx.EncryptSigned(BigInt(v), rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*dec_->DecryptSigned(*c), BigInt(v));
  }
}

TEST_F(PaillierTest, SignedHomomorphicArithmetic) {
  SecureRng rng(18);
  const PaillierContext& ctx = dec_->context();
  // (-50)·7 + 13 = -337, computed under encryption.
  BigInt c = ctx.MulPlain(*ctx.EncryptSigned(BigInt(-50), rng), BigInt(7));
  c = ctx.Add(c, *ctx.EncryptSigned(BigInt(13), rng));
  EXPECT_EQ(*dec_->DecryptSigned(c), BigInt(-337));
}

TEST_F(PaillierTest, SignedEncodingRejectsHuge) {
  const PaillierContext& ctx = dec_->context();
  EXPECT_EQ(ctx.EncodeSigned(kp_->pub.n).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(PaillierTest, PlaintextRangeChecks) {
  SecureRng rng(19);
  const PaillierContext& ctx = dec_->context();
  EXPECT_EQ(ctx.Encrypt(BigInt(-1), rng).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ctx.Encrypt(kp_->pub.n, rng).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(PaillierTest, CiphertextRangeChecks) {
  EXPECT_FALSE(dec_->Decrypt(BigInt(0)).ok());
  EXPECT_FALSE(dec_->Decrypt(kp_->pub.n_squared).ok());
  EXPECT_FALSE(dec_->context().IsValidCiphertext(BigInt(-5)));
}

TEST_F(PaillierTest, PublicKeySerializationRoundTrip) {
  ByteWriter w;
  kp_->pub.Serialize(w);
  ByteReader r(w.data());
  Result<PaillierPublicKey> back = PaillierPublicKey::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->n, kp_->pub.n);
  EXPECT_EQ(back->g, kp_->pub.g);
  EXPECT_EQ(back->n_squared, kp_->pub.n_squared);
  EXPECT_EQ(back->modulus_bits, kp_->pub.modulus_bits);
}

TEST_F(PaillierTest, DeserializationRejectsTruncation) {
  ByteWriter w;
  kp_->pub.Serialize(w);
  std::vector<uint8_t> bytes = w.data();
  bytes.resize(bytes.size() / 2);
  ByteReader r(bytes);
  EXPECT_FALSE(PaillierPublicKey::Deserialize(r).ok());
}

TEST_F(PaillierTest, EncryptBatchBitIdenticalToSerial) {
  const PaillierContext& ctx = dec_->context();
  std::vector<BigInt> ms;
  SecureRng data_rng(40);
  for (int i = 0; i < 24; ++i) {
    ms.push_back(BigInt::RandomBelow(data_rng, kp_->pub.n));
  }
  // Serial reference: the legacy one-call-per-element loop.
  SecureRng serial_rng(41);
  std::vector<BigInt> expect;
  for (const BigInt& m : ms) expect.push_back(*ctx.Encrypt(m, serial_rng));
  // The batch draws the same randomness in the same order, so the outputs
  // must be bit-identical for every pool width.
  for (size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    SecureRng batch_rng(41);
    Result<std::vector<BigInt>> batch = ctx.EncryptBatch(ms, batch_rng, &pool);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, expect) << "workers=" << workers;
  }
  // Global-pool overload too.
  SecureRng batch_rng(41);
  Result<std::vector<BigInt>> batch = ctx.EncryptBatch(ms, batch_rng);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(*batch, expect);
}

TEST_F(PaillierTest, EncryptSignedBatchBitIdenticalToSerial) {
  const PaillierContext& ctx = dec_->context();
  std::vector<BigInt> vs;
  for (int64_t v : {0, 1, -1, 7, -4242, 1000000, -999999}) {
    vs.push_back(BigInt(v));
  }
  SecureRng serial_rng(42);
  std::vector<BigInt> expect;
  for (const BigInt& v : vs) {
    expect.push_back(*ctx.EncryptSigned(v, serial_rng));
  }
  ThreadPool pool(3);
  SecureRng batch_rng(42);
  Result<std::vector<BigInt>> batch =
      ctx.EncryptSignedBatch(vs, batch_rng, &pool);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(*batch, expect);
}

TEST_F(PaillierTest, EncryptBatchRejectsOutOfRangeWithoutConsumingRandomness) {
  const PaillierContext& ctx = dec_->context();
  SecureRng rng_a(43), rng_b(43);
  std::vector<BigInt> bad = {BigInt(1), kp_->pub.n};
  EXPECT_EQ(ctx.EncryptBatch(bad, rng_a).status().code(),
            StatusCode::kOutOfRange);
  // rng_a was not advanced: a subsequent encryption matches rng_b's.
  EXPECT_EQ(*ctx.Encrypt(BigInt(5), rng_a), *ctx.Encrypt(BigInt(5), rng_b));
}

TEST_F(PaillierTest, MulPlainAddDecryptBatchesMatchSerial) {
  const PaillierContext& ctx = dec_->context();
  SecureRng rng(44);
  std::vector<BigInt> cs, ks;
  for (int i = 0; i < 17; ++i) {
    BigInt m = BigInt::RandomBelow(rng, kp_->pub.n);
    cs.push_back(*ctx.Encrypt(m, rng));
    ks.push_back(BigInt((i % 5) - 2));  // include negative and zero scalars
  }
  ThreadPool pool(4);
  std::vector<BigInt> prod = ctx.MulPlainBatch(cs, ks, &pool);
  Result<std::vector<BigInt>> dec_batch = dec_->DecryptBatch(cs, &pool);
  ASSERT_TRUE(dec_batch.ok());
  ASSERT_EQ(prod.size(), cs.size());
  for (size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(prod[i], ctx.MulPlain(cs[i], ks[i])) << i;
    EXPECT_EQ((*dec_batch)[i], *dec_->Decrypt(cs[i])) << i;
  }
}

TEST_F(PaillierTest, DecryptSignedBatchRoundTrip) {
  const PaillierContext& ctx = dec_->context();
  SecureRng rng(45);
  std::vector<BigInt> vs, cs;
  for (int64_t v : {0, 1, -1, 31337, -31337}) {
    vs.push_back(BigInt(v));
    cs.push_back(*ctx.EncryptSigned(BigInt(v), rng));
  }
  Result<std::vector<BigInt>> back = dec_->DecryptSignedBatch(cs);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, vs);
}

TEST_F(PaillierTest, DecryptBatchRejectsInvalidCiphertext) {
  std::vector<BigInt> cs = {BigInt(1), BigInt(0)};
  EXPECT_EQ(dec_->DecryptBatch(cs).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PaillierTest, EncryptWithFactorMatchesManualComposition) {
  const PaillierContext& ctx = dec_->context();
  SecureRng rng(46);
  BigInt r = ctx.SampleRandomizer(rng);
  EXPECT_EQ(BigInt::Gcd(r, kp_->pub.n), BigInt(1));
  BigInt factor = ctx.RandomizerFactor(r);
  EXPECT_EQ(factor, BigInt::ModExp(r, kp_->pub.n, kp_->pub.n_squared));
  Result<BigInt> c = ctx.EncryptWithFactor(BigInt(123), factor);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*dec_->Decrypt(*c), BigInt(123));
  EXPECT_EQ(ctx.EncryptWithFactor(kp_->pub.n, factor).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(PaillierTest, RandomizerPoolCiphertextsDecryptCorrectly) {
  PaillierRandomizerPool pool(dec_->context(), SecureRng(47), /*target=*/8);
  for (int64_t v : {0, 1, -1, 424242, -424242}) {
    Result<BigInt> c = pool.EncryptSigned(BigInt(v));
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*dec_->DecryptSigned(*c), BigInt(v));
  }
  Result<BigInt> c = pool.Encrypt(BigInt(99));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*dec_->Decrypt(*c), BigInt(99));
  EXPECT_EQ(pool.Encrypt(BigInt(-1)).status().code(), StatusCode::kOutOfRange);
}

TEST_F(PaillierTest, RandomizerPoolNeverReusesFactors) {
  PaillierRandomizerPool pool(dec_->context(), SecureRng(48), /*target=*/4);
  // Factors must be pairwise distinct (single-use), and therefore equal
  // plaintexts must map to pairwise distinct ciphertexts.
  std::set<BigInt> factors;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(factors.insert(pool.TakeFactor()).second) << i;
  }
  std::set<BigInt> ciphers;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(ciphers.insert(*pool.Encrypt(BigInt(7))).second) << i;
  }
  EXPECT_GE(pool.produced(), 48u);
}

TEST_F(PaillierTest, RandomizerPoolPrefillBuffersFactors) {
  PaillierRandomizerPool pool(dec_->context(), SecureRng(49), /*target=*/6);
  pool.Prefill(6);
  EXPECT_GE(pool.available(), 6u);
  // Online encryptions drain the buffer and still decrypt correctly.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(*dec_->Decrypt(*pool.Encrypt(BigInt(i))), BigInt(i));
  }
}

TEST_F(PaillierTest, RandomizerPoolTakeFactorsBatchDecrypts) {
  PaillierRandomizerPool pool(dec_->context(), SecureRng(50), /*target=*/4);
  // More factors than the target so the inline-fill path runs too.
  std::vector<BigInt> ms;
  for (int64_t m = 0; m < 10; ++m) ms.push_back(BigInt(m * m + 1));
  Result<std::vector<BigInt>> cs = pool.EncryptBatch(ms);
  ASSERT_TRUE(cs.ok());
  ASSERT_EQ(cs->size(), ms.size());
  std::set<std::string> distinct;
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(*dec_->Decrypt((*cs)[i]), ms[i]);
    distinct.insert((*cs)[i].ToHex());
  }
  EXPECT_EQ(distinct.size(), ms.size());  // single-use factors
  EXPECT_GE(pool.produced(), ms.size());
}

TEST_F(PaillierTest, RandomizerPoolSignedBatchRoundTrip) {
  PaillierRandomizerPool pool(dec_->context(), SecureRng(51), /*target=*/4);
  std::vector<BigInt> vs = {BigInt(-7), BigInt(0), BigInt(99),
                            BigInt(-123456), BigInt(1) << 40};
  Result<std::vector<BigInt>> cs = pool.EncryptSignedBatch(vs);
  ASSERT_TRUE(cs.ok());
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(*dec_->DecryptSigned((*cs)[i]), vs[i]);
  }
}

TEST_F(PaillierTest, RandomizerPoolConsumptionIsDeterministic) {
  // Same seed + same request pattern -> identical ciphertexts, no matter
  // how the background producer interleaves: factors are consumed strictly
  // in rng draw order.
  auto run = [&](size_t target) {
    PaillierRandomizerPool pool(dec_->context(), SecureRng(52), target);
    std::vector<std::string> out;
    out.push_back(pool.Encrypt(BigInt(17))->ToHex());
    std::vector<BigInt> ms = {BigInt(1), BigInt(2), BigInt(3), BigInt(4),
                              BigInt(5), BigInt(6)};
    Result<std::vector<BigInt>> batch = pool.EncryptBatch(ms);
    for (const BigInt& c : *batch) out.push_back(c.ToHex());
    out.push_back(pool.EncryptSigned(BigInt(-9))->ToHex());
    return out;
  };
  // Different targets change the producer/consumer interleaving but must
  // not change the factor sequence.
  std::vector<std::string> a = run(1);
  std::vector<std::string> b = run(8);
  std::vector<std::string> c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST_F(PaillierTest, RandomizerPoolReserveBuildsBeyondTargetDeterministically) {
  // Reserve() asks the producer to pre-build a job's worth of factors past
  // the steady-state target, without blocking the caller and without
  // changing which factor the k-th encryption consumes.
  constexpr size_t kDemand = 12;
  auto run = [&](bool reserve) {
    PaillierRandomizerPool pool(dec_->context(), SecureRng(54), /*target=*/2);
    if (reserve) {
      pool.Reserve(kDemand);
      // The producer must eventually buffer past the depth-2 target; poll
      // available() rather than sleeping a fixed time.
      while (pool.available() < kDemand) {
        std::this_thread::yield();
      }
      EXPECT_GE(pool.produced(), kDemand);
    }
    std::vector<BigInt> ms;
    for (size_t i = 0; i < kDemand; ++i) ms.push_back(BigInt(int64_t(i)));
    Result<std::vector<BigInt>> batch = pool.EncryptBatch(ms);
    PPD_CHECK(batch.ok());
    std::vector<std::string> out;
    for (const BigInt& c : *batch) out.push_back(c.ToHex());
    return out;
  };
  std::vector<std::string> reserved = run(true);
  std::vector<std::string> unreserved = run(false);
  EXPECT_EQ(reserved, unreserved);
}

TEST_F(PaillierTest, EncryptBatchWithFactorsMatchesManualComposition) {
  SecureRng rng(53);
  const PaillierContext& ctx = dec_->context();
  std::vector<BigInt> ms = {BigInt(3), BigInt(1) << 100, BigInt(0)};
  std::vector<BigInt> rs(ms.size());
  std::vector<BigInt> factors(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    rs[i] = ctx.SampleRandomizer(rng);
    factors[i] = ctx.RandomizerFactor(rs[i]);
  }
  Result<std::vector<BigInt>> cs = ctx.EncryptBatchWithFactors(ms, factors);
  ASSERT_TRUE(cs.ok());
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(*ctx.EncryptWithFactor(ms[i], factors[i]), (*cs)[i]);
    EXPECT_EQ(*dec_->Decrypt((*cs)[i]), ms[i]);
  }
  // Out-of-range plaintexts fail without producing ciphertexts.
  std::vector<BigInt> bad = {ctx.pub().n};
  std::vector<BigInt> one_factor = {factors[0]};
  EXPECT_FALSE(ctx.EncryptBatchWithFactors(bad, one_factor).ok());
}

TEST(PaillierKeygenTest, RejectsBadSizes) {
  SecureRng rng(20);
  EXPECT_FALSE(GeneratePaillierKeyPair(rng, 32).ok());
  EXPECT_FALSE(GeneratePaillierKeyPair(rng, 127).ok());
}

TEST(PaillierKeygenTest, RandomGeneratorPath) {
  SecureRng rng(21);
  Result<PaillierKeyPair> kp = GeneratePaillierKeyPair(rng, 128,
                                                       /*random_g=*/true);
  ASSERT_TRUE(kp.ok());
  EXPECT_NE(kp->pub.g, kp->pub.n + BigInt(1));
  Result<PaillierDecryptor> dec = PaillierDecryptor::Create(*kp);
  ASSERT_TRUE(dec.ok());
  for (int64_t v : {0, 5, 123456}) {
    BigInt c = *dec->context().Encrypt(BigInt(v), rng);
    EXPECT_EQ(*dec->Decrypt(c), BigInt(v));
  }
}

TEST(PaillierKeygenTest, CrtDecryptionMatchesTextbookFormula) {
  SecureRng rng(22);
  Result<PaillierKeyPair> kp = GeneratePaillierKeyPair(rng, 128);
  ASSERT_TRUE(kp.ok());
  Result<PaillierDecryptor> dec = PaillierDecryptor::Create(*kp);
  ASSERT_TRUE(dec.ok());
  for (int i = 0; i < 10; ++i) {
    BigInt m = BigInt::RandomBelow(rng, kp->pub.n);
    BigInt c = *dec->context().Encrypt(m, rng);
    // Textbook: m = L(c^λ mod n²)·µ mod n.
    BigInt l = (BigInt::ModExp(c, kp->lambda, kp->pub.n_squared) - BigInt(1)) /
               kp->pub.n;
    BigInt textbook = (l * kp->mu).Mod(kp->pub.n);
    EXPECT_EQ(*dec->Decrypt(c), textbook);
    EXPECT_EQ(textbook, m);
  }
}

TEST(PaillierKeygenTest, DecryptorRejectsInconsistentKeyPair) {
  SecureRng rng(23);
  PaillierKeyPair kp = *GeneratePaillierKeyPair(rng, 128);
  kp.p = kp.p + BigInt(2);  // corrupt
  EXPECT_FALSE(PaillierDecryptor::Create(kp).ok());
}

}  // namespace
}  // namespace ppdbscan
