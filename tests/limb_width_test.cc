// Limb-width invariance and limb-boundary edge cases for the bigint core.
//
// The bigint substrate selects its limb width at compile time
// (bigint/limb.h): 64-bit limbs with __int128 CIOS by default, 32-bit
// limbs as fallback (-DPPDBSCAN_LIMB64=OFF). Everything observable —
// serialized bytes, codec frames, ciphertexts under fixed rng streams —
// must be bit-identical across the two builds. The golden values below
// were generated once from the 32-bit build (which reproduces the
// pre-migration seed behaviour bit for bit) and verified identical on the
// 64-bit build; both CI legs assert against the same constants, so a
// divergence in either build fails its leg.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "bigint/codec.h"
#include "bigint/limb.h"
#include "bigint/montgomery.h"
#include "common/random.h"
#include "common/serialize.h"
#include "crypto/paillier.h"

namespace ppdbscan {
namespace {

std::string HexBytes(const std::vector<uint8_t>& b) {
  static const char* d = "0123456789abcdef";
  std::string s;
  for (uint8_t x : b) {
    s.push_back(d[x >> 4]);
    s.push_back(d[x & 15]);
  }
  return s;
}

TEST(LimbWidthTest, LimbTypedefsAreConsistent) {
  EXPECT_EQ(kLimbBits, sizeof(Limb) * 8);
  EXPECT_EQ(kLimbBytes, sizeof(Limb));
  EXPECT_EQ(sizeof(DoubleLimb), 2 * sizeof(Limb));
#if defined(PPDBSCAN_LIMB64)
  EXPECT_EQ(kLimbBits, 64u);
#else
  EXPECT_EQ(kLimbBits, 32u);
#endif
}

// Fixed rng stream -> fixed magnitudes, independent of the limb width.
TEST(LimbWidthTest, RandomBitsGoldenHex) {
  const std::vector<std::pair<size_t, std::string>> golden = {
      {1, "1"},
      {31, "25828ef3"},
      {32, "97b29f72"},
      {33, "173890324"},
      {63, "5743524e38597fa1"},
      {64, "841193dbedf38438"},
      {65, "adef6e24dbbdb7c3"},
      {96, "faf15f798f97473746aeb623"},
      {127, "16bfb1b57111f870abb4052d19714466"},
      {128, "4b2447062084f6f91bf1ac9b864ad998"},
      {129, "a63c3551eff54d2ba87bd24e28208d33"},
      {255, "1015a99df382a51550f2ba355b7209895f27aa4ffee5391c19f02f327e5e96c7"},
      {521,
       "1cd1575f10daf3551a6781e1c5088862a56454b0e1175f9e1031fd6d8caa6060deb4c3"
       "8b4c3f728f7ac51d8df084e6b720e293b4de2692a287d6ff1dd59966c3a40"},
  };
  SecureRng rng(0x5eed0001);
  for (const auto& [bits, hex] : golden) {
    BigInt v = BigInt::RandomBits(rng, bits);
    EXPECT_EQ(v.ToHex(), hex) << "bits=" << bits;
    EXPECT_LE(v.BitLength(), bits);
    // ToBytes is big-endian magnitude with no leading zero byte.
    std::vector<uint8_t> bytes = v.ToBytes();
    EXPECT_EQ(bytes.size(), (v.BitLength() + 7) / 8);
    EXPECT_EQ(BigInt::FromBytes(bytes), v);
  }
}

// The codec frame (sign byte + length-prefixed big-endian magnitude) must
// serialize identically in both builds.
TEST(LimbWidthTest, CodecGoldenBytes) {
  const std::string golden =
      "01000000054804705c730200000007bdd5be84519a0a010000000974a7b1ae9589ec73"
      "5a010000000c066d4e94bafe7fed19c638b7020000000e061482e32b3ba483077f6e49"
      "3a1f0000000000010000001204185074b152c1da1214c29e48cc1af96077020000001"
      "404e6d7c14963127c9475783bff839c03bc96dfbe";
  SecureRng rng(0x5eed0002);
  ByteWriter w;
  std::vector<BigInt> values;
  for (int i = 0; i < 8; ++i) {
    BigInt v = BigInt::RandomBits(rng, 40 + 17 * static_cast<size_t>(i));
    if (i % 3 == 1) v = -v;
    if (i == 5) v = BigInt();
    values.push_back(v);
    WriteBigInt(w, v);
  }
  EXPECT_EQ(HexBytes(w.data()), golden);
  // And the frames decode back to the same values.
  ByteReader r(w.data());
  for (const BigInt& v : values) {
    Result<BigInt> back = ReadBigInt(r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
  EXPECT_TRUE(r.Done());
}

// Fixed keygen + encryption rng streams -> fixed Paillier ciphertexts.
// This pins the whole pipeline (prime generation, keygen, the rejection
// loops, Montgomery exponentiation, serialization) to the 32-bit build's
// output.
TEST(LimbWidthTest, PaillierCiphertextGolden) {
  SecureRng krng(0x5eed0003);
  Result<PaillierKeyPair> kp = GeneratePaillierKeyPair(krng, 128);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(kp->pub.n.ToHex(), "d6703c7e4619d152ab668d337b6781f9");
  Result<PaillierContext> ctx = PaillierContext::Create(kp->pub);
  ASSERT_TRUE(ctx.ok());

  SecureRng erng(0x5eed0004);
  const std::vector<std::pair<int64_t, std::string>> golden = {
      {0, "7454a78d8b5a70debb85131406d779469143980eaabbae72c5f7ed6d38766931"},
      {1, "18054f592d3d93c5448daa69bfc273a4747352976cb124b20baaf9e86e55b2cd"},
      {7, "a93e1c6b53595e9f7d22580623373d7cef4c1fc1107e2320922bb07c993413b3"},
      {123456789,
       "786f2892e7a531e818cfa30e0951fdf08885526e862b31f80f0f0703a2c1394d"},
  };
  for (const auto& [m, hex] : golden) {
    Result<BigInt> c = ctx->Encrypt(BigInt(m), erng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c->ToHex(), hex) << "m=" << m;
  }
  // Batch encryption continues the same stream with the same bytes as the
  // serial loop would (PR 2's contract), across both limb widths.
  const std::vector<std::string> golden_signed = {
      "5682664e6bedf31a04d96386b7c10fec4f3e8e69625f0d3ab61ab070f445becd",
      "67c1278ff0a98d6dfcdfaefa08167e6e48c028d17efb6b5b66cc9653be9a12b9",
      "3f0d3bb6952744e3ecda5d6fc7a9df06ff39fdb2659b6046039d706b2cd2b818",
      "54aca8b5f6a5bd2a0d4ab5dc1f50feed1c22909a65ac2cc5c0651e0564a409fe",
  };
  std::vector<BigInt> vs = {BigInt(-5), BigInt(42), BigInt(-123456),
                            BigInt(0)};
  Result<std::vector<BigInt>> batch = ctx->EncryptSignedBatch(vs, erng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), golden_signed.size());
  for (size_t i = 0; i < golden_signed.size(); ++i) {
    EXPECT_EQ((*batch)[i].ToHex(), golden_signed[i]) << "i=" << i;
  }
}

// Negate is a deterministic inverse mod n², so its bytes are pinned like
// the ciphertexts above; raising the inverse to |k| must decrypt like
// MulPlain(c, k) for k < 0 (the membership round's inverse path).
TEST(LimbWidthTest, NegateGoldenAndInversePath) {
  SecureRng krng(0x5eed0003);
  Result<PaillierKeyPair> kp = GeneratePaillierKeyPair(krng, 128);
  ASSERT_TRUE(kp.ok());
  Result<PaillierDecryptor> dec = PaillierDecryptor::Create(*kp);
  ASSERT_TRUE(dec.ok());
  const PaillierContext& ctx = dec->context();

  SecureRng erng(0x5eed0005);
  Result<BigInt> c = ctx.EncryptSigned(BigInt(-5), erng);
  ASSERT_TRUE(c.ok());
  Result<BigInt> negated = ctx.Negate(*c);
  ASSERT_TRUE(negated.ok());
  EXPECT_EQ(negated->ToHex(),
            "69d82d0d6c7a90cd904a65f27181ed8f5d0ecfa0f00dbb6316fa2cb562fad203");
  for (int64_t k : {int64_t{-1}, int64_t{-2}, int64_t{-37},
                    -(int64_t{1} << 40)}) {
    EXPECT_EQ(*dec->Decrypt(ctx.MulPlain(*negated, BigInt(-k))),
              *dec->Decrypt(ctx.MulPlain(*c, BigInt(k))))
        << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Carry/borrow edge cases at the limb boundaries. These are value-level
// identities (independent of limb width) chosen to stress 2^31/2^32 and
// 2^63/2^64 transitions, max-limb operands, and odd limb counts in both
// builds.

BigInt Pow2(size_t k) { return BigInt(1) << k; }

TEST(LimbWidthTest, AdditionCarryChains) {
  for (size_t k : {31u, 32u, 33u, 63u, 64u, 65u, 95u, 96u, 127u, 128u}) {
    BigInt max = Pow2(k) - BigInt(1);  // k one-bits
    EXPECT_EQ(max + BigInt(1), Pow2(k)) << k;
    EXPECT_EQ(Pow2(k) - max, BigInt(1)) << k;
    EXPECT_EQ(max + max, Pow2(k + 1) - BigInt(2)) << k;
    // Borrow rippling through every limb: (2^k) - 1 == max.
    EXPECT_EQ(Pow2(k) - BigInt(1), max) << k;
  }
  // 2^63 ± 1 as native conversions.
  BigInt a(INT64_MAX);  // 2^63 - 1
  EXPECT_EQ(a + BigInt(1), Pow2(63));
  EXPECT_EQ(a + BigInt(2), Pow2(63) + BigInt(1));
  EXPECT_EQ(BigInt(INT64_MIN) + a, BigInt(-1));
  EXPECT_EQ(BigInt::FromU64(UINT64_MAX) + BigInt(1), Pow2(64));
}

TEST(LimbWidthTest, MultiplicationAtLimbBoundaries) {
  // (2^k - 1)^2 == 2^2k - 2^(k+1) + 1 exercises the full carry cascade.
  for (size_t k : {32u, 63u, 64u, 65u, 96u, 128u, 256u}) {
    BigInt max = Pow2(k) - BigInt(1);
    EXPECT_EQ(max * max, Pow2(2 * k) - Pow2(k + 1) + BigInt(1)) << k;
  }
  // (2^63 + 1)(2^63 - 1) == 2^126 - 1.
  EXPECT_EQ((Pow2(63) + BigInt(1)) * (Pow2(63) - BigInt(1)),
            Pow2(126) - BigInt(1));
  // Max-limb × 1 and × 0.
  BigInt max192 = Pow2(192) - BigInt(1);
  EXPECT_EQ(max192 * BigInt(1), max192);
  EXPECT_TRUE((max192 * BigInt()).IsZero());
}

TEST(LimbWidthTest, DivModInvariantsAtBoundaries) {
  std::vector<BigInt> dividends;
  std::vector<BigInt> divisors;
  for (size_t k : {32u, 63u, 64u, 65u, 96u, 160u}) {  // odd limb counts too
    dividends.push_back(Pow2(k) - BigInt(1));
    dividends.push_back(Pow2(k));
    dividends.push_back(Pow2(k) + BigInt(1));
    divisors.push_back(Pow2(k) - BigInt(59));
    divisors.push_back(Pow2(k / 2) + BigInt(1));
  }
  divisors.push_back(BigInt(1));
  divisors.push_back(BigInt::FromU64(UINT64_MAX));
  for (const BigInt& a : dividends) {
    for (const BigInt& b : divisors) {
      BigInt q, r;
      a.DivMod(b, &q, &r);
      EXPECT_EQ(q * b + r, a) << a << " / " << b;
      EXPECT_TRUE(r >= BigInt() && r < b) << a << " % " << b;
    }
  }
}

TEST(LimbWidthTest, ShiftRoundTripsAcrossLimbBoundaries) {
  SecureRng rng(0x5eed0005);
  for (size_t bits : {40u, 64u, 100u, 192u}) {
    BigInt v = BigInt::RandomBits(rng, bits) + BigInt(1);
    for (size_t k : {1u, 31u, 32u, 33u, 63u, 64u, 65u, 130u}) {
      EXPECT_EQ((v << k) >> k, v) << bits << " " << k;
      EXPECT_EQ(v << k, v * Pow2(k)) << bits << " " << k;
    }
  }
}

TEST(LimbWidthTest, ModExpNearBoundaryModuli) {
  // Odd moduli straddling the 64-bit limb boundary; compare Montgomery
  // exponentiation against a naive square-and-multiply over BigInt::Mod.
  std::vector<BigInt> moduli = {
      Pow2(64) - BigInt(59),  // single 64-bit limb, near max
      Pow2(63) + BigInt(9),
      Pow2(65) + BigInt(13),
      Pow2(96) - BigInt(17),  // odd limb count in the 64-bit build
  };
  SecureRng rng(0x5eed0006);
  for (const BigInt& m : moduli) {
    ASSERT_TRUE(m.IsOdd());
    BigInt base = BigInt::RandomBelow(rng, m);
    BigInt exp = BigInt::RandomBits(rng, 48);
    BigInt expect(1);
    for (size_t i = exp.BitLength(); i-- > 0;) {
      expect = (expect * expect).Mod(m);
      if (exp.TestBit(i)) expect = (expect * base).Mod(m);
    }
    EXPECT_EQ(BigInt::ModExp(base, exp, m), expect) << m;
    // Montgomery context round trip at the same modulus.
    Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    EXPECT_EQ(ctx->FromMont(ctx->ToMont(base)), base) << m;
    EXPECT_EQ(ctx->SqrMont(ctx->ToMont(base)),
              ctx->MulMont(ctx->ToMont(base), ctx->ToMont(base)))
        << m;
  }
}

TEST(LimbWidthTest, DecimalAndHexAgreeAtBoundaries) {
  const std::vector<std::pair<BigInt, std::string>> cases = {
      {Pow2(63) - BigInt(1), "9223372036854775807"},
      {Pow2(63), "9223372036854775808"},
      {Pow2(63) + BigInt(1), "9223372036854775809"},
      {Pow2(64) - BigInt(1), "18446744073709551615"},
      {Pow2(64), "18446744073709551616"},
      {Pow2(128) - BigInt(1), "340282366920938463463374607431768211455"},
  };
  for (const auto& [v, dec] : cases) {
    EXPECT_EQ(v.ToDecimal(), dec);
    Result<BigInt> back = BigInt::FromDecimal(dec);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    Result<BigInt> hex_back = BigInt::FromHex(v.ToHex());
    ASSERT_TRUE(hex_back.ok());
    EXPECT_EQ(*hex_back, v);
  }
}

}  // namespace
}  // namespace ppdbscan
