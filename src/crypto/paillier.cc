#include "crypto/paillier.h"

#include <algorithm>

#include "bigint/prime.h"

namespace ppdbscan {

namespace {

// L(u) = (u - 1) / n, defined for u ≡ 1 (mod n).
BigInt LFunction(const BigInt& u, const BigInt& n) { return (u - BigInt(1)) / n; }

Status ValidatePublicKey(const PaillierPublicKey& pub) {
  if (pub.n <= BigInt(3)) {
    return Status::InvalidArgument("Paillier modulus too small");
  }
  if (pub.n_squared != pub.n * pub.n) {
    return Status::InvalidArgument("n_squared does not match n");
  }
  if (pub.g <= BigInt(1) || pub.g >= pub.n_squared) {
    return Status::InvalidArgument("generator out of range");
  }
  return Status::Ok();
}

}  // namespace

void PaillierPublicKey::Serialize(ByteWriter& out) const {
  out.PutU32(static_cast<uint32_t>(modulus_bits));
  out.PutBytes(n.ToBytes());
  out.PutBytes(g.ToBytes());
}

Result<PaillierPublicKey> PaillierPublicKey::Deserialize(ByteReader& in) {
  PaillierPublicKey pub;
  PPD_ASSIGN_OR_RETURN(uint32_t bits, in.GetU32());
  pub.modulus_bits = bits;
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> n_bytes, in.GetBytes());
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> g_bytes, in.GetBytes());
  pub.n = BigInt::FromBytes(n_bytes);
  pub.n_squared = pub.n * pub.n;
  pub.g = BigInt::FromBytes(g_bytes);
  PPD_RETURN_IF_ERROR(ValidatePublicKey(pub));
  return pub;
}

Result<PaillierKeyPair> GeneratePaillierKeyPair(SecureRng& rng,
                                                size_t modulus_bits,
                                                bool random_g) {
  if (modulus_bits < 64 || modulus_bits % 2 != 0) {
    return Status::InvalidArgument(
        "Paillier modulus must be an even bit count >= 64");
  }
  const size_t prime_bits = modulus_bits / 2;
  while (true) {
    BigInt p = GeneratePrime(rng, prime_bits);
    BigInt q = GeneratePrime(rng, prime_bits);
    if (p == q) continue;
    BigInt n = p * q;
    BigInt p1 = p - BigInt(1);
    BigInt q1 = q - BigInt(1);
    // The paper's condition: gcd(pq, (p-1)(q-1)) = 1.
    if (BigInt::Gcd(n, p1 * q1) != BigInt(1)) continue;

    PaillierKeyPair kp;
    kp.p = std::move(p);
    kp.q = std::move(q);
    kp.pub.n = n;
    kp.pub.n_squared = n * n;
    kp.pub.modulus_bits = modulus_bits;
    kp.lambda = BigInt::Lcm(p1, q1);

    if (random_g) {
      // Sample g until L(g^λ mod n²) is invertible mod n (the paper's
      // "ensure n divides the order of g" check).
      while (true) {
        BigInt g = BigInt::RandomBelow(rng, kp.pub.n_squared - BigInt(1)) +
                   BigInt(1);
        if (BigInt::Gcd(g, kp.pub.n_squared) != BigInt(1)) continue;
        BigInt l = LFunction(BigInt::ModExp(g, kp.lambda, kp.pub.n_squared),
                             kp.pub.n);
        Result<BigInt> mu = BigInt::ModInverse(l, kp.pub.n);
        if (!mu.ok()) continue;
        kp.pub.g = std::move(g);
        kp.mu = std::move(mu).value();
        break;
      }
    } else {
      // g = n + 1: L(g^λ mod n²) = λ, so µ = λ⁻¹ mod n.
      kp.pub.g = kp.pub.n + BigInt(1);
      Result<BigInt> mu = BigInt::ModInverse(kp.lambda, kp.pub.n);
      if (!mu.ok()) continue;  // cannot happen given the gcd condition
      kp.mu = std::move(mu).value();
    }
    return kp;
  }
}

Result<PaillierContext> PaillierContext::Create(PaillierPublicKey pub) {
  PPD_RETURN_IF_ERROR(ValidatePublicKey(pub));
  PaillierContext ctx;
  ctx.pub_ = std::move(pub);
  ctx.half_n_ = ctx.pub_.n >> 1;
  ctx.g_is_n_plus_1_ = ctx.pub_.g == ctx.pub_.n + BigInt(1);
  Result<MontgomeryCtx> mont = MontgomeryCtx::Create(ctx.pub_.n_squared);
  PPD_RETURN_IF_ERROR(mont.status());
  ctx.ctx_n2_ =
      std::make_shared<const MontgomeryCtx>(std::move(mont).value());
  if (!ctx.g_is_n_plus_1_) {
    // Non-default generator: every Encrypt computes g^m for this fixed g
    // and m < n, so a one-time windowed table turns each of those into a
    // squaring-free product chain. (Default g = n+1 never exponentiates.)
    ctx.g_table_ = std::make_shared<const FixedBaseTable>(
        *ctx.ctx_n2_, ctx.pub_.g, ctx.pub_.n.BitLength());
  }
  return ctx;
}

bool PaillierContext::IsValidCiphertext(const BigInt& c) const {
  return c.sign() > 0 && c < pub_.n_squared;
}

BigInt PaillierContext::SampleRandomizer(SecureRng& rng) const {
  BigInt r;
  do {
    r = BigInt::RandomBelow(rng, pub_.n - BigInt(1)) + BigInt(1);
  } while (BigInt::Gcd(r, pub_.n) != BigInt(1));
  return r;
}

BigInt PaillierContext::RandomizerFactor(const BigInt& r) const {
  return ctx_n2_->Exp(r, pub_.n);
}

std::vector<BigInt> PaillierContext::RandomizerFactorBatch(
    const std::vector<BigInt>& rs, ThreadPool* pool) const {
  return ctx_n2_->ExpBatch(rs, pub_.n, pool);
}

Result<BigInt> PaillierContext::EncryptWithFactor(const BigInt& m,
                                                  const BigInt& factor) const {
  if (m.IsNegative() || m >= pub_.n) {
    return Status::OutOfRange("Paillier plaintext must lie in [0, n)");
  }
  BigInt gm;
  if (g_is_n_plus_1_) {
    gm = (BigInt(1) + m * pub_.n).Mod(pub_.n_squared);
  } else {
    // Bit-identical to ctx_n2_->Exp(pub_.g, m), minus all the squarings.
    gm = g_table_->ExpFixedBase(m);
  }
  return (gm * factor).Mod(pub_.n_squared);
}

Result<BigInt> PaillierContext::Encrypt(const BigInt& m,
                                        SecureRng& rng) const {
  if (m.IsNegative() || m >= pub_.n) {
    return Status::OutOfRange("Paillier plaintext must lie in [0, n)");
  }
  return EncryptWithFactor(m, RandomizerFactor(SampleRandomizer(rng)));
}

Result<BigInt> PaillierContext::EncryptSigned(const BigInt& v,
                                              SecureRng& rng) const {
  PPD_ASSIGN_OR_RETURN(BigInt m, EncodeSigned(v));
  return Encrypt(m, rng);
}

Result<std::vector<BigInt>> PaillierContext::EncryptBatch(
    const std::vector<BigInt>& ms, SecureRng& rng, ThreadPool* pool) const {
  for (const BigInt& m : ms) {
    if (m.IsNegative() || m >= pub_.n) {
      return Status::OutOfRange("Paillier plaintext must lie in [0, n)");
    }
  }
  // Draw every randomizer serially first: the rng stream matches the
  // serial Encrypt loop exactly, and the expensive exponentiations below
  // then run with no shared mutable state.
  std::vector<BigInt> rs(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) rs[i] = SampleRandomizer(rng);
  // All r_i^n share the exponent n: the batched multi-exp engine beats
  // independent per-element Exp calls even before thread-level fan-out.
  // Factors are bit-identical either way, so ciphertexts don't change.
  const std::vector<BigInt> factors = RandomizerFactorBatch(rs, pool);
  std::vector<BigInt> out(ms.size());
  ParallelFor(
      ms.size(),
      [&](size_t i) { out[i] = *EncryptWithFactor(ms[i], factors[i]); },
      pool);
  return out;
}

Result<std::vector<BigInt>> PaillierContext::EncryptSignedBatch(
    const std::vector<BigInt>& vs, SecureRng& rng, ThreadPool* pool) const {
  std::vector<BigInt> ms(vs.size());
  for (size_t i = 0; i < vs.size(); ++i) {
    PPD_ASSIGN_OR_RETURN(ms[i], EncodeSigned(vs[i]));
  }
  return EncryptBatch(ms, rng, pool);
}

Result<std::vector<BigInt>> PaillierContext::EncryptBatchWithFactors(
    const std::vector<BigInt>& ms, const std::vector<BigInt>& factors,
    ThreadPool* pool) const {
  PPD_CHECK_MSG(ms.size() == factors.size(),
                "EncryptBatchWithFactors size mismatch");
  for (const BigInt& m : ms) {
    if (m.IsNegative() || m >= pub_.n) {
      return Status::OutOfRange("Paillier plaintext must lie in [0, n)");
    }
  }
  std::vector<BigInt> out(ms.size());
  ParallelFor(
      ms.size(),
      [&](size_t i) { out[i] = *EncryptWithFactor(ms[i], factors[i]); },
      pool);
  return out;
}

std::vector<BigInt> PaillierContext::MulPlainBatch(
    const std::vector<BigInt>& cs, const std::vector<BigInt>& ks,
    ThreadPool* pool) const {
  PPD_CHECK_MSG(cs.size() == ks.size(), "MulPlainBatch size mismatch");
  std::vector<BigInt> out(cs.size());
  ParallelFor(
      cs.size(), [&](size_t i) { out[i] = MulPlain(cs[i], ks[i]); }, pool);
  return out;
}

BigInt PaillierContext::Add(const BigInt& c1, const BigInt& c2) const {
  PPD_CHECK_MSG(IsValidCiphertext(c1) && IsValidCiphertext(c2),
                "invalid ciphertext");
  return (c1 * c2).Mod(pub_.n_squared);
}

BigInt PaillierContext::MulPlain(const BigInt& c, const BigInt& k) const {
  PPD_CHECK_MSG(IsValidCiphertext(c), "invalid ciphertext");
  return ctx_n2_->Exp(c, k.Mod(pub_.n));
}

Result<BigInt> PaillierContext::Negate(const BigInt& c) const {
  if (!IsValidCiphertext(c)) {
    return Status::InvalidArgument("invalid ciphertext");
  }
  return BigInt::ModInverse(c, pub_.n_squared);
}

Result<std::vector<BigInt>> PaillierContext::NegateBatch(
    const std::vector<BigInt>& cs) const {
  // prefix[i] = c_0 ⋯ c_i; the product is a unit iff every factor is.
  std::vector<BigInt> prefix(cs.size());
  BigInt product(1);
  for (size_t i = 0; i < cs.size(); ++i) {
    if (!IsValidCiphertext(cs[i])) {
      return Status::InvalidArgument("invalid ciphertext");
    }
    product = (product * cs[i]).Mod(pub_.n_squared);
    prefix[i] = product;
  }
  PPD_ASSIGN_OR_RETURN(BigInt inverse,
                       BigInt::ModInverse(product, pub_.n_squared));
  // Walking back, `inverse` is (c_0 ⋯ c_i)⁻¹, so c_i⁻¹ = inverse · prefix[i−1].
  std::vector<BigInt> out(cs.size());
  for (size_t i = cs.size(); i-- > 0;) {
    out[i] = i == 0 ? inverse : (inverse * prefix[i - 1]).Mod(pub_.n_squared);
    inverse = (inverse * cs[i]).Mod(pub_.n_squared);
  }
  return out;
}

Result<BigInt> PaillierContext::Rerandomize(const BigInt& c,
                                            SecureRng& rng) const {
  if (!IsValidCiphertext(c)) {
    return Status::InvalidArgument("invalid ciphertext");
  }
  PPD_ASSIGN_OR_RETURN(BigInt zero_enc, Encrypt(BigInt(), rng));
  return (c * zero_enc).Mod(pub_.n_squared);
}

Result<std::vector<BigInt>> PaillierContext::RerandomizeBatch(
    const std::vector<BigInt>& cs, SecureRng& rng, ThreadPool* pool) const {
  for (const BigInt& c : cs) {
    if (!IsValidCiphertext(c)) {
      return Status::InvalidArgument("invalid ciphertext");
    }
  }
  std::vector<BigInt> rs(cs.size());
  for (size_t i = 0; i < cs.size(); ++i) rs[i] = SampleRandomizer(rng);
  const std::vector<BigInt> factors = RandomizerFactorBatch(rs, pool);
  std::vector<BigInt> out(cs.size());
  ParallelFor(
      cs.size(),
      [&](size_t i) { out[i] = (cs[i] * factors[i]).Mod(pub_.n_squared); },
      pool);
  return out;
}

Result<BigInt> PaillierContext::EncodeSigned(const BigInt& v) const {
  if (v.Abs() >= half_n_) {
    return Status::OutOfRange("signed plaintext exceeds n/2");
  }
  return v.Mod(pub_.n);
}

BigInt PaillierContext::DecodeSigned(const BigInt& m) const {
  PPD_CHECK_MSG(!m.IsNegative() && m < pub_.n, "encoded value out of range");
  if (m > half_n_) return m - pub_.n;
  return m;
}

Result<PaillierDecryptor> PaillierDecryptor::Create(PaillierKeyPair kp) {
  PaillierDecryptor dec;
  Result<PaillierContext> ctx = PaillierContext::Create(kp.pub);
  PPD_RETURN_IF_ERROR(ctx.status());
  dec.context_ = std::move(ctx).value();
  if (kp.p * kp.q != kp.pub.n) {
    return Status::InvalidArgument("p*q != n");
  }
  dec.p_squared_ = kp.p * kp.p;
  dec.q_squared_ = kp.q * kp.q;

  Result<MontgomeryCtx> mp = MontgomeryCtx::Create(dec.p_squared_);
  PPD_RETURN_IF_ERROR(mp.status());
  dec.ctx_p2_ = std::make_shared<const MontgomeryCtx>(std::move(mp).value());
  Result<MontgomeryCtx> mq = MontgomeryCtx::Create(dec.q_squared_);
  PPD_RETURN_IF_ERROR(mq.status());
  dec.ctx_q2_ = std::make_shared<const MontgomeryCtx>(std::move(mq).value());

  // h_p = L_p(g^{p-1} mod p²)⁻¹ mod p (and the analogue for q). The p−1 and
  // q−1 exponents are cached: Decrypt uses them on every call.
  dec.p_minus_1_ = kp.p - BigInt(1);
  dec.q_minus_1_ = kp.q - BigInt(1);
  const BigInt& p1 = dec.p_minus_1_;
  const BigInt& q1 = dec.q_minus_1_;
  BigInt lp = (dec.ctx_p2_->Exp(kp.pub.g.Mod(dec.p_squared_), p1) - BigInt(1)) / kp.p;
  BigInt lq = (dec.ctx_q2_->Exp(kp.pub.g.Mod(dec.q_squared_), q1) - BigInt(1)) / kp.q;
  Result<BigInt> hp = BigInt::ModInverse(lp, kp.p);
  PPD_RETURN_IF_ERROR(hp.status());
  Result<BigInt> hq = BigInt::ModInverse(lq, kp.q);
  PPD_RETURN_IF_ERROR(hq.status());
  dec.hp_ = std::move(hp).value();
  dec.hq_ = std::move(hq).value();
  Result<BigInt> qinv = BigInt::ModInverse(kp.q, kp.p);
  PPD_RETURN_IF_ERROR(qinv.status());
  dec.q_inv_mod_p_ = std::move(qinv).value();
  dec.kp_ = std::move(kp);
  return dec;
}

Result<BigInt> PaillierDecryptor::Decrypt(const BigInt& c) const {
  if (!context_.IsValidCiphertext(c)) {
    return Status::InvalidArgument("ciphertext out of range");
  }
  // CRT decryption: m_p = L_p(c^{p-1} mod p²)·h_p mod p, likewise for q,
  // recombined via Garner's formula.
  BigInt mp =
      ((ctx_p2_->Exp(c.Mod(p_squared_), p_minus_1_) - BigInt(1)) / kp_.p * hp_)
          .Mod(kp_.p);
  BigInt mq =
      ((ctx_q2_->Exp(c.Mod(q_squared_), q_minus_1_) - BigInt(1)) / kp_.q * hq_)
          .Mod(kp_.q);
  BigInt h = ((mp - mq) * q_inv_mod_p_).Mod(kp_.p);
  return mq + h * kp_.q;
}

Result<BigInt> PaillierDecryptor::DecryptSigned(const BigInt& c) const {
  PPD_ASSIGN_OR_RETURN(BigInt m, Decrypt(c));
  return context_.DecodeSigned(m);
}

Result<std::vector<BigInt>> PaillierDecryptor::DecryptBatch(
    const std::vector<BigInt>& cs, ThreadPool* pool) const {
  for (const BigInt& c : cs) {
    if (!context_.IsValidCiphertext(c)) {
      return Status::InvalidArgument("ciphertext out of range");
    }
  }
  // Both CRT legs share their exponent across the whole batch (p−1 resp.
  // q−1), so the c^{p−1} mod p² towers run through the batched multi-exp
  // engine; only the cheap L/recombination work stays per-element.
  // Bit-identical to the serial Decrypt loop.
  std::vector<BigInt> cps(cs.size()), cqs(cs.size());
  for (size_t i = 0; i < cs.size(); ++i) {
    cps[i] = cs[i].Mod(p_squared_);
    cqs[i] = cs[i].Mod(q_squared_);
  }
  const std::vector<BigInt> up = ctx_p2_->ExpBatch(cps, p_minus_1_, pool);
  const std::vector<BigInt> uq = ctx_q2_->ExpBatch(cqs, q_minus_1_, pool);
  std::vector<BigInt> out(cs.size());
  ParallelFor(
      cs.size(),
      [&](size_t i) {
        BigInt mp = ((up[i] - BigInt(1)) / kp_.p * hp_).Mod(kp_.p);
        BigInt mq = ((uq[i] - BigInt(1)) / kp_.q * hq_).Mod(kp_.q);
        BigInt h = ((mp - mq) * q_inv_mod_p_).Mod(kp_.p);
        out[i] = mq + h * kp_.q;
      },
      pool);
  return out;
}

Result<std::vector<BigInt>> PaillierDecryptor::DecryptSignedBatch(
    const std::vector<BigInt>& cs, ThreadPool* pool) const {
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> ms, DecryptBatch(cs, pool));
  for (BigInt& m : ms) m = context_.DecodeSigned(m);
  return ms;
}

PaillierRandomizerPool::PaillierRandomizerPool(PaillierContext ctx,
                                               SecureRng rng, size_t target)
    : ctx_(std::move(ctx)),
      target_(target == 0 ? 1 : target),
      rng_(std::move(rng)),
      producer_([this] { ProducerLoop(); }) {}

PaillierRandomizerPool::~PaillierRandomizerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  refill_cv_.notify_all();
  producer_.join();
}

void PaillierRandomizerPool::ProducerLoop() {
  // Refill in small chunks so the background exponentiations ride the
  // batched multi-exp engine (8 lanes per AVX-512 IFMA vector) instead of
  // one scalar Exp per wakeup. The chunk is capped low enough that a
  // consumer arriving for an in-flight sequence number waits one chunk,
  // not one buffer-refill.
  constexpr size_t kChunk = 8;
  while (true) {
    std::vector<BigInt> rs;
    uint64_t first_seq;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Pause while a consumer is mid-Take: starting a new draw then would
      // put the consumer's next sequence number perpetually in flight and
      // serialize its batch behind this one thread.
      refill_cv_.wait(lock, [this] {
        return stop_ ||
               ((ready_.size() < target_ ||
                 next_draw_seq_ < reserve_target_seq_) &&
                pending_consumers_ == 0);
      });
      if (stop_) return;
      // Draw (with the Z*_n rejection loop) and claim the sequence slots
      // atomically: the rng stream position always equals the draw
      // sequence, which is what makes pooled encryption deterministic
      // under a seeded rng.
      size_t want = target_ > ready_.size() ? target_ - ready_.size() : 0;
      if (next_draw_seq_ < reserve_target_seq_) {
        want = std::max<size_t>(
            want, static_cast<size_t>(reserve_target_seq_ - next_draw_seq_));
      }
      if (want == 0) want = 1;
      if (want > kChunk) want = kChunk;
      first_seq = next_draw_seq_;
      rs.reserve(want);
      for (size_t i = 0; i < want; ++i) {
        rs.push_back(ctx_.SampleRandomizer(rng_));
        ++next_draw_seq_;
        ++produced_;
      }
    }
    // Only the exponentiations run unlocked, so online consumers never
    // stall on a background refill.
    std::vector<BigInt> factors = ctx_.RandomizerFactorBatch(rs, nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < factors.size(); ++i) {
        ready_.emplace(first_seq + i, std::move(factors[i]));
      }
    }
    filled_cv_.notify_all();
  }
}

void PaillierRandomizerPool::TakeFactorsInto(size_t count,
                                             std::vector<BigInt>& out,
                                             ThreadPool* pool) {
  std::vector<BigInt> rs;  // randomizers still needing the r^n exponentiation
  size_t inline_base = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++pending_consumers_;
    if (count > peak_demand_) peak_demand_ = count;
    size_t taken = 0;
    while (taken < count) {
      auto it = ready_.find(next_consume_seq_);
      if (it != ready_.end()) {
        out.push_back(std::move(it->second));
        ready_.erase(it);
        ++next_consume_seq_;
        ++taken;
        continue;
      }
      if (next_consume_seq_ < next_draw_seq_) {
        // The producer (or another consumer) has this sequence number in
        // flight; wait for it to land rather than skipping ahead (one
        // factor's worth of latency, the same cost the inline path would
        // pay). The predicate also wakes when another consumer advances
        // next_consume_seq_ up to next_draw_seq_ — then this thread falls
        // through to the inline path instead of sleeping on a sequence
        // number nobody is producing.
        filled_cv_.wait(lock, [this] {
          return ready_.count(next_consume_seq_) != 0 ||
                 next_consume_seq_ >= next_draw_seq_;
        });
        continue;
      }
      // Ahead of the producer: draw the remaining randomizers now (under
      // the lock, claiming their sequence slots) and exponentiate outside.
      inline_base = out.size();
      rs.reserve(count - taken);
      while (taken < count) {
        rs.push_back(ctx_.SampleRandomizer(rng_));
        ++next_draw_seq_;
        ++next_consume_seq_;
        ++produced_;
        ++taken;
      }
    }
    --pending_consumers_;
  }
  refill_cv_.notify_one();
  // Wake any consumer parked on a sequence number this call consumed or
  // claimed inline — its wait predicate reads the advanced counters.
  filled_cv_.notify_all();
  if (!rs.empty()) {
    out.resize(inline_base + rs.size());
    std::vector<BigInt> factors = ctx_.RandomizerFactorBatch(rs, pool);
    for (size_t i = 0; i < factors.size(); ++i) {
      out[inline_base + i] = std::move(factors[i]);
    }
  }
}

BigInt PaillierRandomizerPool::TakeFactor() {
  std::vector<BigInt> out;
  out.reserve(1);
  TakeFactorsInto(1, out, nullptr);
  return std::move(out[0]);
}

std::vector<BigInt> PaillierRandomizerPool::TakeFactors(size_t count,
                                                        ThreadPool* pool) {
  std::vector<BigInt> factors;
  factors.reserve(count);
  TakeFactorsInto(count, factors, pool);
  return factors;
}

Result<BigInt> PaillierRandomizerPool::Encrypt(const BigInt& m) {
  if (m.IsNegative() || m >= ctx_.pub().n) {
    return Status::OutOfRange("Paillier plaintext must lie in [0, n)");
  }
  return ctx_.EncryptWithFactor(m, TakeFactor());
}

Result<BigInt> PaillierRandomizerPool::EncryptSigned(const BigInt& v) {
  PPD_ASSIGN_OR_RETURN(BigInt m, ctx_.EncodeSigned(v));
  return Encrypt(m);
}

Result<std::vector<BigInt>> PaillierRandomizerPool::EncryptBatch(
    const std::vector<BigInt>& ms, ThreadPool* pool) {
  // Pre-validate before TakeFactors so invalid input cannot burn
  // single-use factors (EncryptBatchWithFactors re-checks for its other,
  // non-pooled callers; the duplicate scan is cheap next to the crypto).
  for (const BigInt& m : ms) {
    if (m.IsNegative() || m >= ctx_.pub().n) {
      return Status::OutOfRange("Paillier plaintext must lie in [0, n)");
    }
  }
  return ctx_.EncryptBatchWithFactors(ms, TakeFactors(ms.size(), pool), pool);
}

Result<std::vector<BigInt>> PaillierRandomizerPool::EncryptSignedBatch(
    const std::vector<BigInt>& vs, ThreadPool* pool) {
  std::vector<BigInt> ms(vs.size());
  for (size_t i = 0; i < vs.size(); ++i) {
    PPD_ASSIGN_OR_RETURN(ms[i], ctx_.EncodeSigned(vs[i]));
  }
  return EncryptBatch(ms, pool);
}

void PaillierRandomizerPool::Reserve(size_t count) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t want = next_consume_seq_ + count;
    if (want > reserve_target_seq_) reserve_target_seq_ = want;
  }
  refill_cv_.notify_one();
}

void PaillierRandomizerPool::Prefill(size_t count) {
  std::unique_lock<std::mutex> lock(mu_);
  // Clamp under the lock: AdaptTarget may resize target_ concurrently.
  if (count > target_) count = target_;
  filled_cv_.wait(lock, [&] { return ready_.size() >= count; });
}

size_t PaillierRandomizerPool::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_.size();
}

uint64_t PaillierRandomizerPool::produced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return produced_;
}

size_t PaillierRandomizerPool::peak_demand() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_demand_;
}

size_t PaillierRandomizerPool::steady_target() const {
  std::lock_guard<std::mutex> lock(mu_);
  return target_;
}

size_t PaillierRandomizerPool::AdaptTarget(size_t floor, size_t cap) {
  size_t new_target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (peak_demand_ == 0) return target_;  // idle since last adapt
    new_target = peak_demand_;
    if (new_target < floor) new_target = floor;
    if (cap > 0 && new_target > cap) new_target = cap;
    if (new_target == 0) new_target = 1;
    target_ = new_target;
    peak_demand_ = 0;
  }
  // A grown target means the producer may have room again.
  refill_cv_.notify_one();
  return new_target;
}

}  // namespace ppdbscan
