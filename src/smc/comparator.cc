#include "smc/comparator.h"

#include <algorithm>

#include "bigint/codec.h"
#include "common/thread_pool.h"
#include "net/message.h"
#include "smc/ymp.h"

namespace ppdbscan {

namespace {

constexpr uint16_t kIdealQuery = 0x0401;   // Querier -> Peer: x_q, T
constexpr uint16_t kIdealAnswer = 0x0402;  // Peer -> Querier: bit

/// Algorithm 1 backend. The Querier plays the Evaluator (j holder, learns
/// the bit); the Peer plays the KeyOwner (i holder, decrypts); reporting is
/// off so the Peer learns nothing. Mapping into [1, n0], n0 = 2B + 3:
///   i = x_p + B + 1,  j = threshold − x_q + B + 2
///   i < j  <=>  x_q + x_p <= threshold.
class YmppComparator : public SecureComparator {
 public:
  YmppComparator(const SmcSession& session, const ComparatorOptions& options,
                 SecureRng& rng)
      : session_(session), rng_(rng), bound_(options.magnitude_bound) {
    ymp_options_.domain =
        2 * static_cast<uint64_t>(bound_.MagnitudeU64()) + 3;
    ymp_options_.report_result = false;
    ymp_options_.prime_rounds = options.ymp_prime_rounds;
  }

  std::string name() const override { return "ymp"; }

 protected:
  Result<bool> QuerierCompareImpl(Channel& channel, const BigInt& x_q,
                                  const BigInt& threshold) override {
    BigInt shifted = threshold - x_q + bound_ + BigInt(2);
    if (shifted < BigInt(1) ||
        shifted > BigInt::FromU64(ymp_options_.domain)) {
      return AbortPeer(
          channel,
          Status::OutOfRange("querier value exceeds comparator magnitude "
                             "bound"),
          "ymp comparator querier out of range");
    }
    return RunYmppEvaluator(channel, session_,
                            static_cast<uint64_t>(shifted.ToI64()),
                            ymp_options_, rng_);
  }

  Status PeerAssistImpl(Channel& channel, const BigInt& x_p) override {
    if (x_p.Abs() > bound_) {
      return AbortPeer(
          channel,
          Status::OutOfRange("peer value exceeds comparator magnitude bound"),
          "ymp comparator peer out of range");
    }
    BigInt shifted = x_p + bound_ + BigInt(1);
    Result<std::optional<bool>> r =
        RunYmppKeyOwner(channel, session_,
                        static_cast<uint64_t>(shifted.ToI64()), ymp_options_,
                        rng_);
    return r.ok() ? Status::Ok() : r.status();
  }

 private:
  const SmcSession& session_;
  SecureRng& rng_;
  BigInt bound_;
  YmppOptions ymp_options_;
};

/// Paillier multiplicative-blinding backend. The Querier sends
/// E(x_q − T − 1) under its own key; the Peer returns
/// E(x_q − T − 1)^ρ · E(ρ·x_p + σ) = E(ρ·(x_q − T − 1 + x_p) + σ) with ρ
/// uniform in [2^(b−1), 2^b) and σ uniform in [0, ρ). The fresh encryption
/// rerandomizes the answer uniformly. The decrypted value w is negative iff
/// x_q + x_p <= T. Exact result; leaks ~log|δ| to the Querier (quantified
/// in bench_enhanced_vs_basic's leakage table).
///
/// Inputs are treated as elements of Z_n (reduced before encryption), so
/// the backend also accepts the §5 protocol's uniformly masked shares,
/// whose individual magnitudes are unbounded even though the reconstructed
/// difference is small. Correctness therefore rests on the caller's
/// guarantee that |x_q + x_p − T| <= magnitude_bound, which Validate()
/// checks against the blinding headroom at construction time.
///
/// A single comparison is a batch of one. In a batch, one query cipher
/// serves each group of comparisons that share the querier's value
/// (SecureComparator::Grouping); every comparison still gets its own ρ, σ
/// and answer.
class BlindedPaillierComparator : public SecureComparator {
 public:
  BlindedPaillierComparator(const SmcSession& session,
                            const ComparatorOptions& options, SecureRng& rng)
      : session_(session),
        rng_(rng),
        bound_(options.magnitude_bound),
        blinding_bits_(options.blinding_bits) {}

  std::string name() const override { return "blinded_paillier"; }

  /// Blinding must not wrap the signed plaintext domain:
  /// ρ·|δ'| + σ < n/2 with |δ'| <= 2B + 2.
  Status Validate() const {
    BigInt max_w = ((bound_ * BigInt(2) + BigInt(2)) + BigInt(1))
                   * (BigInt(1) << blinding_bits_);
    if (max_w >= session_.own_paillier_ctx().pub().n >> 1 ||
        max_w >= session_.peer_paillier().pub().n >> 1) {
      return Status::InvalidArgument(
          "blinding would overflow the Paillier plaintext domain; lower "
          "blinding_bits or magnitude_bound, or use larger keys");
    }
    if (blinding_bits_ < 2) {
      return Status::InvalidArgument("blinding_bits must be >= 2");
    }
    return Status::Ok();
  }

 protected:
  Result<bool> QuerierCompareImpl(Channel& channel, const BigInt& x_q,
                                  const BigInt& threshold) override {
    PPD_ASSIGN_OR_RETURN(std::vector<bool> bits,
                         QuerierCompareBatchImpl(channel, {x_q}, threshold,
                                                 Grouping{}));
    return static_cast<bool>(bits[0]);
  }

  Status PeerAssistImpl(Channel& channel, const BigInt& x_p) override {
    return PeerAssistBatchImpl(channel, {x_p}, Grouping{});
  }

  // One non-interactive exchange per flight: the query ciphers, then the
  // answers, with the cryptography running through the Paillier batch APIs
  // (and the session randomizer pool on the querier side when present).
  Result<std::vector<bool>> QuerierCompareBatchImpl(
      Channel& channel, const std::vector<BigInt>& xqs,
      const BigInt& threshold, const Grouping& grouping) override {
    if (xqs.empty()) return std::vector<bool>();
    const PaillierContext& ctx = session_.own_paillier_ctx();
    std::vector<BigInt> ms;
    for (size_t i = 0; i < xqs.size(); ++i) {
      if (grouping.StartsGroup(i)) {
        ms.push_back((xqs[i] - threshold - BigInt(1)).Mod(ctx.pub().n));
      }
    }
    std::vector<BigInt> ciphers;
    if (PaillierRandomizerPool* rpool = session_.own_randomizer_pool()) {
      PPD_ASSIGN_OR_RETURN(ciphers, rpool->EncryptBatch(ms));
    } else {
      PPD_ASSIGN_OR_RETURN(ciphers, ctx.EncryptBatch(ms, rng_));
    }
    for (const BigInt& cipher : ciphers) {
      ByteWriter out;
      WriteBigInt(out, cipher);
      PPD_RETURN_IF_ERROR(SendMessage(channel, kBlindQuery, out));
    }
    std::vector<BigInt> answers;
    answers.reserve(xqs.size());
    for (size_t i = 0; i < xqs.size(); ++i) {
      PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           ExpectMessage(channel, kBlindAnswer));
      ByteReader reader(payload);
      PPD_ASSIGN_OR_RETURN(BigInt answer, ReadBigInt(reader));
      if (!ctx.IsValidCiphertext(answer)) {
        return Status::DataLoss("blinded answer out of range");
      }
      answers.push_back(std::move(answer));
    }
    PPD_ASSIGN_OR_RETURN(std::vector<BigInt> ws,
                         session_.own_paillier().DecryptSignedBatch(answers));
    std::vector<bool> bits(ws.size());
    for (size_t i = 0; i < ws.size(); ++i) bits[i] = ws[i].IsNegative();
    return bits;
  }

  Status PeerAssistBatchImpl(Channel& channel, const std::vector<BigInt>& xps,
                             const Grouping& grouping) override {
    if (xps.empty()) return Status::Ok();
    const PaillierContext& peer = session_.peer_paillier();
    // query[i]: index of the query cipher that serves comparison i. A
    // flight that starts mid-group reuses the previous flight's cipher.
    std::vector<size_t> query(xps.size());
    std::vector<BigInt> queries;
    if (!grouping.StartsGroup(0)) queries.push_back(group_query_);
    for (size_t i = 0; i < xps.size(); ++i) {
      if (grouping.StartsGroup(i)) {
        PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                             ExpectMessage(channel, kBlindQuery));
        ByteReader reader(payload);
        PPD_ASSIGN_OR_RETURN(BigInt cipher, ReadBigInt(reader));
        if (!peer.IsValidCiphertext(cipher)) {
          return Status::DataLoss("blinded query out of range");
        }
        queries.push_back(std::move(cipher));
      }
      query[i] = queries.size() - 1;
    }
    group_query_ = queries.back();
    // ρ and σ are drawn serially per element before the batch passes.
    std::vector<BigInt> rhos(xps.size());
    std::vector<BigInt> offsets(xps.size());
    for (size_t i = 0; i < xps.size(); ++i) {
      rhos[i] = BigInt::RandomBits(rng_, blinding_bits_ - 1) +
                (BigInt(1) << (blinding_bits_ - 1));
      BigInt sigma = BigInt::RandomBelow(rng_, rhos[i]);
      offsets[i] = (rhos[i] * xps[i] + sigma).Mod(peer.pub().n);
    }
    PPD_ASSIGN_OR_RETURN(std::vector<BigInt> fresh,
                         peer.EncryptBatch(offsets, rng_));
    std::vector<BigInt> answers(xps.size());
    std::vector<uint8_t> zero(xps.size(), 0);
    ParallelFor(xps.size(), [&](size_t i) {
      BigInt scaled = peer.MulPlain(queries[query[i]], rhos[i]);
      // A query that is not a unit mod n² can power to 0.
      if (!peer.IsValidCiphertext(scaled)) {
        zero[i] = 1;
        return;
      }
      answers[i] = peer.Add(scaled, fresh[i]);
    });
    if (std::find(zero.begin(), zero.end(), 1) != zero.end()) {
      return Status::DataLoss("blinded query not invertible");
    }
    for (const BigInt& answer : answers) {
      ByteWriter out;
      WriteBigInt(out, answer);
      PPD_RETURN_IF_ERROR(SendMessage(channel, kBlindAnswer, out));
    }
    return Status::Ok();
  }

 private:
  const SmcSession& session_;
  SecureRng& rng_;
  BigInt bound_;
  size_t blinding_bits_;
  BigInt group_query_;  // peer: the query cipher of the group in progress
};

/// Trusted-third-party reference functionality (§3.3 of the paper): the
/// values cross the wire in plaintext. Exists so protocol-layer tests can
/// isolate clustering logic from cryptography. NEVER use outside tests.
///
/// Values are exchanged modulo the querier's Paillier modulus and the
/// difference is centred before the sign test, so the backend accepts the
/// same mod-n share inputs as the blinded backend.
class IdealComparator : public SecureComparator {
 public:
  explicit IdealComparator(const SmcSession& session) : session_(session) {}

  std::string name() const override { return "ideal"; }

 protected:
  Result<bool> QuerierCompareImpl(Channel& channel, const BigInt& x_q,
                                  const BigInt& threshold) override {
    PPD_RETURN_IF_ERROR(SendQuery(channel, x_q, threshold));
    return ReadAnswer(channel);
  }

  Status PeerAssistImpl(Channel& channel, const BigInt& x_p) override {
    PPD_ASSIGN_OR_RETURN(BigInt slack, ReadQuery(channel));
    return SendAnswer(channel, slack, x_p);
  }

  // Batched rounds: all queries, then all answers, with the per-message
  // format of the serial path.
  Result<std::vector<bool>> QuerierCompareBatchImpl(
      Channel& channel, const std::vector<BigInt>& xqs,
      const BigInt& threshold, const Grouping& /*grouping*/) override {
    for (const BigInt& x_q : xqs) {
      PPD_RETURN_IF_ERROR(SendQuery(channel, x_q, threshold));
    }
    std::vector<bool> bits(xqs.size());
    for (size_t i = 0; i < xqs.size(); ++i) {
      PPD_ASSIGN_OR_RETURN(bool bit, ReadAnswer(channel));
      bits[i] = bit;
    }
    return bits;
  }

  Status PeerAssistBatchImpl(Channel& channel, const std::vector<BigInt>& xps,
                             const Grouping& /*grouping*/) override {
    std::vector<BigInt> slacks;
    slacks.reserve(xps.size());
    for (size_t i = 0; i < xps.size(); ++i) {
      PPD_ASSIGN_OR_RETURN(BigInt slack, ReadQuery(channel));
      slacks.push_back(std::move(slack));
    }
    for (size_t i = 0; i < xps.size(); ++i) {
      PPD_RETURN_IF_ERROR(SendAnswer(channel, slacks[i], xps[i]));
    }
    return Status::Ok();
  }

 private:
  Status SendQuery(Channel& channel, const BigInt& x_q,
                   const BigInt& threshold) {
    const BigInt& n = session_.own_paillier_ctx().pub().n;
    ByteWriter out;
    WriteBigInt(out, (threshold - x_q).Mod(n));
    return SendMessage(channel, kIdealQuery, out);
  }

  static Result<bool> ReadAnswer(Channel& channel) {
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, kIdealAnswer));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint8_t bit, reader.GetU8());
    if (bit > 1) return Status::DataLoss("invalid ideal comparator answer");
    return bit == 1;
  }

  static Result<BigInt> ReadQuery(Channel& channel) {
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, kIdealQuery));
    ByteReader reader(payload);
    return ReadBigInt(reader);
  }

  Status SendAnswer(Channel& channel, const BigInt& slack, const BigInt& x_p) {
    // The peer's view of the querier's modulus. Centre (slack − x_p) mod
    // n: non-negative  <=>  x_q + x_p <= T.
    const PaillierContext& peer = session_.peer_paillier();
    BigInt diff = peer.DecodeSigned((slack - x_p).Mod(peer.pub().n));
    ByteWriter out;
    out.PutU8(diff.IsNegative() ? 0 : 1);
    return SendMessage(channel, kIdealAnswer, out);
  }

  const SmcSession& session_;
};

}  // namespace

const char* ComparatorKindToString(ComparatorKind kind) {
  switch (kind) {
    case ComparatorKind::kYmpp:
      return "ymp";
    case ComparatorKind::kBlindedPaillier:
      return "blinded_paillier";
    case ComparatorKind::kIdeal:
      return "ideal";
  }
  return "unknown";
}

Result<std::unique_ptr<SecureComparator>> CreateComparator(
    const ComparatorOptions& options, const SmcSession& session,
    SecureRng& rng) {
  if (options.magnitude_bound.sign() <= 0) {
    return Status::InvalidArgument("magnitude_bound must be positive");
  }
  std::unique_ptr<SecureComparator> comparator;
  switch (options.kind) {
    case ComparatorKind::kYmpp: {
      if (!options.magnitude_bound.FitsU64() ||
          options.magnitude_bound.MagnitudeU64() > (uint64_t{1} << 32)) {
        return Status::InvalidArgument(
            "YMPP comparator bound too large (protocol is Θ(domain); use "
            "the blinded backend for large domains)");
      }
      comparator.reset(new YmppComparator(session, options, rng));
      break;
    }
    case ComparatorKind::kBlindedPaillier: {
      auto cmp = std::make_unique<BlindedPaillierComparator>(session, options,
                                                             rng);
      PPD_RETURN_IF_ERROR(cmp->Validate());
      comparator = std::move(cmp);
      break;
    }
    case ComparatorKind::kIdeal:
      comparator.reset(new IdealComparator(session));
      break;
  }
  if (comparator == nullptr) {
    return Status::InvalidArgument("unknown comparator kind");
  }
  comparator->set_max_batch_in_flight(options.max_batch_in_flight);
  return comparator;
}

}  // namespace ppdbscan
