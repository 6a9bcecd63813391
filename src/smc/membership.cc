#include "smc/membership.h"

#include <algorithm>

#include "bigint/codec.h"
#include "net/message.h"
#include "smc/inner_product.h"

namespace ppdbscan {

namespace {

/// Number of queries per flight so one kMshResponse frame carries at most
/// kMshMaxCiphersPerFlight ciphers. Both sides derive this from the public
/// sizes, so the flight schedule never desyncs.
size_t QueriesPerFlight(size_t count) {
  return std::max<size_t>(
      1, kMshMaxCiphersPerFlight / std::max<size_t>(1, count));
}

}  // namespace

Result<std::vector<size_t>> MembershipBatchDriver(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const std::vector<std::vector<int64_t>>& queries, int64_t eps_squared,
    SecureRng& rng) {
  const size_t q_count = queries.size();
  const size_t dims = q_count == 0 ? 0 : queries[0].size();
  for (const std::vector<int64_t>& q : queries) {
    if (q.size() != dims) {
      return Status::InvalidArgument(
          "membership queries must share one dimensionality");
    }
  }

  ByteWriter begin;
  begin.PutU32(static_cast<uint32_t>(q_count));
  begin.PutU32(static_cast<uint32_t>(dims));
  PPD_RETURN_IF_ERROR(SendMessage(channel, kMshBegin, begin));
  std::vector<size_t> counts(q_count, 0);
  if (q_count == 0) return counts;

  const PaillierContext& peer = session.peer_paillier();
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, kMshCiphers));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t peer_dims, reader.GetU32());
  if (peer_dims != dims) {
    return AbortPeer(channel,
                     Status::DataLoss("membership dimension mismatch"),
                     "membership dimension mismatch");
  }
  const size_t cells = size_t{count} * dims;
  if (cells > reader.remaining() / 5) {
    return AbortPeer(channel,
                     Status::DataLoss("membership cipher payload truncated"),
                     "membership payload truncated");
  }
  std::vector<BigInt> ciphers;
  ciphers.reserve(cells);
  for (size_t i = 0; i < cells; ++i) {
    PPD_ASSIGN_OR_RETURN(BigInt cipher, ReadBigInt(reader));
    if (!peer.IsValidCiphertext(cipher)) {
      return AbortPeer(channel, Status::DataLoss("membership cipher invalid"),
                       "membership cipher invalid");
    }
    ciphers.push_back(std::move(cipher));
  }
  if (!reader.Done()) {
    return AbortPeer(channel,
                     Status::DataLoss("trailing membership cipher bytes"),
                     "membership trailing bytes");
  }
  if (count == 0) return counts;  // nothing to compare against
  Result<InnerProductCiphers> matrix =
      InnerProductCiphers::Create(peer, std::move(ciphers), count, dims);
  if (!matrix.ok()) {
    return AbortPeer(channel,
                     Status::DataLoss("membership cipher not invertible"),
                     "membership cipher not invertible");
  }

  // S_A per query, reused across that query's comparisons.
  std::vector<BigInt> s_a(q_count);
  for (size_t q = 0; q < q_count; ++q) {
    for (int64_t c : queries[q]) s_a[q] += BigInt(c) * BigInt(c);
  }

  const BigInt threshold(eps_squared);
  const size_t flight = QueriesPerFlight(count);
  for (size_t q0 = 0; q0 < q_count; q0 += flight) {
    const size_t qn = std::min(flight, q_count - q0);
    PPD_ASSIGN_OR_RETURN(std::vector<BigInt> products,
                         matrix->Products(queries, q0, qn, rng));
    ByteWriter out;
    for (const BigInt& c : products) WriteBigInt(out, c);
    PPD_RETURN_IF_ERROR(SendMessage(channel, kMshResponse, out));

    std::vector<BigInt> xqs;
    xqs.reserve(qn * count);
    for (size_t qi = 0; qi < qn; ++qi) {
      for (uint32_t k = 0; k < count; ++k) xqs.push_back(s_a[q0 + qi]);
    }
    PPD_ASSIGN_OR_RETURN(
        std::vector<bool> bits,
        comparator.QuerierCompareBatch(channel, xqs, threshold, count));
    for (size_t qi = 0; qi < qn; ++qi) {
      for (uint32_t k = 0; k < count; ++k) {
        if (bits[qi * count + k]) ++counts[q0 + qi];
      }
    }
  }
  return counts;
}

Status MembershipBatchResponder(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const std::vector<std::vector<int64_t>>& points, SecureRng& rng) {
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> begin_payload,
                       ExpectMessage(channel, kMshBegin));
  ByteReader begin_reader(begin_payload);
  PPD_ASSIGN_OR_RETURN(uint32_t q_count, begin_reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t q_dims, begin_reader.GetU32());
  if (!begin_reader.Done()) {
    return Status::DataLoss("trailing membership begin bytes");
  }
  if (q_count == 0) return Status::Ok();

  const PaillierContext& ctx = session.own_paillier_ctx();
  const BigInt& n = ctx.pub().n;
  const size_t count = points.size();
  const size_t dims = count == 0 ? q_dims : points[0].size();
  if (count != 0 && q_dims != dims) {
    return AbortPeer(channel,
                     Status::DataLoss("membership dimension mismatch"),
                     "membership dimension mismatch");
  }

  // Encrypt the coordinate matrix ONCE; every query reuses it.
  std::vector<BigInt> plain;
  plain.reserve(count * dims);
  for (const std::vector<int64_t>& y : points) {
    for (size_t j = 0; j < dims; ++j) plain.push_back(BigInt(y[j]));
  }
  std::vector<BigInt> cipher_matrix;
  if (PaillierRandomizerPool* rpool = session.own_randomizer_pool()) {
    PPD_ASSIGN_OR_RETURN(cipher_matrix, rpool->EncryptSignedBatch(plain));
  } else {
    PPD_ASSIGN_OR_RETURN(cipher_matrix, ctx.EncryptSignedBatch(plain, rng));
  }
  ByteWriter ciphers;
  ciphers.PutU32(static_cast<uint32_t>(count));
  ciphers.PutU32(static_cast<uint32_t>(dims));
  for (const BigInt& c : cipher_matrix) WriteBigInt(ciphers, c);
  PPD_RETURN_IF_ERROR(SendMessage(channel, kMshCiphers, ciphers));
  if (count == 0) return Status::Ok();

  std::vector<BigInt> sum_y2(count);
  for (size_t k = 0; k < count; ++k) {
    for (int64_t c : points[k]) sum_y2[k] += BigInt(c) * BigInt(c);
  }

  const size_t flight = QueriesPerFlight(count);
  for (size_t q0 = 0; q0 < q_count; q0 += flight) {
    const size_t qn = std::min(flight, size_t{q_count} - q0);
    const size_t total = qn * count;
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, kMshResponse));
    ByteReader reader(payload);
    if (total > reader.remaining() / 5) {
      return AbortPeer(channel,
                       Status::DataLoss("membership response truncated"),
                       "membership response truncated");
    }
    std::vector<BigInt> response;
    response.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      Result<BigInt> read = ReadBigInt(reader);
      if (!read.ok()) {
        return AbortPeer(channel,
                         Status::DataLoss("membership response unreadable: " +
                                          read.status().message()),
                         "membership response unreadable");
      }
      BigInt cipher = std::move(read).value();
      if (!ctx.IsValidCiphertext(cipher)) {
        return AbortPeer(
            channel, Status::DataLoss("membership response cipher invalid"),
            "membership response cipher invalid");
      }
      response.push_back(std::move(cipher));
    }
    if (!reader.Done()) {
      return AbortPeer(channel,
                       Status::DataLoss("trailing membership response bytes"),
                       "membership response trailing bytes");
    }
    PPD_ASSIGN_OR_RETURN(std::vector<BigInt> us,
                         session.own_paillier().DecryptBatch(response));
    std::vector<BigInt> s_b(total);
    for (size_t qi = 0; qi < qn; ++qi) {
      for (size_t k = 0; k < count; ++k) {
        // u = x·y_k, the one value the responder learns per pair.
        const BigInt& u = us[qi * count + k];
        s_b[qi * count + k] =
            ctx.DecodeSigned((sum_y2[k] - BigInt(2) * u).Mod(n));
      }
      // Fresh share permutation PER QUERY: the driver's query share is the
      // same for all of a query's comparisons, so shuffling our shares
      // permutes its result bits without changing the count — it cannot
      // link bit positions to stable points across queries.
      BigInt* base = &s_b[qi * count];
      for (size_t i = count; i > 1; --i) {
        size_t j = rng.UniformU64(i);
        std::swap(base[i - 1], base[j]);
      }
    }
    PPD_RETURN_IF_ERROR(comparator.PeerAssistBatch(channel, s_b, count));
  }
  return Status::Ok();
}

}  // namespace ppdbscan
