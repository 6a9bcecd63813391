#ifndef PPDBSCAN_CORE_WIRE_H_
#define PPDBSCAN_CORE_WIRE_H_

#include <cstdint>

namespace ppdbscan {

/// Message tag space of the DBSCAN protocol layer (0x1000+; the SMC
/// sub-protocols use 0x0100-0x04FF, session setup 0x0001, abort 0xFFFF).
/// The non-scanning party dispatches on these tags in its responder loop.
namespace wire {

// Horizontal protocol (Algorithms 3/4 and 7/8).
inline constexpr uint16_t kHzQueryBasic = 0x1001;     // Kumar baseline: one HDP batch
inline constexpr uint16_t kHzQueryEnhanced = 0x1002;  // driver asks for a §5 core test
inline constexpr uint16_t kHzScanDone = 0x1003;       // driver finished its scan
inline constexpr uint16_t kHdpCiphers = 0x1004;       // responder's E(y) batch
inline constexpr uint16_t kHdpResponse = 0x1005;      // driver's E(x·y_k) per point

// §5 selection sub-protocol (driver -> responder requests).
inline constexpr uint16_t kSelCompare = 0x1010;  // payload: u32 i, u32 j
inline constexpr uint16_t kSelFinal = 0x1011;    // payload: u32 i (vs Eps²)
inline constexpr uint16_t kSelDone = 0x1012;     // core test finished

// Vertical protocol (Algorithms 5/6). The vertical scan opens with
// kVtHello (u32 record count, u8 pruning flag) and, when pruning, the
// packed upper-triangle kVtPrune bitmap; kVtResults carries one flight's
// comparison bits. kVtQuery/kVtNeighbours drive the arbitrary scan's
// per-query loop.
inline constexpr uint16_t kVtQuery = 0x1020;      // payload: u32 point index
inline constexpr uint16_t kVtNeighbours = 0x1021; // driver's neighbour id list
inline constexpr uint16_t kVtDone = 0x1022;
inline constexpr uint16_t kVtHello = 0x1023;      // payload: u32 record count
inline constexpr uint16_t kVtPrune = 0x1024;      // payload: prune bitmap (E9)
inline constexpr uint16_t kVtResults = 0x1025;    // payload: packed flight bits

// Arbitrary protocol (§4.4) reuses the vertical loop tags plus a per-pair
// HDP exchange for the cross-owned attributes.
inline constexpr uint16_t kArbPairCiphers = 0x1030;
inline constexpr uint16_t kArbPairResponse = 0x1031;

// E7 cross-party merge extension.
inline constexpr uint16_t kMergeCores = 0x1040;   // payload: u32 core count
inline constexpr uint16_t kMergeLinks = 0x1041;   // payload: linked pairs

// Clustering planner (core/plan.h). kPlanBounds opens every non-exact run:
// u8 plan mode (sanity — the hello already verified it), u32 record count,
// and the sender's plaintext bounding box (prune mode; sieve sends an
// empty box). kPlanBands follows in prune mode with the sender's boundary
// band size (computable only after seeing the peer's box), so each side
// can predict its encrypted-comparison bill before the first round.
// kHzQueryMembership asks the responder to serve one batched encrypted
// eps-membership round (smc/membership.h) over its plan-subset view — the
// two-party basic scan's bulk core-flag round and the sieve plan's
// leftover-rescue round.
inline constexpr uint16_t kPlanBounds = 0x1070;
inline constexpr uint16_t kPlanBands = 0x1071;
inline constexpr uint16_t kHzQueryMembership = 0x1072;

// Job-facade config negotiation (core/job.h). Sent once per link at the
// start of every PartyRuntime::Run: protocol version, scheme tag, party
// position, the public scalar protocol parameters, and a digest of the
// remaining ProtocolOptions. Mismatches fail with kFailedPrecondition on
// both sides before any protocol traffic flows.
inline constexpr uint16_t kJobHello = 0x1050;

// Serve-mode control plane (core/serve.h). Rides stream 0 of each mesh
// link's job-id mux; the submitter announces jobs and shutdown, followers
// report per-job completion. Job messages carry the job id plus the retry
// attempt number (u8): a retried job runs on fresh mux streams derived
// from (id, attempt), so frames from a failed attempt can never leak into
// its retry.
inline constexpr uint16_t kServeJobAnnounce = 0x1060;  // u32 job id, u8 attempt
inline constexpr uint16_t kServeJobDone = 0x1061;  // u32 id, u8 attempt, u8 ok, u8 code, msg
inline constexpr uint16_t kServeShutdown = 0x1062;     // no payload
// Failure containment: the submitter broadcasts this when a job fails so
// followers cancel that job's streams and requeue for the next announce
// instead of blocking on a wedged protocol round.
inline constexpr uint16_t kServeJobFailed = 0x1063;  // u32 id, u8 attempt, u8 code, msg
// Self-healing: the submitter asks each surviving follower to re-run the
// mesh handshake + session establishment with `peer` before a retry (the
// suspect link was torn down on both ends first). The follower answers
// kServeLinkHealed when its side of the heal finished.
inline constexpr uint16_t kServeHealLink = 0x1064;    // u32 peer
inline constexpr uint16_t kServeLinkHealed = 0x1065;  // u32 peer, u8 ok, u8 code, msg

}  // namespace wire

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_WIRE_H_
