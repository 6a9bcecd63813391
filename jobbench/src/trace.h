#ifndef JOBBENCH_TRACE_H_
#define JOBBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/channel.h"
#include "report.h"

namespace jobbench {

/// Outside-in span recorder. The benchmark opens a span around each call it
/// makes into a layer's public API (Connect, Run, SubmitJob, Start, the
/// probes); spans stay in memory and are written once, when the run ends.
/// Thread-safe: party threads record concurrently.
class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;
  static constexpr int kNoParty = -1;

  struct Span {
    std::string name;
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    int64_t parent = kNoParent;
    int64_t job = -1;
    int party = kNoParty;
    /// Counts taken at the same boundary (e.g. time inside Channel::Send).
    std::map<std::string, double> counts;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span and returns its id.
  int64_t Begin(const std::string& name, int64_t parent = kNoParent,
                int64_t job = -1, int party = kNoParty);
  /// Closes span `id`, attaching `counts`.
  void End(int64_t id, std::map<std::string, double> counts = {});

  /// Writes every span as one JSON document (with `header` as its "run"
  /// record). Returns false if the file cannot be written.
  bool Write(const std::string& path, const std::string& header) const;

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; id == index
};

/// RAII span; a null tracer records nothing, so untraced code paths share
/// the same call sites.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             int64_t parent = Tracer::kNoParent, int64_t job = -1,
             int party = Tracer::kNoParty)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, job, party)
                   : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Channel decorator that times every Send and Recv of the channel it
/// wraps: time inside Send, and time blocked in Recv waiting for the peer.
/// Used only by one party thread at a time (the PartyRuntime contract), so
/// the accumulators need no lock; read them after that thread is joined.
class TimedChannel : public ppdbscan::Channel {
 public:
  explicit TimedChannel(std::unique_ptr<ppdbscan::Channel> inner)
      : inner_(std::move(inner)) {}

  void Close() override { inner_->Close(); }
  void set_recv_deadline_ms(int deadline_ms) override {
    Channel::set_recv_deadline_ms(deadline_ms);
    inner_->set_recv_deadline_ms(deadline_ms);
  }

  double send_seconds() const { return send_seconds_; }
  double recv_seconds() const { return recv_seconds_; }
  void ResetTimers() { send_seconds_ = recv_seconds_ = 0; }

 protected:
  ppdbscan::Status SendImpl(const std::vector<uint8_t>& frame) override;
  ppdbscan::Result<std::vector<uint8_t>> RecvImpl() override;

 private:
  std::unique_ptr<ppdbscan::Channel> inner_;
  double send_seconds_ = 0;
  double recv_seconds_ = 0;
};

}  // namespace jobbench

#endif  // JOBBENCH_TRACE_H_
