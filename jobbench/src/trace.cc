#include "trace.h"

#include <fstream>

namespace jobbench {

int64_t Tracer::Begin(const std::string& name, int64_t parent, int64_t job,
                      int party) {
  const double now = SecondsBetween(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent, job, party, {}});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id, std::map<std::string, double> counts) {
  const double now = SecondsBetween(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_.at(static_cast<size_t>(id));
  span.end = now;
  span.counts = std::move(counts);
}

bool Tracer::Write(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"run\": " << header << ",\n \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i
        << ", \"name\": " << JsonString(s.name)
        << ", \"start\": " << JsonNumber(s.start)
        << ", \"end\": " << JsonNumber(s.end) << ", \"parent\": " << s.parent
        << ", \"job\": " << s.job << ", \"party\": " << s.party;
    if (!s.counts.empty()) {
      out << ", \"counts\": {";
      bool first = true;
      for (const auto& [key, value] : s.counts) {
        out << (first ? "" : ", ") << JsonString(key) << ": "
            << JsonNumber(value);
        first = false;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ppdbscan::Status TimedChannel::SendImpl(const std::vector<uint8_t>& frame) {
  const Clock::time_point start = Clock::now();
  ppdbscan::Status status = inner_->Send(frame);
  send_seconds_ += SecondsBetween(start, Clock::now());
  return status;
}

ppdbscan::Result<std::vector<uint8_t>> TimedChannel::RecvImpl() {
  const Clock::time_point start = Clock::now();
  ppdbscan::Result<std::vector<uint8_t>> frame = inner_->Recv();
  recv_seconds_ += SecondsBetween(start, Clock::now());
  return frame;
}

}  // namespace jobbench
