// The benchmark's own span log: one record per client call and per isolated
// layer call, kept in memory (one buffer per recording thread, so recording
// takes no lock) and written out as Chrome trace_event JSON when the run
// ends. Layer medians in the cost budget are computed from these records.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t start_ns = 0;  // trace::NowNs() domain, shared with the server
  uint64_t end_ns = 0;
  uint32_t name = 0;      // SpanLog::Intern id
};

class SpanLog {
 public:
  using Buffer = std::vector<Span>;

  // Returns a buffer owned by the log for one recording thread. Stays valid
  // for the log's lifetime.
  Buffer* NewBuffer();

  uint32_t Intern(const std::string& name);

  // Writes all spans as Chrome trace_event JSON; returns false on I/O error.
  bool WriteChrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
