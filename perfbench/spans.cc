#include "perfbench/spans.h"

#include <cstdio>

namespace perfbench {

SpanLog::Buffer* SpanLog::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  return buffers_.back().get();
}

uint32_t SpanLog::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return i;
    }
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

bool SpanLog::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  uint64_t origin = ~uint64_t{0};
  for (const auto& buf : buffers_) {
    for (const Span& s : *buf) {
      origin = s.start_ns < origin ? s.start_ns : origin;
    }
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (size_t b = 0; b < buffers_.size(); ++b) {
    for (const Span& s : *buffers_[b]) {
      std::fprintf(f, "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,\"tid\":%zu}",
                   first ? "" : ",", names_[s.name].c_str(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, b);
      first = false;
    }
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
