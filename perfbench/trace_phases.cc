#include "perfbench/trace_phases.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

struct RawSpan {
  double start = 0;  // microseconds
  double end = 0;
  uint8_t phase = 0;
};

int PhaseIndex(const char* name, size_t len) {
  for (size_t i = 0; i < kNumTracePhases; ++i) {
    if (std::strlen(kTracePhases[i]) == len && std::memcmp(kTracePhases[i], name, len) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Finds `"key":<number>` in text[from, to) and parses the number.
bool FindNumber(const std::string& text, const char* key, size_t from, size_t to, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t at = text.find(needle, from);
  if (at == std::string::npos || at >= to) {
    return false;
  }
  const char* begin = text.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

}  // namespace

double PhaseSelfTimes::unattributed_us() const {
  double sum = 0;
  for (double s : self_us) {
    sum += s;
  }
  return e2e_us - sum;
}

bool ComputePhaseSelfTimes(const std::string& path, PhaseSelfTimes* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();

  // The file is the compact trace_event document the server's exporter
  // writes: one {"name":...,"ph":"X","ts":...,"dur":...,"tid":<request>}
  // object per span. Only events named after a server phase are read.
  static const char kEventStart[] = "{\"name\":\"";
  std::unordered_map<uint64_t, std::vector<RawSpan>> by_request;
  size_t pos = text.find(kEventStart);
  while (pos != std::string::npos) {
    const size_t name_begin = pos + sizeof(kEventStart) - 1;
    const size_t name_end = text.find('"', name_begin);
    if (name_end == std::string::npos) {
      break;
    }
    const size_t next = text.find(kEventStart, name_end);
    const size_t limit = next == std::string::npos ? text.size() : next;
    const int phase = PhaseIndex(text.c_str() + name_begin, name_end - name_begin);
    double ts = 0;
    double dur = 0;
    double tid = 0;
    if (phase >= 0) {
      if (!FindNumber(text, "ts", name_end, limit, &ts) ||
          !FindNumber(text, "dur", name_end, limit, &dur) ||
          !FindNumber(text, "tid", name_end, limit, &tid)) {
        *error = "malformed span event in " + path;
        return false;
      }
      by_request[static_cast<uint64_t>(tid)].push_back(
          RawSpan{ts, ts + dur, static_cast<uint8_t>(phase)});
    }
    pos = next;
  }

  const int wire = PhaseIndex("wire_decode", 11);
  const int response = PhaseIndex("response", 8);
  double self_sum[kNumTracePhases] = {};
  double e2e_sum = 0;
  uint64_t requests = 0;
  std::vector<double> self;
  std::vector<size_t> stack;
  for (auto& [id, spans] : by_request) {
    bool has_wire = false;
    bool has_response = false;
    for (const RawSpan& s : spans) {
      has_wire |= s.phase == wire;
      has_response |= s.phase == response;
    }
    if (!has_wire || !has_response) {
      continue;  // chain cut by the trace window or a dropped record
    }
    // Enclosing spans sort before the spans they contain.
    std::sort(spans.begin(), spans.end(), [](const RawSpan& a, const RawSpan& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    self.assign(spans.size(), 0.0);
    stack.clear();
    double first = spans.front().start;
    double last = spans.front().end;
    for (size_t i = 0; i < spans.size(); ++i) {
      const RawSpan& s = spans[i];
      self[i] = s.end - s.start;
      first = std::min(first, s.start);
      last = std::max(last, s.end);
      while (!stack.empty() && spans[stack.back()].end < s.end) {
        stack.pop_back();  // not nested in that span
      }
      if (!stack.empty() && spans[stack.back()].start <= s.start &&
          s.end <= spans[stack.back()].end && spans[stack.back()].end > s.start) {
        self[stack.back()] -= s.end - s.start;
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      self_sum[spans[i].phase] += self[i];
    }
    e2e_sum += last - first;
    ++requests;
  }
  out->requests = requests;
  if (requests > 0) {
    out->e2e_us = e2e_sum / static_cast<double>(requests);
    for (size_t p = 0; p < kNumTracePhases; ++p) {
      out->self_us[p] = self_sum[p] / static_cast<double>(requests);
    }
  }
  return true;
}

}  // namespace perfbench
