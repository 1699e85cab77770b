// Per-phase self time of the server's request path, computed from the raw
// spans of the Chrome trace `cdpu_cli serve --trace-out` writes on exit. A
// span's self time is its duration minus the spans nested directly inside
// it (the codec's LZ77 and entropy sub-spans, for instance), so the phase
// rows plus the unattributed gap sum to the mean server end-to-end time.

#ifndef PERFBENCH_TRACE_PHASES_H_
#define PERFBENCH_TRACE_PHASES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Server phase names as the trace spells them, in request-path order.
inline constexpr const char* kTracePhases[] = {
    "wire_decode", "admission", "adapt_profile", "queue_submit",  "queue_engine", "device",
    "codec",       "codec.lz77", "codec.entropy", "alloc_stall", "complete",     "response"};
inline constexpr size_t kNumTracePhases = sizeof(kTracePhases) / sizeof(kTracePhases[0]);

struct PhaseSelfTimes {
  uint64_t requests = 0;          // requests with both a wire_decode and a response span
  double e2e_us = 0.0;            // mean first-span-start to last-span-end
  double self_us[kNumTracePhases] = {};  // mean self time per request
  double unattributed_us() const;  // e2e minus the phase sum; may be negative
};

// Parses the trace file at `path`. Returns false with *error on I/O or
// format errors.
bool ComputePhaseSelfTimes(const std::string& path, PhaseSelfTimes* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_PHASES_H_
