// Isolated per-layer timing: each service-path module's public functions are
// called in a tight loop from the benchmark process, outside the server, on
// the workload's own payloads. Every call is recorded as a span in the
// benchmark's SpanLog and the reported figures are medians over those spans;
// heap allocations per call come from the counting operator new.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workload.h"

namespace perfbench {

struct CodecLayer {
  double compress_us = 0;      // median per call at the workload's payload size
  double decompress_us = 0;
  double allocs_per_call = 0;  // heap allocations per compress call
  double alloc_kb_per_call = 0;  // heap KB requested per compress call
  double ratio = 0;            // compressed / original over the sample
};

struct LayerResults {
  double crc32_ns_per_kb = 0;
  double frame_ns = 0;          // header encode + parse of one payload-sized frame
  double frame_small_ns = 0;    // the same at the workload's mean compressed size
  double frame_allocs_per_call = 0;
  double adapt_profile_us = 0;
  double adapt_decide_us = 0;
  double adapt_decide_allocs_per_call = 0;
  double runtime_null_rtt_p50_us = 0;
  double runtime_null_rtt_p99_us = 0;
  double hw_queue_submit_ns = 0;
  double loopback_rtt_us = 0;        // echo of one payload-sized message
  double loopback_rtt_small_us = 0;  // echo at the mean compressed size
  CodecLayer codecs[kNumCodecs];
};

// Runs every isolated layer loop. `payloads` are sample pages of the
// workload; `small_bytes` is the mean compressed page size seen in the run.
// The runtime round-trip loop runs one submitter per workload client.
LayerResults MeasureLayers(const WorkloadSpec& spec, const std::vector<ByteSpan>& payloads,
                           size_t small_bytes, SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
