#include "perfbench/layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "perfbench/alloc_count.h"
#include "perfbench/stats.h"
#include "src/adapt/policy.h"
#include "src/adapt/profile.h"
#include "src/codecs/codec.h"
#include "src/common/crc32.h"
#include "src/hw/shared_queue.h"
#include "src/runtime/offload_runtime.h"
#include "src/runtime/placement.h"
#include "src/svc/wire.h"
#include "src/trace/trace.h"

namespace perfbench {

namespace {

using cdpu::trace::NowNs;

// Calls fn(i) for i = 0, 1, ... until `budget_s` has passed and at least
// `min_calls` calls were made, after two unrecorded warm-up calls. Each call
// is one span named `name`; returns their durations in microseconds and adds
// the calls' heap allocations to *allocs when given.
template <typename Fn>
std::vector<double> TimeCalls(SpanLog* log, SpanLog::Buffer* buf, const std::string& name,
                              double budget_s, size_t min_calls, Fn fn,
                              AllocCount* allocs = nullptr) {
  fn(0);
  fn(1);
  const uint32_t id = log->Intern(name);
  const size_t first = buf->size();
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  for (size_t i = 0; i < min_calls || NowNs() < deadline; ++i) {
    const AllocCount a0 = ThreadAllocs();
    Span s;
    s.name = id;
    s.start_ns = NowNs();
    fn(i);
    s.end_ns = NowNs();
    const AllocCount a1 = ThreadAllocs();
    if (allocs != nullptr) {
      allocs->calls += a1.calls - a0.calls;
      allocs->bytes += a1.bytes - a0.bytes;
    }
    buf->push_back(s);
  }
  std::vector<double> us;
  us.reserve(buf->size() - first);
  for (size_t i = first; i < buf->size(); ++i) {
    us.push_back(static_cast<double>((*buf)[i].end_ns - (*buf)[i].start_ns) / 1e3);
  }
  return us;
}

double FrameNs(SpanLog* log, SpanLog::Buffer* buf, const std::string& name,
               const std::vector<ByteSpan>& payloads, size_t bytes, double* allocs_per_call) {
  cdpu::svc::FrameParser parser;
  cdpu::svc::Frame request;
  request.type = cdpu::svc::FrameType::kRequest;
  request.codec = static_cast<uint8_t>(cdpu::svc::WireCodec::kZstd);
  request.level = 1;
  uint8_t header[cdpu::svc::kHeaderBytes];
  AllocCount allocs;
  std::vector<double> us = TimeCalls(
      log, buf, name, 0.2, 200,
      [&](size_t i) {
        ByteSpan payload = payloads[i % payloads.size()].first(bytes);
        request.request_id = i + 1;
        cdpu::svc::EncodeFrameHeader(request, payload, header);
        parser.Feed(ByteSpan(header, sizeof(header)));
        parser.Feed(payload);
        cdpu::svc::Frame decoded;
        if (parser.Next(&decoded) != cdpu::svc::FrameParser::Event::kFrame) {
          throw std::runtime_error("frame layer: parser rejected a well-formed frame");
        }
      },
      &allocs);
  if (allocs_per_call != nullptr) {
    *allocs_per_call = static_cast<double>(allocs.calls) / static_cast<double>(us.size());
  }
  return Median(us) * 1e3;
}

bool WriteAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w <= 0) {
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t r = ::read(fd, p, n);
    if (r <= 0) {
      return false;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// Median round trip of a plain TCP echo over loopback for each of `sizes`.
std::vector<double> LoopbackRttUs(SpanLog* log, SpanLog::Buffer* buf,
                                  const std::vector<size_t>& sizes) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 || ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("loopback layer: cannot listen on 127.0.0.1");
  }
  std::thread echo([listener] {
    int c = ::accept(listener, nullptr, nullptr);
    int one = 1;
    ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<uint8_t> data(1 << 16);
    for (ssize_t n; (n = ::read(c, data.data(), data.size())) > 0;) {
      if (!WriteAll(c, data.data(), static_cast<size_t>(n))) {
        break;
      }
    }
    ::close(c);
  });
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  std::vector<double> medians;
  std::vector<uint8_t> out(1 << 17, 0x5A);
  std::vector<uint8_t> in(1 << 17);
  for (size_t size : sizes) {
    if (!ok) {
      break;
    }
    std::vector<double> us =
        TimeCalls(log, buf, "os.loopback_rtt." + std::to_string(size), 0.15, 200, [&](size_t) {
          ok = ok && WriteAll(fd, out.data(), size) && ReadAll(fd, in.data(), size);
        });
    medians.push_back(Median(us));
  }
  ::close(fd);
  echo.join();
  ::close(listener);
  if (!ok) {
    throw std::runtime_error("loopback layer: echo round trip failed");
  }
  return medians;
}

struct NullWaiter {
  std::atomic<uint32_t> done{0};
};

void OnNullComplete(const cdpu::OffloadResult&, void* ctx) {
  auto* w = static_cast<NullWaiter*>(ctx);
  w->done.store(1, std::memory_order_release);
  w->done.notify_one();
}

}  // namespace

LayerResults MeasureLayers(const WorkloadSpec& spec, const std::vector<ByteSpan>& payloads,
                           size_t small_bytes, SpanLog* log) {
  LayerResults r;
  SpanLog::Buffer* buf = log->NewBuffer();
  const size_t bytes = spec.payload_bytes;
  small_bytes = std::min(std::max<size_t>(small_bytes, 1), bytes);

  std::vector<double> crc = TimeCalls(log, buf, "common.crc32", 0.2, 100, [&](size_t i) {
    cdpu::Crc32(payloads[i % payloads.size()]);
  });
  r.crc32_ns_per_kb = Median(crc) * 1e3 / (static_cast<double>(bytes) / 1024.0);

  r.frame_ns = FrameNs(log, buf, "svc.frame", payloads, bytes, &r.frame_allocs_per_call);
  r.frame_small_ns = FrameNs(log, buf, "svc.frame_small", payloads, small_bytes, nullptr);

  const cdpu::adapt::AdaptOptions adapt_opts;
  r.adapt_profile_us = Median(TimeCalls(log, buf, "adapt.profile", 0.15, 100, [&](size_t i) {
    cdpu::adapt::ProfilePayload(payloads[i % payloads.size()], adapt_opts.probe_bytes);
  }));
  cdpu::adapt::AdaptivePolicyEngine engine(adapt_opts);
  AllocCount decide_allocs;
  std::vector<double> decide = TimeCalls(
      log, buf, "adapt.decide", 0.15, 100,
      [&](size_t i) { engine.Decide(payloads[i % payloads.size()], static_cast<uint32_t>(i % 2)); },
      &decide_allocs);
  r.adapt_decide_us = Median(decide);
  r.adapt_decide_allocs_per_call =
      static_cast<double>(decide_allocs.calls) / static_cast<double>(decide.size());

  cdpu::CdpuConfig device;
  if (!cdpu::FleetDeviceByName(spec.device, &device)) {
    throw std::runtime_error("unknown device preset " + spec.device);
  }
  {
    cdpu::SharedCdpuQueue queue(device);
    cdpu::SimNanos arrival = 0;
    r.hw_queue_submit_ns =
        Median(TimeCalls(log, buf, "hw.queue_submit", 0.03, 1000, [&](size_t) {
          arrival = queue.Submit(cdpu::CdpuOp::kCompress, bytes, 0.5, arrival).completion;
        })) *
        1e3;
  }

  {
    // Model-only runtime (no codec), one closed-loop submitter per client,
    // each flushing its queue pair after every submit as the server does.
    cdpu::RuntimeOptions ro;
    ro.device = device;
    // Declared before the runtime: its completion thread may still be in
    // OnNullComplete for a waiter after the submitter has moved on, so the
    // waiters must outlive the runtime's threads.
    std::vector<NullWaiter> waiters(spec.clients);
    cdpu::OffloadRuntime runtime(ro);
    std::vector<SpanLog::Buffer*> bufs;
    for (uint32_t t = 0; t < spec.clients; ++t) {
      bufs.push_back(log->NewBuffer());
    }
    std::vector<std::vector<double>> per(spec.clients);
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < spec.clients; ++t) {
      threads.emplace_back([&, t] {
        NullWaiter& waiter = waiters[t];
        const uint32_t qp = t % ro.queue_pairs;
        per[t] = TimeCalls(log, bufs[t], "runtime.null_rtt", 0.4, 200, [&](size_t) {
          cdpu::OffloadRequest req;
          req.model_bytes = bytes;
          req.queue_pair = qp;
          req.on_complete = &OnNullComplete;
          req.on_complete_ctx = &waiter;
          waiter.done.store(0, std::memory_order_relaxed);
          runtime.SubmitCallback(std::move(req));
          runtime.Flush(qp);
          waiter.done.wait(0, std::memory_order_acquire);
        });
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    std::vector<double> all;
    for (const std::vector<double>& p : per) {
      all.insert(all.end(), p.begin(), p.end());
    }
    r.runtime_null_rtt_p50_us = Percentile(all, 50);
    r.runtime_null_rtt_p99_us = TailPercentile(all).value;
  }

  for (uint8_t c = 0; c < kNumCodecs; ++c) {
    const std::string name = kCodecNames[c];
    std::unique_ptr<cdpu::Codec> codec = cdpu::MakeCodec(name);
    if (codec == nullptr) {
      throw std::runtime_error("codec layer: no codec named " + name);
    }
    cdpu::BufferPool pool;
    std::vector<cdpu::IoBuf> compressed(payloads.size());
    cdpu::IoBuf restored;
    AllocCount allocs;
    uint64_t in_bytes = 0;
    uint64_t out_bytes = 0;
    std::vector<double> comp = TimeCalls(
        log, buf, "codecs." + name + ".compress", 0.12, payloads.size(),
        [&](size_t i) {
          const size_t k = i % payloads.size();
          if (!codec->Compress(payloads[k], &pool, &compressed[k]).ok()) {
            throw std::runtime_error("codec layer: " + name + " compress failed");
          }
          in_bytes += payloads[k].size();
          out_bytes += compressed[k].size();
        },
        &allocs);
    std::vector<double> decomp =
        TimeCalls(log, buf, "codecs." + name + ".decompress", 0.12, payloads.size(), [&](size_t i) {
          const size_t k = i % payloads.size();
          if (!codec->Decompress(compressed[k].span(), &pool, &restored).ok() ||
              restored.size() != payloads[k].size() ||
              std::memcmp(restored.data(), payloads[k].data(), restored.size()) != 0) {
            throw std::runtime_error("codec layer: " + name + " round trip mismatch");
          }
        });
    CodecLayer& out = r.codecs[c];
    out.compress_us = Median(comp);
    out.decompress_us = Median(decomp);
    out.allocs_per_call = static_cast<double>(allocs.calls) / static_cast<double>(comp.size());
    out.alloc_kb_per_call =
        static_cast<double>(allocs.bytes) / 1024.0 / static_cast<double>(comp.size());
    out.ratio = in_bytes > 0 ? static_cast<double>(out_bytes) / static_cast<double>(in_bytes) : 0;
  }

  std::vector<double> rtt = LoopbackRttUs(log, buf, {bytes, small_bytes});
  r.loopback_rtt_us = rtt[0];
  r.loopback_rtt_small_us = rtt[1];
  return r;
}

}  // namespace perfbench
