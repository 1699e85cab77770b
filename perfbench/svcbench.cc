// Benchmark of the live compression service. One run spawns `cdpu_cli serve`
// as a separate process, drives it with closed-loop clients through
// svc::ServiceClient on one of three storage workloads, verifies every byte
// it reads back, and prints the results; the last stdout line is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   svcbench --cli PATH --run-dir DIR --workload NAME --seed N --seconds S
//            --trace 0|1 [--corrupt-expected]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the per-layer run: a second, traced server alternates with the untraced
// one to measure tracing overhead, the server's trace spans give per-phase
// self times, and each layer's public functions are timed in isolation to
// build the per-request cost budget. --corrupt-expected is the checker's
// self-test: the expected bytes of key 0 are wrong, so the run must fail.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/server_proc.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "perfbench/trace_phases.h"
#include "perfbench/workload.h"
#include "src/core/dpzip_codec.h"
#include "src/obs/json.h"
#include "src/trace/trace.h"

namespace perfbench {
namespace {

using cdpu::trace::NowNs;

constexpr int kPinnedCpus = 1;           // CPUs shared by the server and the clients
constexpr int kUntracedSetups = 3;       // setup_s is the median of these
constexpr double kWarmupSeconds = 0.5;
constexpr int kOverheadPairs = 8;        // traced/untraced window pairs
// Each overhead window aims at this many requests (0.1 to 1 s), bounding
// the spans the traced server holds in memory until it exits.
constexpr double kOverheadWindowRequests = 600;

struct Args {
  std::string cli;
  std::string run_dir;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_expected = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      a->corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string v = argv[++i];
    if (flag == "--cli") {
      a->cli = v;
    } else if (flag == "--run-dir") {
      a->run_dir = v;
    } else if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
      a->trace = v == "1";
      have_trace = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (a->cli.empty() || a->run_dir.empty() || a->workload.empty() || !have_trace ||
      a->seconds <= 0) {
    std::fprintf(stderr, "need --cli, --run-dir, --workload, --trace and --seconds > 0\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// STATS scrapes.

struct StatsWindow {
  double seconds = 0;
  uint64_t requests_ok = 0;
  bool has_e2e = false;
  double p50_us = 0;
  double p99_us = 0;
};

struct Scrape {
  std::map<std::string, double> counters;
  std::vector<StatsWindow> windows;
  double counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

Scrape ScrapeStats(cdpu::svc::ServiceClient& client) {
  cdpu::Result<std::string> text = client.FetchStats();
  if (!text.ok()) {
    throw std::runtime_error("stats scrape failed: " + text.status().ToString());
  }
  cdpu::Result<cdpu::obs::Json> doc = cdpu::obs::Json::Parse(*text);
  if (!doc.ok()) {
    throw std::runtime_error("stats scrape returned unparseable JSON");
  }
  Scrape s;
  if (const cdpu::obs::Json* m = doc->Find("metrics")) {
    if (const cdpu::obs::Json* c = m->Find("counters")) {
      for (const auto& [name, value] : c->members()) {
        s.counters[name] = value.AsDouble();
      }
    }
  }
  if (const cdpu::obs::Json* w = doc->Find("windows")) {
    for (const cdpu::obs::Json& jw : w->items()) {
      StatsWindow win;
      win.seconds = jw.Find("seconds")->AsDouble();
      win.requests_ok = jw.Find("requests_ok")->AsUint();
      if (const cdpu::obs::Json* e2e = jw.Find("e2e_us")) {
        win.has_e2e = true;
        win.p50_us = e2e->Find("p50")->AsDouble();
        win.p99_us = e2e->Find("p99")->AsDouble();
      }
      s.windows.push_back(win);
    }
  }
  return s;
}

// Server-side 500 ms windows that closed between two scrapes, minus the
// first, which opened before the first scrape.
std::vector<StatsWindow> WindowsBetween(const Scrape& before, const Scrape& after) {
  size_t first_new = 0;
  if (!before.windows.empty()) {
    const StatsWindow& last = before.windows.back();
    for (size_t i = 0; i < after.windows.size(); ++i) {
      if (after.windows[i].seconds == last.seconds &&
          after.windows[i].requests_ok == last.requests_ok) {
        first_new = i + 1;
      }
    }
  }
  std::vector<StatsWindow> out;
  for (size_t i = first_new + 1; i < after.windows.size(); ++i) {
    if (after.windows[i].has_e2e) {
      out.push_back(after.windows[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Server + clients set-up.

struct Rig {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<LoadClient>> clients;
  std::unique_ptr<cdpu::svc::ServiceClient> stats_client;
};

std::vector<std::string> ServeArgs(const WorkloadSpec& spec, const std::string& trace_out) {
  std::vector<std::string> args = {"--device=" + spec.device, "--tenants=2"};
  if (!trace_out.empty()) {
    args.push_back("--trace-out=" + trace_out);
    args.push_back("--trace-sample=1");
  }
  return args;
}

Rig StartRig(const Args& args, const WorkloadSpec& spec, BlockStore* store,
             const std::string& tag, const std::string& trace_out, uint64_t client_seed) {
  Rig rig;
  std::string error;
  rig.server = ServerProcess::Spawn(args.cli, ServeArgs(spec, trace_out), args.run_dir, tag, &error);
  if (rig.server == nullptr) {
    throw std::runtime_error(error);
  }
  for (uint32_t i = 0; i < spec.clients; ++i) {
    rig.clients.push_back(
        std::make_unique<LoadClient>(store, i, rig.server->port(), client_seed));
  }
  cdpu::svc::ClientOptions so;
  so.port = rig.server->port();
  so.max_connections = 1;
  rig.stats_client = std::make_unique<cdpu::svc::ServiceClient>(so);
  return rig;
}

std::vector<OpRecord> RunUntil(Rig& rig, uint64_t deadline) {
  return RunClients(rig.clients, [deadline](LoadClient& c, std::vector<OpRecord>* out) {
    c.RunUntil(deadline, out);
  });
}

std::vector<OpRecord> RunFor(Rig& rig, double seconds) {
  return RunUntil(rig, NowNs() + static_cast<uint64_t>(seconds * 1e9));
}

// Tally of every operation the run issued, for the result line.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const std::vector<OpRecord>& ops) {
    for (const OpRecord& r : ops) {
      ++attempted;
      failed += r.ok ? 0 : 1;
    }
  }
};

// ---------------------------------------------------------------------------
// Window summaries.

struct WindowSummary {
  double seconds = 0;
  uint64_t ok_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t write_out_bytes = 0;
  uint64_t busy = 0;
  uint64_t calls = 0;
  uint64_t client_allocs = 0;
  std::vector<double> lat[2];     // per Op, ok calls only
  std::vector<double> tenant[2];  // per tenant, ok calls only
  std::vector<double> all;
  uint64_t op_codec[2][kNumCodecs + 1] = {};  // ok calls per (op, codec)
  uint64_t out_bytes[2] = {};
  double mbps() const { return seconds > 0 ? static_cast<double>(ok_bytes) / 1e6 / seconds : 0; }
};

void Accumulate(const std::vector<OpRecord>& ops, WindowSummary* w) {
  uint64_t start = ~uint64_t{0};
  uint64_t end = 0;
  for (const OpRecord& r : ops) {
    start = std::min(start, r.start_ns);
    end = std::max(end, r.end_ns);
    ++w->calls;
    w->busy += r.busy;
    w->client_allocs += r.allocs;
    if (!r.ok) {
      continue;
    }
    w->ok_bytes += r.bytes;
    w->lat[r.op].push_back(r.us());
    w->tenant[r.tenant % 2].push_back(r.us());
    w->all.push_back(r.us());
    w->out_bytes[r.op] += r.out_bytes;
    if (r.codec <= kNumCodecs) {
      ++w->op_codec[r.op][r.codec];
    }
    if (r.op == kCompress) {
      w->write_bytes += r.bytes;
      w->write_out_bytes += r.out_bytes;
    }
  }
  if (end > start) {
    w->seconds += static_cast<double>(end - start) / 1e9;
  }
}

// Throughput of each `slice_s` slice of the window, by completion time; a
// diagnostic for interference from outside the benchmark.
std::vector<double> SliceMbps(const std::vector<OpRecord>& ops, double slice_s) {
  uint64_t start = ~uint64_t{0};
  for (const OpRecord& r : ops) {
    start = std::min(start, r.start_ns);
  }
  std::vector<double> mb;
  for (const OpRecord& r : ops) {
    const size_t i = static_cast<size_t>(static_cast<double>(r.end_ns - start) / 1e9 / slice_s);
    if (r.ok) {
      mb.resize(std::max(mb.size(), i + 1), 0.0);
      mb[i] += static_cast<double>(r.bytes) / 1e6 / slice_s;
    }
  }
  if (mb.size() > 1) {
    mb.pop_back();  // the last slice is partial
  }
  return mb;
}

// ---------------------------------------------------------------------------
// Output.

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(bool correct, const Tally& tally, const Metrics& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " +
            Num(metrics[i].second.first) + ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintMetricTable(const char* title, const Metrics& metrics,
                      const std::map<std::string, std::string>& notes) {
  std::printf("\n%s\n", title);
  std::printf("  %-32s %12s  %-6s %s\n", "metric", "value", "unit", "notes");
  for (const auto& [name, vu] : metrics) {
    auto it = notes.find(name);
    std::printf("  %-32s %12.4f  %-6s %s\n", name.c_str(), vu.first, vu.second.c_str(),
                it == notes.end() ? "" : it->second.c_str());
  }
}

std::string TailNote(const Tail& t) {
  char buf[96];
  if (t.level == 0) {
    std::snprintf(buf, sizeof(buf), "max of n=%zu (fewer than 10 samples)", t.samples);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.2f of n=%zu", t.level, t.samples);
  }
  return buf;
}

// ---------------------------------------------------------------------------
// The untraced end-to-end run.

int RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  Tally tally;
  std::vector<double> setup_s;
  std::unique_ptr<BlockStore> store;  // outlives the clients that point into it
  Rig rig;
  for (int s = 0; s < kUntracedSetups; ++s) {
    rig = Rig();  // stops the previous set-up's server and clients first
    const uint64_t t0 = NowNs();
    store = std::make_unique<BlockStore>(spec, args.seed);
    rig = StartRig(args, spec, store.get(), "serve", "", args.seed);
    tally.Add(RunClients(rig.clients, [](LoadClient& c, std::vector<OpRecord>* out) {
      c.Prepopulate(out);
    }));
    tally.Add(RunFor(rig, kWarmupSeconds));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (args.corrupt_expected) {
    store->CorruptExpectedKey0();
  }

  const Scrape before = ScrapeStats(*rig.stats_client);
  const uint64_t cpu0 = rig.server->CpuNs();
  std::vector<OpRecord> window = RunFor(rig, args.seconds);
  const uint64_t cpu1 = rig.server->CpuNs();
  const Scrape after = ScrapeStats(*rig.stats_client);
  const double rss_mb = rig.server->PeakRssMb();
  tally.Add(window);
  std::vector<OpRecord> sweep = RunClients(
      rig.clients, [](LoadClient& c, std::vector<OpRecord>* out) { c.Sweep(out); });
  tally.Add(sweep);
  const bool clean_exit = rig.server->Stop();

  WindowSummary w;
  Accumulate(window, &w);
  const Tail ctail = TailPercentile(w.lat[kCompress]);
  const Tail dtail = TailPercentile(w.lat[kDecompress]);
  const double cpu_us = static_cast<double>(cpu1 - cpu0) / 1e3;
  Metrics m = {
      {"throughput_mbps", {w.mbps(), "MB/s"}},
      {"compress_p50_us", {Percentile(w.lat[kCompress], 50), "us"}},
      {"compress_p99_us", {ctail.value, "us"}},
      {"decompress_p50_us", {Percentile(w.lat[kDecompress], 50), "us"}},
      {"decompress_p99_us", {dtail.value, "us"}},
      {"cpu_us_per_mb", {w.ok_bytes > 0 ? cpu_us / (static_cast<double>(w.ok_bytes) / 1e6) : 0,
                         "us/MB"}},
      {"ratio", {w.write_bytes > 0 ? static_cast<double>(w.write_out_bytes) /
                                         static_cast<double>(w.write_bytes)
                                   : 0,
                 "1"}},
      {"setup_s", {Median(setup_s), "s"}},
      {"peak_rss_mb", {rss_mb, "MB"}},
  };
  std::map<std::string, std::string> notes = {
      {"throughput_mbps", std::to_string(w.calls) + " calls in " + Num(w.seconds) + " s"},
      {"compress_p50_us", "n=" + std::to_string(w.lat[kCompress].size())},
      {"compress_p99_us", TailNote(ctail)},
      {"decompress_p50_us", "n=" + std::to_string(w.lat[kDecompress].size())},
      {"decompress_p99_us", TailNote(dtail)},
      {"cpu_us_per_mb", "server user+sys CPU over the window"},
      {"ratio", "compressed/original over writes"},
      {"setup_s", "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"peak_rss_mb", "server VmHWM"},
  };
  char head[160];
  std::snprintf(head, sizeof(head), "workload %s  seed %llu  clients %u  device %s  trace off",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed), spec.clients,
                spec.device.c_str());
  PrintMetricTable(head, m, notes);
  std::vector<double> slices = SliceMbps(window, 0.5);
  if (!slices.empty()) {
    std::sort(slices.begin(), slices.end());
    std::printf("  0.5 s slices, MB/s: min %.1f, median %.1f, max %.1f\n", slices.front(),
                SortedPercentile(slices, 50), slices.back());
  }
  const double failed_frac = tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                                       static_cast<double>(tally.attempted)
                                                 : 0;
  std::printf("  %-32s %12.6f  %-6s %llu of %llu operations (server busy responses %.0f)\n",
              "failed_frac", failed_frac, "1", static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted),
              after.counter("svc.requests_busy") - before.counter("svc.requests_busy"));
  if (!clean_exit) {
    std::printf("server did not exit cleanly; see %s\n", rig.server->log_path().c_str());
  }
  const bool correct = tally.failed == 0 && clean_exit;
  PrintResult(correct, tally, m);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The traced per-layer run.

// Mean over one op type of a per-codec quantity, weighted by how many of
// that op's calls each codec served in the run.
double CodecWeighted(const WindowSummary& w, Op op, const double per_codec[kNumCodecs + 1]) {
  double sum = 0;
  double n = 0;
  for (uint8_t c = 0; c <= kNumCodecs; ++c) {
    sum += per_codec[c] * static_cast<double>(w.op_codec[op][c]);
    n += static_cast<double>(w.op_codec[op][c]);
  }
  return n > 0 ? sum / n : 0;
}

double StoreShare(const WindowSummary& w, Op op) {
  double n = 0;
  for (uint8_t c = 0; c <= kNumCodecs; ++c) {
    n += static_cast<double>(w.op_codec[op][c]);
  }
  return n > 0 ? static_cast<double>(w.op_codec[op][kStoreCodec]) / n : 0;
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  Tally tally;
  SpanLog spans;
  const uint64_t t0 = NowNs();
  BlockStore store(spec, args.seed);
  if (args.corrupt_expected) {
    store.CorruptExpectedKey0();
  }
  Rig a = StartRig(args, spec, &store, "serve", "", args.seed);
  tally.Add(RunClients(a.clients, [](LoadClient& c, std::vector<OpRecord>* out) {
    c.Prepopulate(out);
  }));
  const std::vector<OpRecord> warmup = RunFor(a, kWarmupSeconds);
  tally.Add(warmup);
  const double pair_s = std::clamp(
      kOverheadWindowRequests * kWarmupSeconds / std::max<double>(1, warmup.size()), 0.1, 1.0);
  const std::string server_trace = args.run_dir + "/server-trace.json";
  Rig b = StartRig(args, spec, &store, "serve-traced", server_trace, args.seed + 1);
  tally.Add(RunFor(b, pair_s));
  std::printf("set-up %.2f s (untraced + traced server)\n",
              static_cast<double>(NowNs() - t0) / 1e9);

  // Tracing overhead: short untraced (A) and traced (B) windows alternate,
  // the order flipping each pair so drift favours neither side.
  std::vector<double> overhead;
  std::vector<OpRecord> pair_ops;
  for (int p = 0; p < kOverheadPairs; ++p) {
    double mbps[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const bool traced = (p % 2 == 0) == (k == 1);
      std::vector<OpRecord> ops = RunFor(traced ? b : a, pair_s);
      tally.Add(ops);
      WindowSummary one;
      Accumulate(ops, &one);
      mbps[traced ? 1 : 0] = one.mbps();
      pair_ops.insert(pair_ops.end(), ops.begin(), ops.end());
    }
    overhead.push_back(mbps[0] > 0 ? 1.0 - mbps[1] / mbps[0] : 0);
  }
  const bool b_clean = b.server->Stop();
  PhaseSelfTimes phases;
  std::string error;
  if (!ComputePhaseSelfTimes(server_trace, &phases, &error)) {
    throw std::runtime_error(error);
  }

  // The rest of the run measures the untraced server alone, bracketed by
  // STATS scrapes.
  const double main_s =
      std::max(1.0, args.seconds - 2.0 * kOverheadPairs * pair_s);
  const Scrape a_before = ScrapeStats(*a.stats_client);
  std::vector<OpRecord> main_ops = RunFor(a, main_s);
  const Scrape a_after = ScrapeStats(*a.stats_client);
  tally.Add(main_ops);
  WindowSummary wa;
  Accumulate(main_ops, &wa);

  // Isolated layers, while the untraced server idles.
  const size_t small_bytes =
      wa.lat[kCompress].empty()
          ? spec.payload_bytes
          : static_cast<size_t>(wa.out_bytes[kCompress] / wa.lat[kCompress].size());
  LayerResults layers = MeasureLayers(spec, store.SamplePayloads(16), small_bytes, &spans);

  std::vector<OpRecord> sweep =
      RunClients(a.clients, [](LoadClient& c, std::vector<OpRecord>* out) { c.Sweep(out); });
  tally.Add(sweep);
  const bool a_clean = a.server->Stop();

  // The benchmark's own spans: one per client call, next to the layer calls.
  {
    SpanLog::Buffer* buf = spans.NewBuffer();
    const uint32_t ids[2] = {spans.Intern("client.compress"), spans.Intern("client.decompress")};
    for (const OpRecord& r : pair_ops) {
      buf->push_back(Span{r.start_ns, r.end_ns, ids[r.op]});
    }
    spans.WriteChrome(args.run_dir + "/bench-trace.json");
  }

  // Server-side view of the untraced windows.
  std::vector<double> win_p50;
  std::vector<double> win_p99;
  for (const StatsWindow& sw : WindowsBetween(a_before, a_after)) {
    win_p50.push_back(sw.p50_us);
    win_p99.push_back(sw.p99_us);
  }
  auto delta = [&](const std::string& name) {
    return a_after.counter(name) - a_before.counter(name);
  };
  const double server_p50 = Median(win_p50);
  const double pool_lookups = delta("svc.pool.hits") + delta("svc.pool.misses");
  const double decisions = delta("svc.adapt.decisions");
  const double client_p50 = Percentile(wa.all, 50);

  // Cost budget per op type: isolated layer medians along the request path.
  double codec_us[2][kNumCodecs + 1] = {};
  double through_runtime[kNumCodecs + 1] = {};
  for (uint8_t c = 0; c < kNumCodecs; ++c) {
    codec_us[kCompress][c] = layers.codecs[c].compress_us;
    codec_us[kDecompress][c] = layers.codecs[c].decompress_us;
    through_runtime[c] = 1.0;
  }
  struct Row {
    std::string name;
    double us[2];
  };
  const bool auto_codec = spec.tenant_codec[0] == "auto";
  std::vector<Row> rows = {
      {"svc.frame request (2 CRC passes)",
       {layers.frame_ns / 1e3, layers.frame_small_ns / 1e3}},
      {"adapt.decide (AUTO writes)", {auto_codec ? layers.adapt_decide_us : 0, 0}},
      {"runtime.null_rtt_p50 (not STOREd)",
       {layers.runtime_null_rtt_p50_us * CodecWeighted(wa, kCompress, through_runtime),
        layers.runtime_null_rtt_p50_us * CodecWeighted(wa, kDecompress, through_runtime)}},
      {"codecs (run's codec mix)",
       {CodecWeighted(wa, kCompress, codec_us[kCompress]),
        CodecWeighted(wa, kDecompress, codec_us[kDecompress])}},
      {"svc.frame response (2 CRC passes)",
       {layers.frame_small_ns / 1e3, layers.frame_ns / 1e3}},
      {"os.loopback_rtt", {layers.loopback_rtt_us, layers.loopback_rtt_small_us}},
  };
  double sum[2] = {0, 0};
  for (const Row& r : rows) {
    sum[0] += r.us[0];
    sum[1] += r.us[1];
  }
  const double client_op_p50[2] = {Percentile(wa.lat[kCompress], 50),
                                    Percentile(wa.lat[kDecompress], 50)};
  double unattributed[2];
  double share[2];
  for (int op = 0; op < 2; ++op) {
    unattributed[op] = client_op_p50[op] - sum[op];
    share[op] = static_cast<double>(wa.lat[op].size()) / std::max<double>(1, wa.all.size());
  }
  const double budget_unattributed = unattributed[0] * share[0] + unattributed[1] * share[1];

  std::printf("\ncost budget, workload %s (seed %llu): isolated layer medians along the "
              "request path, us\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed));
  std::printf("  %-44s %12s %12s\n", "layer", "compress", "decompress");
  for (const Row& r : rows) {
    std::printf("  %-44s %12.2f %12.2f\n", r.name.c_str(), r.us[0], r.us[1]);
  }
  std::printf("  %-44s %12.2f %12.2f\n", "sum of layers", sum[0], sum[1]);
  std::printf("  %-44s %12.2f %12.2f   (n=%zu / %zu)\n", "client p50 (measured)",
              client_op_p50[0], client_op_p50[1], wa.lat[kCompress].size(),
              wa.lat[kDecompress].size());
  std::printf("  %-44s %12.2f %12.2f   (not clamped; includes waiting for the CPU\n"
              "  %-44s %12s %12s    the clients share with the server)\n",
              "budget.unattributed_us", unattributed[0], unattributed[1], "", "", "");
  std::printf("  %-44s %12.2f %12.2f   (inside the frame rows)\n",
              "  of which common.crc32, 4 passes",
              layers.crc32_ns_per_kb / 1e3 *
                  (2.0 * spec.payload_bytes + 2.0 * static_cast<double>(small_bytes)) / 1024.0,
              layers.crc32_ns_per_kb / 1e3 *
                  (2.0 * spec.payload_bytes + 2.0 * static_cast<double>(small_bytes)) / 1024.0);
  std::printf("  STOREd share of writes %.3f\n", StoreShare(wa, kCompress));

  std::printf("\nserver phase self time from the traced server's spans, mean us per "
              "request (%llu requests)\n",
              static_cast<unsigned long long>(phases.requests));
  for (size_t p = 0; p < kNumTracePhases; ++p) {
    std::printf("  %-44s %12.2f %6.1f%%\n", kTracePhases[p], phases.self_us[p],
                phases.e2e_us > 0 ? 100.0 * phases.self_us[p] / phases.e2e_us : 0.0);
  }
  std::printf("  %-44s %12.2f %6.1f%%   (not clamped)\n", "trace.unattributed_us",
              phases.unattributed_us(),
              phases.e2e_us > 0 ? 100.0 * phases.unattributed_us() / phases.e2e_us : 0.0);
  std::printf("  %-44s %12.2f\n", "server e2e (first span start to last span end)",
              phases.e2e_us);

  const double overhead_med = Median(overhead);
  std::vector<double> sorted = overhead;
  std::sort(sorted.begin(), sorted.end());
  const double overhead_iqr = SortedPercentile(sorted, 75) - SortedPercentile(sorted, 25);
  // Resolved only as a gain claim would be: one side wins at least nine
  // tenths of the pairs and the median exceeds the spread between pairs.
  const auto slower = static_cast<size_t>(
      std::count_if(overhead.begin(), overhead.end(), [](double o) { return o > 0; }));
  const size_t one_side = std::max(slower, overhead.size() - slower);
  const bool resolved = std::fabs(overhead_med) > overhead_iqr &&
                        static_cast<double>(one_side) >= 0.9 * static_cast<double>(overhead.size());
  std::printf("\ntracing overhead: 1 - traced/untraced MB/s over %d alternating %.2f s window "
              "pairs: median %.4f, IQR %.4f, traced slower in %zu of %zu -> %s\n",
              kOverheadPairs, pair_s, overhead_med, overhead_iqr, slower, overhead.size(),
              resolved ? "resolved" : "unresolved (smaller than the run-to-run spread)");

  Metrics m = {
      {"common.crc32_ns_per_kb", {layers.crc32_ns_per_kb, "ns/KB"}},
      {"svc.frame_ns", {layers.frame_ns, "ns"}},
      {"svc.frame_allocs_per_call", {layers.frame_allocs_per_call, "count"}},
      {"svc.server_p50_us", {server_p50, "us"}},
      {"svc.server_p99_us", {Median(win_p99), "us"}},
      {"svc.busy_frac", {wa.calls > 0 ? static_cast<double>(wa.busy) / wa.calls : 0, "1"}},
      {"svc.pool_miss_frac", {pool_lookups > 0 ? delta("svc.pool.misses") / pool_lookups : 0, "1"}},
      {"svc.tenant0_p99_us", {TailPercentile(wa.tenant[0]).value, "us"}},
      {"svc.tenant1_p99_us", {TailPercentile(wa.tenant[1]).value, "us"}},
      {"svc.client_overhead_us", {client_p50 - server_p50, "us"}},
      {"svc.client_allocs_per_call",
       {wa.calls > 0 ? static_cast<double>(wa.client_allocs) / wa.calls : 0, "count"}},
      {"os.loopback_rtt_us", {layers.loopback_rtt_us, "us"}},
      {"adapt.profile_us", {layers.adapt_profile_us, "us"}},
      {"adapt.decide_us", {layers.adapt_decide_us, "us"}},
      {"adapt.decide_allocs_per_call", {layers.adapt_decide_allocs_per_call, "count"}},
      {"adapt.store_frac", {decisions > 0 ? delta("svc.adapt.bypassed") / decisions : 0, "1"}},
  };
  for (const char* c : {"lz4", "snappy", "zstd-1", "zstd-3"}) {
    const double chosen = delta(std::string("svc.adapt.codec.") + c + ".chosen");
    m.push_back({std::string("adapt.codec_frac.") + c, {decisions > 0 ? chosen / decisions : 0, "1"}});
  }
  m.push_back({"runtime.null_rtt_p50_us", {layers.runtime_null_rtt_p50_us, "us"}});
  m.push_back({"runtime.null_rtt_p99_us", {layers.runtime_null_rtt_p99_us, "us"}});
  m.push_back({"hw.queue_submit_ns", {layers.hw_queue_submit_ns, "ns"}});
  for (uint8_t c = 0; c < kNumCodecs; ++c) {
    const std::string p = std::string("codecs.") + kCodecNames[c] + ".";
    m.push_back({p + "compress_us", {layers.codecs[c].compress_us, "us"}});
    m.push_back({p + "decompress_us", {layers.codecs[c].decompress_us, "us"}});
    m.push_back({p + "allocs_per_call", {layers.codecs[c].allocs_per_call, "count"}});
    m.push_back({p + "alloc_kb_per_call", {layers.codecs[c].alloc_kb_per_call, "KB"}});
    m.push_back({p + "ratio", {layers.codecs[c].ratio, "1"}});
  }
  for (size_t p = 0; p < kNumTracePhases; ++p) {
    std::string name = kTracePhases[p];
    std::replace(name.begin(), name.end(), '.', '_');
    m.push_back({"trace." + name + "_us", {phases.self_us[p], "us"}});
  }
  m.push_back({"trace.unattributed_us", {phases.unattributed_us(), "us"}});
  m.push_back({"trace.overhead_frac", {overhead_med, "1"}});
  m.push_back({"trace.overhead_iqr", {overhead_iqr, "1"}});
  m.push_back({"trace.overhead_resolved", {resolved ? 1.0 : 0.0, "count"}});
  m.push_back({"budget.unattributed_us", {budget_unattributed, "us"}});
  m.push_back({"budget.compress_unattributed_us", {unattributed[kCompress], "us"}});
  m.push_back({"budget.decompress_unattributed_us", {unattributed[kDecompress], "us"}});

  std::map<std::string, std::string> notes = {
      {"svc.server_p50_us", "median of " + std::to_string(win_p50.size()) + " 500 ms STATS windows"},
      {"svc.server_p99_us", "median of " + std::to_string(win_p99.size()) + " 500 ms STATS windows"},
      {"svc.tenant0_p99_us", TailNote(TailPercentile(wa.tenant[0])) + ", client-observed"},
      {"svc.tenant1_p99_us", TailNote(TailPercentile(wa.tenant[1])) + ", client-observed"},
      {"runtime.null_rtt_p99_us", "model-only runtime, " + std::to_string(spec.clients) +
                                      " closed-loop submitters"},
  };
  PrintMetricTable("per-layer metrics", m, notes);

  const bool correct = tally.failed == 0 && a_clean && b_clean;
  if (!a_clean || !b_clean) {
    std::printf("a server did not exit cleanly; see %s\n", args.run_dir.c_str());
  }
  std::printf("failed_frac %.6f (%llu of %llu operations)\n",
              tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 0.0,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  PrintResult(correct, tally, m);
  return correct ? 0 : 1;
}

// Confines this process, and so the server it spawns and every thread of
// both, to the first `count` CPUs it may use. Every hand-off between the
// clients and the server's threads is then a context switch on a running
// CPU rather than the wake-up of an idle virtual CPU, whose latency on a
// shared host follows the host's other tenants: unpinned, throughput on one
// seed varied up to 3x between runs and within a run.
void PinToCpus(int count) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < count; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::PinToCpus(perfbench::kPinnedCpus);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  cdpu::DpzipCodec::RegisterWithFactory();
  try {
    return args.trace ? perfbench::RunTraced(args, *spec) : perfbench::RunEndToEnd(args, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svcbench: %s\n", e.what());
    return 1;
  }
}
