#include "perfbench/workload.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "perfbench/alloc_count.h"
#include "src/svc/wire.h"
#include "src/trace/trace.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // RocksDB-like block store: 4 KB pages, 16 MB working set, 80% reads.
      // Tenant 0 writes zstd-1 (bottom levels), tenant 1 lz4 (upper levels).
      {"kv4k", 4096, 4096, 0.8, 4, "qat4xxx", {"zstd-1", "lz4"}, Source::kSilesia, 0},
      // Extent ingest: 64 KB records, 90% compress, reads of recent records.
      {"ingest64k", 65536, 256, 0.1, 2, "dpzip", {"dpzip", "dpzip"}, Source::kSilesia, 8},
      // AUTO over low/mid/high-entropy 16 KB chunks, incompressible included.
      {"auto-mixed", 16384, 1024, 0.5, 2, "qat8970", {"auto", "auto"}, Source::kMixed, 0},
  };
  return kWorkloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

uint8_t CodecIndex(const std::string& name) {
  for (uint8_t i = 0; i < kNumCodecs; ++i) {
    if (name == kCodecNames[i]) {
      return i;
    }
  }
  return kUnknownCodec;
}

BlockStore::BlockStore(const WorkloadSpec& spec, uint64_t seed) : spec_(spec) {
  const size_t working_set = static_cast<size_t>(spec.keys) * spec.payload_bytes;
  if (spec.source == Source::kSilesia) {
    // Twelve Silesia-style files, concatenated; key k starts at k * payload.
    const size_t file_size = (working_set + 11) / 12;
    corpus_.reserve(file_size * 12);
    for (cdpu::CorpusFile& f : cdpu::SilesiaLikeCorpus(file_size, seed)) {
      corpus_.insert(corpus_.end(), f.data.begin(), f.data.end());
    }
  } else {
    chunks_ = cdpu::GenerateMixedCorpus(spec.keys, spec.payload_bytes, seed);
  }
  entries_.resize(spec.keys);
}

ByteSpan BlockStore::SourceBytes(uint64_t id) const {
  if (spec_.source == Source::kSilesia) {
    return ByteSpan(corpus_.data() + id, spec_.payload_bytes);
  }
  return ByteSpan(chunks_[id].data.data(), chunks_[id].data.size());
}

uint64_t BlockStore::InitialSource(uint32_t key) const {
  return spec_.source == Source::kSilesia ? uint64_t{key} * spec_.payload_bytes : key;
}

uint64_t BlockStore::RandomSource(std::mt19937_64& rng) const {
  if (spec_.source == Source::kSilesia) {
    // Any 64-byte-aligned window of the corpus is a new page version.
    const uint64_t slots = (corpus_.size() - spec_.payload_bytes) / 64 + 1;
    return rng() % slots * 64;
  }
  return rng() % chunks_.size();
}

std::vector<ByteSpan> BlockStore::SamplePayloads(size_t count) const {
  std::vector<ByteSpan> out;
  const uint32_t stride = std::max<uint32_t>(1, spec_.keys / static_cast<uint32_t>(count));
  for (uint32_t k = 0; k < spec_.keys && out.size() < count; k += stride) {
    out.push_back(SourceBytes(InitialSource(k)));
  }
  return out;
}

bool BlockStore::Matches(uint32_t key, const Entry& e, ByteSpan got) const {
  ByteSpan want = SourceBytes(e.source);
  if (corrupt_key0_ && key == 0) {
    std::vector<uint8_t> wrong(want.begin(), want.end());
    wrong[0] ^= 0xFF;
    return got.size() == wrong.size() && std::memcmp(got.data(), wrong.data(), got.size()) == 0;
  }
  return got.size() == want.size() && std::memcmp(got.data(), want.data(), got.size()) == 0;
}

LoadClient::LoadClient(BlockStore* store, uint32_t index, uint16_t port, uint64_t seed)
    : store_(store),
      index_(index),
      tenant_(static_cast<uint8_t>(index % 2)),
      rng_(seed * 0x9E3779B97F4A7C15ULL + index + 1) {
  cdpu::svc::ClientOptions opts;
  opts.port = port;
  opts.tenant = tenant_;
  opts.max_connections = 1;
  client_ = std::make_unique<cdpu::svc::ServiceClient>(opts);
  recent_.reserve(store->spec().recent_reads);
}

uint32_t LoadClient::PickOwnKey() {
  const WorkloadSpec& spec = store_->spec();
  const uint32_t owned = (spec.keys - index_ + spec.clients - 1) / spec.clients;
  return index_ + spec.clients * static_cast<uint32_t>(rng_() % owned);
}

OpRecord LoadClient::Write(uint32_t key, uint64_t source) {
  const std::string& codec = store_->spec().tenant_codec[tenant_];
  ByteSpan src = store_->SourceBytes(source);
  OpRecord r;
  r.op = kCompress;
  r.tenant = tenant_;
  r.bytes = static_cast<uint32_t>(src.size());
  const uint64_t allocs0 = ThreadAllocs().calls;
  r.start_ns = cdpu::trace::NowNs();
  cdpu::svc::CallResult res = client_->Compress(codec, src);
  r.end_ns = cdpu::trace::NowNs();
  r.allocs = static_cast<uint32_t>(ThreadAllocs().calls - allocs0);
  r.busy = res.busy_retries;
  r.out_bytes = static_cast<uint32_t>(res.output.size());
  if (!res.status.ok()) {
    return r;
  }
  r.codec = res.stored() ? kStoreCodec
                         : CodecIndex(codec == "auto"
                                          ? cdpu::svc::WireCodecToName(res.codec, res.level)
                                          : codec);
  if (r.codec == kUnknownCodec) {
    return r;
  }
  BlockStore::Entry& e = store_->entry(key);
  e.stored.assign(res.output.data(), res.output.data() + res.output.size());
  e.source = source;
  e.codec = r.codec;
  e.written = true;
  r.ok = true;
  const uint32_t keep = store_->spec().recent_reads;
  if (keep > 0) {
    if (recent_.size() < keep) {
      recent_.push_back(key);
    } else {
      recent_[recent_next_] = key;
      recent_next_ = (recent_next_ + 1) % keep;
    }
  }
  return r;
}

OpRecord LoadClient::Read(uint32_t key) {
  const BlockStore::Entry& e = store_->entry(key);
  OpRecord r;
  r.op = kDecompress;
  r.tenant = tenant_;
  r.codec = e.codec;
  r.bytes = static_cast<uint32_t>(store_->SourceBytes(e.source).size());
  ByteSpan stored(e.stored.data(), e.stored.size());
  const uint64_t allocs0 = ThreadAllocs().calls;
  r.start_ns = cdpu::trace::NowNs();
  cdpu::svc::CallResult res = e.codec == kStoreCodec
                                  ? client_->DecompressStored(stored)
                                  : client_->Decompress(kCodecNames[e.codec], stored);
  r.end_ns = cdpu::trace::NowNs();
  r.allocs = static_cast<uint32_t>(ThreadAllocs().calls - allocs0);
  r.busy = res.busy_retries;
  r.out_bytes = static_cast<uint32_t>(res.output.size());
  r.ok = res.status.ok() && store_->Matches(key, e, res.output.span());
  return r;
}

void LoadClient::Prepopulate(std::vector<OpRecord>* out) {
  const WorkloadSpec& spec = store_->spec();
  for (uint32_t key = index_; key < spec.keys; key += spec.clients) {
    out->push_back(Write(key, store_->InitialSource(key)));
  }
}

void LoadClient::RunUntil(uint64_t deadline_ns, std::vector<OpRecord>* out) {
  const WorkloadSpec& spec = store_->spec();
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  while (cdpu::trace::NowNs() < deadline_ns) {
    if (coin(rng_) < spec.read_frac) {
      const bool recent = spec.recent_reads > 0 && !recent_.empty();
      const uint32_t key = recent ? recent_[rng_() % recent_.size()] : PickOwnKey();
      if (store_->entry(key).written) {
        out->push_back(Read(key));
        continue;
      }
    }
    const uint32_t key = PickOwnKey();
    out->push_back(Write(key, store_->RandomSource(rng_)));
  }
}

void LoadClient::Sweep(std::vector<OpRecord>* out) {
  const WorkloadSpec& spec = store_->spec();
  for (uint32_t key = index_; key < spec.keys; key += spec.clients) {
    if (store_->entry(key).written) {
      out->push_back(Read(key));
    }
  }
}

std::vector<OpRecord> RunClients(
    std::vector<std::unique_ptr<LoadClient>>& clients,
    const std::function<void(LoadClient&, std::vector<OpRecord>*)>& fn) {
  std::vector<std::vector<OpRecord>> per(clients.size());
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] { fn(*clients[i], &per[i]); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<OpRecord> all;
  for (std::vector<OpRecord>& p : per) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

}  // namespace perfbench
