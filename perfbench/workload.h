// The three storage workloads, the block store the load generator keeps for
// them, and the closed-loop clients that drive the server.
//
// Every client owns the keys k with k % clients == index, so no two clients
// touch one key and the store needs no locks. A read decompresses the page
// the client last stored under a key and compares it byte for byte with the
// source bytes it compressed; a write compresses a new version of a key and
// stores the server's output.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/common/iobuf.h"
#include "src/svc/client.h"
#include "src/workload/datagen.h"

namespace perfbench {

using cdpu::ByteSpan;

enum class Source : uint8_t { kSilesia, kMixed };

struct WorkloadSpec {
  std::string name;
  size_t payload_bytes = 0;
  uint32_t keys = 0;
  double read_frac = 0.0;
  uint32_t clients = 0;
  std::string device;         // `cdpu_cli serve --device=` preset
  std::string tenant_codec[2];  // write codec of tenant 0 / tenant 1
  Source source = Source::kSilesia;
  // > 0: a read picks one of the client's last `recent_reads` writes
  // (read-back of freshly ingested records); 0: a uniform own key.
  uint32_t recent_reads = 0;
};

// Returns null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Codecs the service can report for a stored page. kStoreCodec marks a page
// the AUTO policy stored verbatim.
inline constexpr const char* kCodecNames[] = {"zstd-1", "lz4", "dpzip", "snappy", "zstd-3"};
inline constexpr uint8_t kNumCodecs = 5;
inline constexpr uint8_t kStoreCodec = kNumCodecs;
inline constexpr uint8_t kUnknownCodec = 0xFF;
uint8_t CodecIndex(const std::string& name);  // kUnknownCodec if not listed

enum Op : uint8_t { kCompress = 0, kDecompress = 1 };

struct OpRecord {
  uint64_t start_ns = 0;  // trace::NowNs() domain
  uint64_t end_ns = 0;
  uint32_t bytes = 0;     // original bytes of the page
  uint32_t out_bytes = 0;  // response payload bytes
  uint32_t busy = 0;      // BUSY responses absorbed by the call
  uint32_t allocs = 0;    // heap allocations the client made for the call
  uint8_t op = kCompress;
  uint8_t tenant = 0;
  uint8_t codec = kUnknownCodec;
  bool ok = false;        // OK status and, for reads, the right bytes

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

// The pages of one run: the seeded source corpus and, per key, the version
// last written.
class BlockStore {
 public:
  BlockStore(const WorkloadSpec& spec, uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }

  struct Entry {
    uint64_t source = 0;          // SourceBytes id of the stored version
    std::vector<uint8_t> stored;  // the server's compress output
    uint8_t codec = kUnknownCodec;
    bool written = false;
  };
  Entry& entry(uint32_t key) { return entries_[key]; }

  ByteSpan SourceBytes(uint64_t id) const;
  uint64_t InitialSource(uint32_t key) const;
  uint64_t RandomSource(std::mt19937_64& rng) const;

  // Payloads for isolated layer timing: `count` distinct source versions.
  std::vector<ByteSpan> SamplePayloads(size_t count) const;

  // Self-test hook: every comparison against key 0's page uses a copy with
  // one byte flipped, so a correct server must fail the run.
  void CorruptExpectedKey0() { corrupt_key0_ = true; }
  bool Matches(uint32_t key, const Entry& e, ByteSpan got) const;

 private:
  WorkloadSpec spec_;
  std::vector<uint8_t> corpus_;             // Source::kSilesia
  std::vector<cdpu::MixedChunk> chunks_;    // Source::kMixed
  std::vector<Entry> entries_;
  bool corrupt_key0_ = false;
};

// One closed-loop client: a connection to one server, presenting as tenant
// index % 2, that sends its next request only after the previous reply.
class LoadClient {
 public:
  LoadClient(BlockStore* store, uint32_t index, uint16_t port, uint64_t seed);

  uint32_t index() const { return index_; }

  // Compresses the initial version of every key this client owns.
  void Prepopulate(std::vector<OpRecord>* out);
  // Runs the workload's read/write mix until `deadline_ns`.
  void RunUntil(uint64_t deadline_ns, std::vector<OpRecord>* out);
  // Reads back every key this client owns (untimed final sweep).
  void Sweep(std::vector<OpRecord>* out);

  cdpu::svc::ServiceClient& client() { return *client_; }

 private:
  OpRecord Write(uint32_t key, uint64_t source);
  OpRecord Read(uint32_t key);
  uint32_t PickOwnKey();

  BlockStore* store_;
  uint32_t index_;
  uint8_t tenant_;
  std::unique_ptr<cdpu::svc::ServiceClient> client_;
  std::mt19937_64 rng_;
  std::vector<uint32_t> recent_;  // ring of recently written keys
  size_t recent_next_ = 0;
};

// Runs `fn(client, records)` on one thread per client and returns every
// client's records, concatenated.
std::vector<OpRecord> RunClients(
    std::vector<std::unique_ptr<LoadClient>>& clients,
    const std::function<void(LoadClient&, std::vector<OpRecord>*)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
