// The benchmark's workloads and the operations they send.
//
// Every operation is a pure function of (seed, client id, seq): a resend
// carries byte-identical bytes, and a reply can be checked against the
// operation that produced it without any shared state. Write payloads are
// stamped with (client id, seq, key index), which is how the service
// decorator links executions to client operations and how GET values are
// checked against the PUTs the generator issued.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rand.hpp"
#include "smr/service.hpp"

namespace perfbench {

using mcsmr::Bytes;

enum class ServiceKind { kNull, kKv };

struct WorkloadSpec {
  std::string name;
  ServiceKind service = ServiceKind::kNull;
  int read_pct = 0;               ///< % of operations that are KV GETs
  int hot_pct = 0;                ///< % of operations on the single hot key
  std::uint64_t service_wait_ns = 0;  ///< decorator's off-CPU wait per execute
  double open_rate_rps = 0;       ///< frozen open-loop Poisson arrival rate
  int closed_clients = 512;       ///< logical clients of the closed-loop phase
  std::map<std::string, std::string> overrides;  ///< Config::apply_overrides
};

/// The workload table. Open-loop rates are frozen so that latency numbers
/// stay comparable across commits; README.md gives how each was chosen on
/// the 4-vCPU host the benchmark was defined on.
inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = {
      {"null-order", ServiceKind::kNull, 0, 0, 0, 20'000, 512,
       {{"executor_impl", "serial"}, {"log_storage", "memory"}, {"read_path", "consensus"}}},
      {"kv-durable-rw", ServiceKind::kKv, 90, 0, 0, 20'000, 512,
       {{"executor_impl", "serial"}, {"log_storage", "segment"}, {"read_path", "consensus"}}},
      {"kv-durable-lease", ServiceKind::kKv, 90, 0, 0, 1'500, 64,
       {{"executor_impl", "serial"}, {"log_storage", "segment"}, {"read_path", "lease"}}},
      {"kv-lease-rw", ServiceKind::kKv, 90, 0, 0, 12'000, 512,
       {{"executor_impl", "serial"}, {"log_storage", "memory"}, {"read_path", "lease"}}},
      {"kv-exec-io", ServiceKind::kKv, 0, 10, 50'000, 12'000, 512,
       {{"executor_impl", "affinity"}, {"executor_workers", "4"}, {"log_storage", "memory"},
        {"read_path", "consensus"}}},
  };
  return table;
}

inline const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

constexpr std::uint64_t kKeys = 100'000;   ///< uniform key space of the non-hot KV operations
constexpr std::size_t kPayloadBytes = 128;  ///< null request / KV value size
constexpr std::size_t kNullReplyBytes = 8;
constexpr std::size_t kStampBytes = 24;     ///< u64 client | u64 seq | u64 key index

/// A well-mixed hash of `x` (one splitmix64 step from state `x`).
inline std::uint64_t mix64(std::uint64_t x) { return mcsmr::splitmix64(x); }

/// Spans are kept for one client in kSpanSample, chosen by a hash of its
/// id on both the client and the service side, so each kept client span
/// finds its exec spans and the span buffers last a whole traced run.
constexpr std::uint64_t kSpanSample = 8;
/// Spans kept per generator thread and per replica.
constexpr std::size_t kSpanCap = 200'000;
inline bool traced_client(std::uint64_t client) { return mix64(client) % kSpanSample == 0; }

inline std::string key_name(std::uint64_t index) {
  return index == 0 ? std::string("hot") : "k" + std::to_string(index);
}

struct Operation {
  bool read = false;
  std::uint64_t key = 0;  ///< key index (0 = hot key); unused for null
  Bytes payload;
};

struct Stamp {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
};

inline Bytes stamped_value(const Stamp& stamp) {
  Bytes value(kPayloadBytes, 0x5A);
  mcsmr::ByteWriter writer(kStampBytes);
  writer.u64(stamp.client);
  writer.u64(stamp.seq);
  writer.u64(stamp.key);
  const Bytes header = writer.take();
  std::copy(header.begin(), header.end(), value.begin());
  return value;
}

inline std::optional<Stamp> read_stamp(std::span<const std::uint8_t> value) {
  if (value.size() != kPayloadBytes) return std::nullopt;
  mcsmr::ByteReader reader(value);
  Stamp stamp;
  stamp.client = reader.u64();
  stamp.seq = reader.u64();
  stamp.key = reader.u64();
  return stamp;
}

/// The operation `client` sends as its `seq`-th request.
inline Operation make_operation(const WorkloadSpec& spec, std::uint64_t seed,
                                std::uint64_t client, std::uint64_t seq) {
  Operation op;
  if (spec.service == ServiceKind::kNull) {
    op.payload = stamped_value({client, seq, 0});
    return op;
  }
  const std::uint64_t draw = mix64(seed ^ mix64(client * 0x100000001B3ull + seq));
  op.read = static_cast<int>(draw % 100) < spec.read_pct;
  const bool hot = static_cast<int>(mix64(draw ^ 1) % 100) < spec.hot_pct;
  op.key = hot ? 0 : 1 + mix64(draw ^ 2) % kKeys;
  op.payload = op.read ? mcsmr::smr::KvService::make_get(key_name(op.key))
                       : mcsmr::smr::KvService::make_put(key_name(op.key),
                                                         stamped_value({client, seq, op.key}));
  return op;
}

/// The stamp a request payload carries, for writes only: the null payload
/// itself, or a KV PUT's value. Reads and unparsable payloads give nullopt.
inline std::optional<Stamp> write_stamp(ServiceKind kind, const Bytes& request) {
  if (kind == ServiceKind::kNull) return read_stamp(request);
  try {
    mcsmr::ByteReader reader(request);
    if (reader.u8() != static_cast<std::uint8_t>(mcsmr::smr::KvService::Op::kPut)) {
      return std::nullopt;
    }
    reader.str();
    return read_stamp(reader.bytes_view());
  } catch (const mcsmr::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace perfbench
