// Load generator: a few threads, each owning one SimNet client node and a
// set of logical clients, speaking the public client codec to the replicas.
//
//   closed — every closed-loop client keeps one operation outstanding and
//            sends its next one as soon as the previous one is answered;
//            latency is timed from the first send.
//   open   — Poisson arrivals at a fixed rate; each arrival takes an idle
//            client from the thread's pool. Latency is timed from the
//            arrival's due time, so a stall also delays every operation
//            due during it, and the generator records how late it sent.
//   drain  — no new operations; outstanding ones are still answered.
//
// Every reply is checked against the operation it answers (see
// workload.hpp). Samples are tagged with the phase the operation started
// in and read back only after stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/thread_stats.hpp"
#include "net/simnet.hpp"
#include "workload.hpp"

namespace perfbench {

enum class Mode : int { kIdle = 0, kClosed = 1, kOpen = 2, kDrain = 3 };

/// Phase tags: samples of operations started in phase 0 are not reported.
constexpr int kPhases = 5;

struct ClientSpan {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t start_ns = 0;  ///< due time (open) or first send (closed)
  std::uint64_t end_ns = 0;
  bool read = false;
};

struct GenParams {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  mcsmr::net::SimNetwork* net = nullptr;
  std::vector<mcsmr::net::NodeId> replicas;
  int io_threads = 3;  ///< replicas' client_io_threads (channel choice)
};

/// Generator threads: two keep each one well below full load on the
/// gated workloads (gen.busy_frac), without taking cores from the replicas.
constexpr int kGenThreads = 2;

class LoadGenerator {
 public:
  explicit LoadGenerator(GenParams params);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void start();
  /// Switch mode; operations started from now on carry `phase`. Spans are
  /// recorded while `trace` is set.
  void set_mode(Mode mode, int phase, bool trace, double open_rate_rps = 0);
  void stop();

  std::uint64_t completed() const;    ///< OK replies so far
  std::uint64_t outstanding() const;  ///< operations sent and not yet answered
  /// CPU time of the generator threads so far.
  std::uint64_t cpu_ns() const;

  struct Sample {
    std::uint64_t start_ns = 0;  ///< when the operation started (was due)
    std::uint64_t value_ns = 0;
  };
  struct PhaseSamples {
    std::vector<Sample> write_ns, read_ns;  ///< operation latencies
    std::vector<Sample> lag_ns;             ///< open loop: send - due
  };
  struct Totals {
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t bad_status = 0;  ///< answered, but not with an OK reply
    std::uint64_t invalid = 0;     ///< OK reply whose content fails the check
    std::uint64_t resends = 0;
    std::uint64_t unanswered = 0;
    std::vector<std::string> errors;  ///< first few failed checks
  };
  /// After stop().
  PhaseSamples samples(int phase) const;
  Totals totals() const;
  std::vector<ClientSpan> spans() const;

  /// Logical client ids are 1 + thread * kStride + local index.
  static constexpr std::uint64_t kStride = 1ull << 20;

 private:
  struct Worker;
  void loop(Worker& worker);

  GenParams params_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<mcsmr::metrics::NamedThread> threads_;
  std::atomic<int> mode_{0};
  std::atomic<int> phase_{0};
  std::atomic<bool> trace_{false};
  std::atomic<double> rate_{0};
  std::atomic<std::uint64_t> epoch_{0};  ///< bumped by every set_mode
  std::atomic<bool> running_{false};
};

}  // namespace perfbench
