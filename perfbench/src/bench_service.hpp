// Benchmark-side service decorator, installed around every replica's
// service. It is the benchmark's view into the execution layer:
//   * it times every execute/execute_at call (exec.service_us);
//   * for kv-exec-io it waits a fixed time off-CPU before applying each
//     request, modelling a service that waits on its own disk or an RPC;
//   * it checks that no (client, seq) write executes twice on a replica;
//   * in a traced phase it records one span per write of a sampled client
//     (see traced_client), carrying the instance and the client stamp.
#pragma once

#include <sys/prctl.h>
#include <time.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "smr/service.hpp"
#include "workload.hpp"

namespace perfbench {

/// One execution of a stamped write on one replica.
struct ExecSpan {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t instance = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class BenchService final : public mcsmr::smr::Service {
 public:
  BenchService(std::unique_ptr<mcsmr::smr::Service> inner, ServiceKind kind,
               std::uint64_t wait_ns, const std::atomic<bool>& tracing)
      : inner_(std::move(inner)), kind_(kind), wait_ns_(wait_ns), tracing_(tracing) {}

  Bytes execute(const Bytes& request) override {
    return run(request, noted_.load(std::memory_order_relaxed),
               [&] { return inner_->execute(request); });
  }
  Bytes execute_at(const Bytes& request, std::uint64_t instance) override {
    return run(request, instance, [&] { return inner_->execute_at(request, instance); });
  }
  void note_instance(std::uint64_t instance) override {
    noted_.store(instance, std::memory_order_relaxed);
    inner_->note_instance(instance);
  }
  mcsmr::smr::RequestClass classify(const Bytes& request) const override {
    return inner_->classify(request);
  }
  Bytes snapshot() const override { return inner_->snapshot(); }
  void install(const Bytes& state) override { inner_->install(state); }

  std::uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  std::uint64_t service_ns() const { return service_ns_.load(std::memory_order_relaxed); }
  std::uint64_t duplicates() const { return duplicates_.load(std::memory_order_relaxed); }

  /// Spans recorded so far (call once execution has stopped).
  std::vector<ExecSpan> take_spans() {
    std::lock_guard<std::mutex> guard(span_mu_);
    return std::move(spans_);
  }

 private:
  template <typename Fn>
  Bytes run(const Bytes& request, std::uint64_t instance, Fn&& apply) {
    const std::uint64_t start = mcsmr::mono_ns();
    const auto stamp = write_stamp(kind_, request);
    if (stamp) check_once(*stamp);
    if (wait_ns_ > 0) wait_off_cpu(start + wait_ns_);
    Bytes reply = apply();
    const std::uint64_t end = mcsmr::mono_ns();
    calls_.fetch_add(1, std::memory_order_relaxed);
    service_ns_.fetch_add(end - start, std::memory_order_relaxed);
    if (stamp && traced_client(stamp->client) && tracing_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> guard(span_mu_);
      if (spans_.size() < kSpanCap) {
        spans_.push_back({stamp->client, stamp->seq, instance, start, end});
      }
    }
    return reply;
  }

  /// Each client sends one operation at a time and its seqs start at 1
  /// with no gaps, so a replica executes every seq of a client once. The
  /// affinity executor may run a client's consecutive writes on different
  /// keys out of order (they commute), hence a contiguous prefix plus the
  /// few seqs seen ahead of it.
  void check_once(const Stamp& stamp) {
    auto& stripe = stripes_[mix64(stamp.client) % stripes_.size()];
    std::lock_guard<std::mutex> guard(stripe.mu);
    auto& seen = stripe.clients[stamp.client];
    if (stamp.seq <= seen.prefix || !seen.ahead.insert(stamp.seq).second) {
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    while (!seen.ahead.empty() && *seen.ahead.begin() == seen.prefix + 1) {
      seen.ahead.erase(seen.ahead.begin());
      ++seen.prefix;
    }
  }

  /// Sleep until `deadline_ns` with a 1 ns timer slack, so the modelled
  /// wait is the stated one and not the kernel's default 50 us slack.
  static void wait_off_cpu(std::uint64_t deadline_ns) {
    thread_local bool slack_set = false;
    if (!slack_set) {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      slack_set = true;
    }
    timespec ts{static_cast<time_t>(deadline_ns / 1'000'000'000ull),
                static_cast<long>(deadline_ns % 1'000'000'000ull)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
  }

  struct Seen {
    std::uint64_t prefix = 0;      ///< every seq <= prefix executed
    std::set<std::uint64_t> ahead;  ///< executed seqs above prefix + 1
  };
  struct Stripe {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Seen> clients;
  };

  std::unique_ptr<mcsmr::smr::Service> inner_;
  const ServiceKind kind_;
  const std::uint64_t wait_ns_;
  const std::atomic<bool>& tracing_;

  std::atomic<std::uint64_t> noted_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> service_ns_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::array<Stripe, 16> stripes_;

  std::mutex span_mu_;
  std::vector<ExecSpan> spans_;
};

}  // namespace perfbench
