// ClientIO module interface (§V-A).
//
// Implementations own a static pool of I/O threads handling client
// connections: they deserialize requests, consult the reply cache, either
// answer immediately (cached duplicate / redirect) or push the request on
// the RequestQueue (blocking push = backpressure: a stalled pipeline stops
// request reading, which over TCP pushes back to the clients).
//
// The ServiceManager hands each executed reply back to the ClientIO thread
// owning that client's connection via send_reply(); the owning thread does
// the serialization and the network write (Fig 3's per-thread reply queue).
// Both backends make that hand-off through ReplyRings below.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/queue.hpp"
#include "smr/client_proto.hpp"
#include "smr/events.hpp"
#include "smr/shared_state.hpp"

namespace mcsmr::smr {

/// How long a reply push may wait on a full per-IO-thread reply ring
/// before dropping the reply (counted in SharedState::dropped_replies; the
/// client retry is served from the reply cache). Bounding the wait keeps
/// the ServiceManager out of the pipeline's backpressure cycle.
inline constexpr std::uint64_t kReplyPushBudgetNs = 50 * kMillis;

class ClientIo {
 public:
  virtual ~ClientIo() = default;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Route a reply to the client's connection (thread-safe; called by the
  /// ServiceManager thread).
  virtual void send_reply(paxos::ClientId client, paxos::RequestSeq seq, ReplyStatus status,
                          const Bytes& payload) = 0;
};

/// The reply hand-off of both ClientIo backends: one reply ring per IO
/// thread plus an edge-triggered wake flag, so a burst of B replies costs
/// B ring ops + 1 wake. A backend supplies only its wake action (a SimNet
/// inject, an EventLoop::post) and its drain body; `queue_impl` picks the
/// ring backend (the mutex queue is the A/B baseline).
///
/// Wake protocol: the producer pushes, fences, and exchanges the flag to
/// true; only the producer that flips it sends a wake. The consumer clears
/// the flag, fences, then drains. If a producer's exchange is ordered
/// before the clear, the fences make its push visible to that drain; if
/// after, the exchange reads false and it sends a fresh wake. Either way
/// no reply is stranded.
template <typename Item>
class ReplyRings {
 public:
  ReplyRings(const Config& config, int threads, SharedState& shared)
      : shared_(shared),
        wake_pending_(std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(threads))) {
    // Single pipeline, serial execution: the ServiceManager thread is the
    // only producer of a ring (SPSC). Partitioned: every pipeline's
    // ServiceManager produces, as do the affinity executor's workers, which
    // reply directly — so the ring goes multi-producer.
    const QueueBackend backend = backend_for(
        config.queue_impl,
        /*fan_in=*/config.num_partitions > 1 ||
            config.executor_impl == ExecutorImpl::kAffinity);
    for (int t = 0; t < threads; ++t) {
      queues_.push_back(std::make_unique<PipelineQueue<Item>>(
          backend, config.reply_queue_cap, "ReplyQueue-" + std::to_string(t),
          config.queue_spin_budget));
      wake_pending_[static_cast<std::size_t>(t)].store(false, std::memory_order_relaxed);
    }
  }

  /// Producer side (any executing thread). `wake()` asks IO thread
  /// `thread` to call on_wake(); it returns false if the wake could not be
  /// delivered, which re-arms the flag so the next reply retries it.
  template <typename Wake>
  void push(int thread, Item item, Wake&& wake) {
    // Bounded wait, then a counted drop: blocking here forever would close
    // a deadlock cycle (ServiceManager -> reply ring -> IO thread ->
    // RequestQueue -> Batcher -> ProposalQueue -> Protocol ->
    // DecisionQueue -> ServiceManager). The dropped client retries and is
    // answered from the reply cache.
    if (!queue(thread).push_for(std::move(item), kReplyPushBudgetNs)) {
      shared_.dropped_replies.fetch_add(1, std::memory_order_relaxed);
      return;  // ring full for the whole budget, or shutting down
    }
    std::atomic<bool>& pending = wake_pending_[static_cast<std::size_t>(thread)];
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!pending.exchange(true, std::memory_order_seq_cst)) {
      shared_.reply_wakeups.fetch_add(1, std::memory_order_relaxed);
      if (!wake()) pending.store(false, std::memory_order_seq_cst);
    }
  }

  /// Consumer side: IO thread `thread` handling a wake. Clears the flag
  /// BEFORE draining: replies pushed after the clear trigger a fresh wake,
  /// replies pushed before it are caught by this drain.
  template <typename Drain>
  void on_wake(int thread, Drain&& drain_one) {
    wake_pending_[static_cast<std::size_t>(thread)].store(false, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    drain(thread, drain_one);
  }

  /// Pass every reply queued for IO thread `thread` to `drain_one`,
  /// leaving the wake flag alone (an opportunistic drain).
  template <typename Drain>
  void drain(int thread, Drain&& drain_one) {
    PipelineQueue<Item>& ring = queue(thread);
    while (auto item = ring.try_pop()) drain_one(std::move(*item));
  }

  /// Fail every pending and future push, so a producer blocked on a full
  /// ring unwedges before the IO threads go away.
  void close() {
    for (auto& ring : queues_) ring->close();
  }

 private:
  PipelineQueue<Item>& queue(int thread) { return *queues_[static_cast<std::size_t>(thread)]; }

  SharedState& shared_;
  std::vector<std::unique_ptr<PipelineQueue<Item>>> queues_;
  /// true = a wake is in flight (or its IO thread has not drained yet), so
  /// pushes skip the wake.
  std::unique_ptr<std::atomic<bool>[]> wake_pending_;
};

}  // namespace mcsmr::smr
