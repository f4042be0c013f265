#include "generator.hpp"

#include <pthread.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>

#include "common/clock.hpp"
#include "common/rand.hpp"
#include "smr/client_proto.hpp"
#include "smr/transport.hpp"

namespace perfbench {

using mcsmr::mono_ns;
namespace smr = mcsmr::smr;

namespace {
constexpr std::uint64_t kMaxWaitNs = 2'000'000;
constexpr std::uint64_t kRetryScanNs = 50'000'000;
constexpr std::size_t kMaxErrors = 8;
constexpr std::size_t kOpenPool = 2048;  // idle-client pool per thread for the open loop
constexpr std::uint64_t kRetryTimeoutNs = 500'000'000;
}  // namespace

struct LoadGenerator::Worker {
  struct Slot {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    bool outstanding = false;
    bool read = false;
    std::uint64_t key = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t last_send_ns = 0;
    int phase = 0;
    Bytes frame;  ///< encoded request, kept for resends
  };

  int index = 0;
  mcsmr::net::NodeId node = 0;
  mcsmr::Rng rng;
  std::vector<Slot> slots;  ///< closed-loop clients first, then the open-loop pool
  std::size_t closed_count = 0;
  std::vector<std::uint32_t> idle;  ///< free open-loop slots
  /// Last seq issued per slot; read by other workers when they check a
  /// GET value's stamp.
  std::unique_ptr<std::atomic<std::uint64_t>[]> issued;
  std::size_t leader = 0;

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> outstanding{0};
  std::atomic<bool> has_clock{false};
  clockid_t cpu_clock{};

  PhaseSamples samples[kPhases];
  Totals totals;
  std::vector<ClientSpan> spans;

  explicit Worker(std::uint64_t seed) : rng(seed) {}
};

LoadGenerator::LoadGenerator(GenParams params) : params_(std::move(params)) {
  const int threads = kGenThreads;
  const int closed = params_.spec->closed_clients;
  for (int t = 0; t < threads; ++t) {
    auto worker =
        std::make_unique<Worker>(mix64(params_.seed * 31 + static_cast<std::uint64_t>(t)));
    worker->index = t;
    worker->node = params_.net->add_node("bench-gen-" + std::to_string(t), /*unlimited_nic=*/true);
    worker->closed_count = static_cast<std::size_t>(closed / threads + (t < closed % threads));
    const std::size_t total = worker->closed_count + kOpenPool;
    worker->slots.resize(total);
    worker->issued = std::make_unique<std::atomic<std::uint64_t>[]>(total);
    for (std::size_t i = 0; i < total; ++i) {
      worker->slots[i].id = 1 + static_cast<std::uint64_t>(t) * kStride + i;
      worker->issued[i].store(0, std::memory_order_relaxed);
      if (i >= worker->closed_count) worker->idle.push_back(static_cast<std::uint32_t>(i));
    }
    std::reverse(worker->idle.begin(), worker->idle.end());
    workers_.push_back(std::move(worker));
  }
}

LoadGenerator::~LoadGenerator() { stop(); }

void LoadGenerator::start() {
  if (running_.exchange(true)) return;
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    threads_.emplace_back("Gen-" + std::to_string(w->index), [this, w] { loop(*w); });
  }
}

void LoadGenerator::set_mode(Mode mode, int phase, bool trace, double open_rate_rps) {
  rate_.store(open_rate_rps);
  phase_.store(phase);
  trace_.store(trace);
  mode_.store(static_cast<int>(mode));
  epoch_.fetch_add(1);
}

void LoadGenerator::stop() {
  if (!running_.exchange(false)) return;
  threads_.clear();  // joins
  for (auto& worker : workers_) {
    for (const auto& slot : worker->slots) {
      if (slot.outstanding) ++worker->totals.unanswered;
    }
  }
}

std::uint64_t LoadGenerator::completed() const {
  std::uint64_t sum = 0;
  for (const auto& w : workers_) sum += w->completed.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t LoadGenerator::outstanding() const {
  std::uint64_t sum = 0;
  for (const auto& w : workers_) sum += w->outstanding.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t LoadGenerator::cpu_ns() const {
  std::uint64_t sum = 0;
  for (const auto& w : workers_) {
    timespec ts{};
    if (w->has_clock.load(std::memory_order_acquire) && clock_gettime(w->cpu_clock, &ts) == 0) {
      sum += static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
             static_cast<std::uint64_t>(ts.tv_nsec);
    }
  }
  return sum;
}

LoadGenerator::PhaseSamples LoadGenerator::samples(int phase) const {
  PhaseSamples out;
  for (const auto& w : workers_) {
    const auto& s = w->samples[phase];
    out.write_ns.insert(out.write_ns.end(), s.write_ns.begin(), s.write_ns.end());
    out.read_ns.insert(out.read_ns.end(), s.read_ns.begin(), s.read_ns.end());
    out.lag_ns.insert(out.lag_ns.end(), s.lag_ns.begin(), s.lag_ns.end());
  }
  return out;
}

LoadGenerator::Totals LoadGenerator::totals() const {
  Totals out;
  for (const auto& w : workers_) {
    const auto& t = w->totals;
    out.attempted += t.attempted;
    out.ok += t.ok;
    out.bad_status += t.bad_status;
    out.invalid += t.invalid;
    out.resends += t.resends;
    out.unanswered += t.unanswered;
    for (const auto& e : t.errors) {
      if (out.errors.size() < kMaxErrors) out.errors.push_back(e);
    }
  }
  return out;
}

std::vector<ClientSpan> LoadGenerator::spans() const {
  std::vector<ClientSpan> out;
  for (const auto& w : workers_) out.insert(out.end(), w->spans.begin(), w->spans.end());
  return out;
}

void LoadGenerator::loop(Worker& w) {
  // Precise timed waits: the open-loop schedule is checked against the
  // clock, and the default 50 us timer slack would show up as lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (pthread_getcpuclockid(pthread_self(), &w.cpu_clock) == 0) {
    w.has_clock.store(true, std::memory_order_release);
  }
  const WorkloadSpec& spec = *params_.spec;
  const auto threads = static_cast<double>(workers_.size());

  const auto fail = [&](const std::string& why) {
    if (w.totals.errors.size() < kMaxErrors) w.totals.errors.push_back(why);
  };

  const auto send = [&](Worker::Slot& slot) {
    const auto channel = smr::kClientIoChannelBase +
                         static_cast<mcsmr::net::Channel>(
                             slot.id % static_cast<std::uint64_t>(params_.io_threads));
    params_.net->send(w.node, params_.replicas[w.leader], channel, slot.frame);
    slot.last_send_ns = mono_ns();
  };

  const auto issue = [&](std::size_t index, std::uint64_t start_ns) {
    Worker::Slot& slot = w.slots[index];
    ++slot.seq;
    Operation op = make_operation(spec, params_.seed, slot.id, slot.seq);
    w.issued[index].store(slot.seq, std::memory_order_release);
    slot.read = op.read;
    slot.key = op.key;
    slot.frame = smr::encode_client_request({slot.id, slot.seq, w.node, std::move(op.payload)});
    slot.start_ns = start_ns;
    slot.phase = phase_.load(std::memory_order_relaxed);
    slot.outstanding = true;
    w.outstanding.fetch_add(1, std::memory_order_relaxed);
    ++w.totals.attempted;
    send(slot);
  };

  // True when the reply content is what the operation must return.
  const auto check = [&](const Worker::Slot& slot, const Bytes& payload) -> bool {
    if (spec.service == ServiceKind::kNull) {
      if (payload.size() == kNullReplyBytes) return true;
      fail("null reply of " + std::to_string(payload.size()) + " bytes");
      return false;
    }
    const auto result = smr::KvService::parse_reply(payload);
    if (!result || result->empty()) return true;  // status is checked by the caller
    const auto stamp = read_stamp(*result);
    if (!stamp) {
      fail("kv value of " + std::to_string(result->size()) + " bytes");
      return false;
    }
    const std::uint64_t owner = (stamp->client - 1) / kStride;
    const std::uint64_t local = (stamp->client - 1) % kStride;
    const bool known = stamp->client > 0 && owner < workers_.size() &&
                       local < workers_[owner]->slots.size() && stamp->seq > 0 &&
                       stamp->seq <= workers_[owner]->issued[local].load(std::memory_order_acquire);
    const Operation origin =
        known ? make_operation(spec, params_.seed, stamp->client, stamp->seq) : Operation{};
    if (!known || origin.read || origin.key != stamp->key || stamp->key != slot.key) {
      fail("value on key " + key_name(slot.key) + " carries stamp (" +
           std::to_string(stamp->client) + "," + std::to_string(stamp->seq) + "," +
           key_name(stamp->key) + ") of no PUT issued to it");
      return false;
    }
    return true;
  };

  const auto complete = [&](std::size_t index, std::uint64_t now, bool ok) {
    Worker::Slot& slot = w.slots[index];
    slot.outstanding = false;
    w.outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (ok) {
      w.completed.fetch_add(1, std::memory_order_relaxed);
      if (slot.phase > 0) {
        auto& s = w.samples[slot.phase];
        (slot.read ? s.read_ns : s.write_ns).push_back({slot.start_ns, now - slot.start_ns});
      }
      if (trace_.load(std::memory_order_relaxed) && traced_client(slot.id) &&
          w.spans.size() < kSpanCap) {
        w.spans.push_back({slot.id, slot.seq, slot.start_ns, now, slot.read});
      }
    }
    if (index >= w.closed_count) {
      w.idle.push_back(static_cast<std::uint32_t>(index));
    } else if (mode_.load(std::memory_order_relaxed) == static_cast<int>(Mode::kClosed)) {
      issue(index, mono_ns());
    }
  };

  const auto on_message = [&](const mcsmr::net::SimMessage& message) {
    smr::DecodedClientFrame decoded;
    try {
      decoded = smr::decode_client_frame(message.payload);
    } catch (const mcsmr::DecodeError&) {
      fail("undecodable client frame");
      return;
    }
    if (decoded.kind != smr::ClientFrameKind::kReply) return;
    const auto& reply = decoded.reply;
    const std::uint64_t owner = (reply.client_id - 1) / kStride;
    const std::uint64_t local = (reply.client_id - 1) % kStride;
    if (reply.client_id == 0 || owner != static_cast<std::uint64_t>(w.index) ||
        local >= w.slots.size()) {
      return;
    }
    Worker::Slot& slot = w.slots[local];
    if (!slot.outstanding || reply.seq != slot.seq) return;  // late duplicate
    const std::uint64_t now = mono_ns();
    switch (reply.status) {
      case smr::ReplyStatus::kOk: {
        const bool status_ok = spec.service == ServiceKind::kNull ||
                               smr::KvService::parse_reply(reply.payload).has_value();
        const bool valid = status_ok && check(slot, reply.payload);
        if (!status_ok) {
          ++w.totals.bad_status;
          fail("kv status " + std::to_string(reply.payload.empty() ? -1 : reply.payload[0]));
        } else if (!valid) {
          ++w.totals.invalid;
        } else {
          ++w.totals.ok;
        }
        complete(local, now, valid);
        break;
      }
      case smr::ReplyStatus::kRedirect:
        if (auto hint = smr::decode_leader_hint(reply.payload)) {
          if (*hint < params_.replicas.size()) w.leader = *hint;
        }
        ++w.totals.resends;
        send(slot);
        break;
      case smr::ReplyStatus::kRetry:
        ++w.totals.resends;
        send(slot);
        break;
      default:
        ++w.totals.bad_status;
        fail("reply status " + std::to_string(static_cast<int>(reply.status)));
        complete(local, now, false);
    }
  };

  std::uint64_t seen_epoch = 0;
  std::uint64_t next_due = 0;
  bool starved = false;  ///< open loop: the pool ran dry and the schedule is behind
  double mean_gap_ns = 0;
  std::uint64_t last_scan = mono_ns();
  while (running_.load(std::memory_order_relaxed)) {
    const auto mode = static_cast<Mode>(mode_.load(std::memory_order_acquire));
    std::uint64_t now = mono_ns();
    if (const std::uint64_t epoch = epoch_.load(std::memory_order_acquire); epoch != seen_epoch) {
      seen_epoch = epoch;
      if (mode == Mode::kClosed) {
        for (std::size_t i = 0; i < w.closed_count; ++i) {
          if (!w.slots[i].outstanding) issue(i, now);
        }
      } else if (mode == Mode::kOpen) {
        mean_gap_ns = 1e9 * threads / std::max(1.0, rate_.load());
        next_due = now + static_cast<std::uint64_t>(w.rng.exponential(mean_gap_ns));
        starved = false;
      }
    }

    std::uint64_t wait = kMaxWaitNs;
    if (mode == Mode::kOpen) wait = next_due > now ? std::min(next_due - now, kMaxWaitNs) : 0;
    auto message = params_.net->recv_for(w.node, smr::kClientReplyChannel, wait);
    while (message.has_value()) {
      on_message(*message);
      message = params_.net->recv_for(w.node, smr::kClientReplyChannel, 0);
    }

    now = mono_ns();
    if (mode == Mode::kOpen) {
      const bool was_starved = starved;
      while (next_due <= now && !w.idle.empty()) {
        const std::uint32_t index = w.idle.back();
        w.idle.pop_back();
        issue(index, next_due);
        const int phase = phase_.load(std::memory_order_relaxed);
        if (phase > 0 && !was_starved) {
          w.samples[phase].lag_ns.push_back({next_due, w.slots[index].last_send_ns - next_due});
        }
        next_due += static_cast<std::uint64_t>(w.rng.exponential(mean_gap_ns));
      }
      // Every pooled client is outstanding: the replicas hold a backlog.
      // Operations sent late for that reason are still timed from their
      // due time, but their lateness is the replicas', not the
      // generator's, so it stays out of the lag samples until the
      // schedule has caught up.
      starved = next_due <= now;  // the loop stopped on an empty pool
    }

    if (now - last_scan >= kRetryScanNs) {
      last_scan = now;
      bool stuck = false;
      for (auto& slot : w.slots) {
        if (slot.outstanding && now - slot.last_send_ns > kRetryTimeoutNs) {
          stuck = true;
          ++w.totals.resends;
          send(slot);
        }
      }
      // The leader may have changed without telling us: rotate the guess.
      if (stuck) w.leader = (w.leader + 1) % params_.replicas.size();
    }
  }
}

}  // namespace perfbench
