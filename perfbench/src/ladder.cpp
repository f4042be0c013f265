#include "ladder.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <thread>

#include "common/clock.hpp"
#include "common/queue.hpp"
#include "net/simnet.hpp"
#include "paxos/batch_builder.hpp"
#include "paxos/engine.hpp"
#include "paxos/messages.hpp"
#include "paxos/storage.hpp"
#include "smr/client_proto.hpp"
#include "smr/events.hpp"
#include "smr/executor.hpp"
#include "stats.hpp"

namespace perfbench {

using mcsmr::mono_ns;
namespace paxos = mcsmr::paxos;
namespace smr = mcsmr::smr;

namespace {

constexpr std::size_t kOps = 4096;
constexpr std::uint64_t kClients = 64;
constexpr int kMinChunks = 5;
constexpr std::uint64_t kRungBudgetNs = 250'000'000;

/// Keeps results observable so the compiler cannot drop the timed work.
std::atomic<std::uint64_t> g_sink{0};

/// Median per-call cost in ns. `chunk` performs one chunk of calls and
/// returns how many calls it made; `prepare` (untimed) readies its input.
template <typename Prepare, typename Chunk>
double per_call_ns(std::uint64_t budget_ns, Prepare&& prepare, Chunk&& chunk) {
  std::vector<double> costs;
  const std::uint64_t start = mono_ns();
  // At least kMinChunks chunks, unless a rung makes no calls at all (then
  // it gives up after twice its budget and reports 0).
  while ((costs.size() < static_cast<std::size_t>(kMinChunks) &&
          mono_ns() - start < 2 * budget_ns) ||
         mono_ns() - start < budget_ns) {
    prepare();
    const std::uint64_t t0 = mono_ns();
    const std::size_t calls = chunk();
    const std::uint64_t t1 = mono_ns();
    if (calls > 0) costs.push_back(static_cast<double>(t1 - t0) / static_cast<double>(calls));
  }
  return median(std::move(costs));
}

std::unique_ptr<smr::Service> bare_service(ServiceKind kind) {
  if (kind == ServiceKind::kNull) return std::make_unique<smr::NullService>(kNullReplyBytes);
  return std::make_unique<smr::KvService>();
}

/// Three in-process engines wired through a FIFO message pool.
class EngineTrio {
 public:
  explicit EngineTrio(const mcsmr::Config& config) {
    for (mcsmr::ReplicaId id = 0; id < 3; ++id) {
      engines_.push_back(std::make_unique<paxos::Engine>(config, id));
    }
    for (mcsmr::ReplicaId id = 0; id < 3; ++id) {
      std::vector<paxos::Effect> out;
      engines_[id]->start(out);
      absorb(id, out);
    }
    settle();
  }

  /// Order one batch; returns once every replica has decided it.
  bool order(mcsmr::Bytes batch) {
    std::vector<paxos::Effect> out;
    if (!engines_[0]->on_batch(std::move(batch), out)) return false;
    absorb(0, out);
    settle();
    if (++instances_ % 256 == 0) {
      for (auto& engine : engines_) engine->on_local_snapshot(engine->first_undecided());
    }
    return true;
  }

  std::uint64_t delivered() const { return delivered_; }

 private:
  struct Pending {
    mcsmr::ReplicaId from, to;
    paxos::Message message;
  };

  void absorb(mcsmr::ReplicaId self, std::vector<paxos::Effect>& effects) {
    for (auto& effect : effects) {
      if (auto* send = std::get_if<paxos::SendTo>(&effect)) {
        if (send->to != self) pending_.push_back({self, send->to, std::move(send->message)});
      } else if (auto* cast = std::get_if<paxos::BroadcastMsg>(&effect)) {
        for (mcsmr::ReplicaId to = 0; to < 3; ++to) {
          if (to != self) pending_.push_back({self, to, cast->message});
        }
      } else if (std::holds_alternative<paxos::Deliver>(effect)) {
        ++delivered_;
      }
    }
    effects.clear();
  }

  void settle() {
    std::vector<paxos::Effect> out;
    while (!pending_.empty()) {
      Pending next = std::move(pending_.front());
      pending_.pop_front();
      engines_[next.to]->on_message(next.from, next.message, out);
      absorb(next.to, out);
    }
  }

  std::vector<std::unique_ptr<paxos::Engine>> engines_;
  std::deque<Pending> pending_;
  std::uint64_t delivered_ = 0;
  std::uint64_t instances_ = 0;
};

/// ClientIo stand-in that counts the replies the executor hands back.
class CountingClientIo final : public smr::ClientIo {
 public:
  void start() override {}
  void stop() override {}
  void send_reply(paxos::ClientId, paxos::RequestSeq, smr::ReplyStatus,
                  const mcsmr::Bytes&) override {
    replies.fetch_add(1, std::memory_order_release);
  }
  std::atomic<std::uint64_t> replies{0};
};

}  // namespace

std::vector<std::pair<std::string, double>> run_ladder(const LadderParams& params) {
  const WorkloadSpec& spec = *params.spec;
  const mcsmr::Config& config = params.config;
  const std::uint64_t budget = kRungBudgetNs;
  std::vector<std::pair<std::string, double>> out;

  // The workload's own requests: 64 clients, each sending its ops in order.
  std::vector<paxos::Request> requests;
  requests.reserve(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::uint64_t client = 1 + i % kClients;
    const std::uint64_t seq = 1 + i / kClients;
    requests.push_back({client, seq, make_operation(spec, params.seed, client, seq).payload});
  }
  const auto classifier_service = bare_service(spec.service);
  const auto classify = [&](const mcsmr::Bytes& payload) {
    return classifier_service->classify(payload);
  };

  // 1. Client codec: encode + decode of one request frame.
  out.emplace_back("ladder.client_codec_ns", per_call_ns(budget, [] {}, [&] {
    std::uint64_t sink = 0;
    for (const auto& r : requests) {
      const auto frame = smr::encode_client_request({r.client_id, r.seq, 7, r.payload});
      sink += smr::decode_client_frame(frame).request.payload.size();
    }
    g_sink += sink;
    return requests.size();
  }));

  // 2. Batch building with the classifier set (as the Batcher runs it).
  std::vector<paxos::Request> copies;
  std::vector<mcsmr::Bytes> batches;
  out.emplace_back("ladder.batch_add_ns",
                   per_call_ns(budget, [&] { copies = requests; batches.clear(); }, [&] {
    paxos::BatchBuilder builder(config.batch_max_bytes, config.batch_timeout_ns);
    builder.set_classifier(classify);
    const std::uint64_t now = mono_ns();
    for (auto& r : copies) {
      for (auto& batch : builder.add(std::move(r), now)) batches.push_back(std::move(batch));
    }
    if (auto last = builder.poll(now, /*force=*/true)) batches.push_back(std::move(*last));
    return copies.size();
  }));

  // 3. Paxos message codec: encode + decode of a Propose carrying a batch.
  std::vector<paxos::Message> proposes;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    proposes.emplace_back(paxos::Propose{1, i, batches[i]});
  }
  out.emplace_back("ladder.msg_codec_ns", per_call_ns(budget, [] {}, [&] {
    std::uint64_t sink = 0;
    for (const auto& message : proposes) {
      const auto frame = paxos::encode_message(0, message);
      sink += paxos::decode_message(frame).from + frame.size();
    }
    g_sink += sink;
    return proposes.size();
  }));

  // 4. One instance on three in-process engines, on_batch -> decided.
  {
    // Leases only move the clock-driven parts of the engine; the ordering
    // path an instance takes is the same without them.
    mcsmr::Config engine_config = config;
    engine_config.n = 3;
    engine_config.read_path = mcsmr::ReadPath::kConsensus;
    EngineTrio trio(engine_config);
    std::vector<mcsmr::Bytes> values;
    out.emplace_back("ladder.engine_instance_ns",
                     per_call_ns(budget, [&] { values = batches; }, [&] {
      std::size_t ordered = 0;
      for (auto& value : values) ordered += trio.order(std::move(value)) ? 1 : 0;
      return ordered;
    }));
    g_sink += trio.delivered();
  }

  // 5. PipelineQueue push + pop (the ProposalQueue's backend).
  {
    mcsmr::PipelineQueue<mcsmr::Bytes> queue(smr::backend_for(config.queue_impl, false), 1024,
                                            "ladder", config.queue_spin_budget);
    std::vector<mcsmr::Bytes> items;
    out.emplace_back("ladder.queue_handoff_ns",
                     per_call_ns(budget, [&] { items = batches; }, [&] {
      for (auto& item : items) {
        queue.push(std::move(item));
        item = std::move(*queue.pop());
      }
      return items.size();
    }));
  }

  // 6. AffinityExecutor: submit a decided batch -> every reply handed back.
  {
    mcsmr::Config exec_config = config;
    exec_config.executor_impl = mcsmr::ExecutorImpl::kAffinity;
    auto service = bare_service(spec.service);
    smr::ReplyCache cache;
    CountingClientIo client_io;
    smr::SharedState shared(3);
    smr::AffinityExecutor executor(exec_config, *service, cache, client_io, shared);
    executor.start();
    std::vector<paxos::DecodedBatch> decoded;
    paxos::InstanceId instance = 0;
    out.emplace_back("ladder.executor_dispatch_ns", per_call_ns(budget, [&] {
      decoded.clear();
      for (const auto& batch : batches) decoded.push_back(paxos::decode_any_batch(batch));
    }, [&] {
      const std::uint64_t target = client_io.replies.load() + requests.size();
      for (auto& batch : decoded) {
        executor.submit(instance, std::move(batch.requests), std::move(batch.classes));
        executor.publish_frontier(instance++);
      }
      while (client_io.replies.load(std::memory_order_acquire) < target) {
        std::this_thread::yield();
      }
      return requests.size();
    }));
    executor.stop();
  }

  // 7. One service execute.
  {
    auto service = bare_service(spec.service);
    std::uint64_t instance = 0;
    out.emplace_back("ladder.service_exec_ns", per_call_ns(budget, [] {}, [&] {
      std::uint64_t sink = 0;
      for (const auto& r : requests) sink += service->execute_at(r.payload, instance++).size();
      g_sink += sink;
      return requests.size();
    }));
  }

  // 8. SegmentStorage append, and append + sync, on the log filesystem.
  {
    std::error_code ec;
    std::filesystem::remove_all(params.storage_dir, ec);
    {
      paxos::SegmentStorageOptions options;
      options.dir = params.storage_dir;
      options.fsync_batch_ns = config.fsync_batch_ns;
      paxos::SegmentStorage storage(options);
      paxos::InstanceId instance = 0;
      out.emplace_back("ladder.storage_append_ns", per_call_ns(budget, [] {}, [&] {
        for (const auto& batch : batches) {
          storage.append(paxos::DurableRecord::accept(1, instance++, batch));
        }
        return batches.size();
      }));
      storage.sync();
      const double sync_ns = per_call_ns(budget, [] {}, [&] {
        constexpr std::size_t kSyncs = 8;
        for (std::size_t i = 0; i < kSyncs; ++i) {
          storage.append(paxos::DurableRecord::accept(1, instance++, batches[i % batches.size()]));
          storage.sync();
        }
        return kSyncs;
      });
      out.emplace_back("ladder.storage_sync_us", sync_ns / 1e3);
    }
    std::filesystem::remove_all(params.storage_dir, ec);
  }

  // 9. SimNet send -> recv with zero delay and no NIC budget.
  {
    mcsmr::net::SimNetParams net_params;
    net_params.one_way_ns = 0;
    net_params.node_pps = 0;
    net_params.node_bandwidth_bps = 0;
    mcsmr::net::SimNetwork net(net_params);
    const auto a = net.add_node("ladder-a");
    const auto b = net.add_node("ladder-b");
    out.emplace_back("ladder.simnet_hop_ns", per_call_ns(budget, [] {}, [&] {
      constexpr std::size_t kHops = 512;
      std::uint64_t sink = 0;
      for (std::size_t i = 0; i < kHops; ++i) {
        net.send(a, b, 0, requests[i].payload);
        sink += net.recv(b, 0)->payload.size();
      }
      g_sink += sink;
      return kHops;
    }));
    net.shutdown();
  }
  return out;
}

}  // namespace perfbench
