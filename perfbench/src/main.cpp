// perfbench — one workload against a 3-replica SimNet cluster in one
// process, measured from outside: calls into public entry points, the
// counters the replica already exposes, and the benchmark's own spans.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> --out <result.json>
//
// A run builds the measured cluster, then runs kCycles cycles of: set
// throwaway clusters up several times (setup_s), a closed-loop phase
// (peak throughput, CPU cost), an open-loop phase at the workload's
// frozen rate (latency); then the correctness gate. --trace 1 runs one
// cycle, splits each phase into an untraced and a traced part, collects the
// per-layer metrics over the traced parts, writes the spans to the work
// directory and runs the layer ladder. Writes the full result as JSON to
// --out; exits 1 if the correctness gate fails. README.md has the details.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_service.hpp"
#include "common/clock.hpp"
#include "generator.hpp"
#include "ladder.hpp"
#include "metrics/sampler.hpp"
#include "metrics/thread_stats.hpp"
#include "net/simnet.hpp"
#include "report.hpp"
#include "smr/client_proto.hpp"
#include "smr/replica.hpp"
#include "smr/transport.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using mcsmr::bench::JsonWriter;
using mcsmr::kMillis;
using mcsmr::kSeconds;
using mcsmr::mono_ns;
namespace smr = mcsmr::smr;
namespace net = mcsmr::net;
namespace metrics = mcsmr::metrics;

constexpr int kReplicas = 3;
constexpr std::uint64_t kMinSetups = 11;
constexpr std::uint64_t kSetupNs = 1500'000'000;
constexpr std::uint64_t kOneWayNs = 30'000;  // the paper's 0.06 ms idle RTT
constexpr std::uint64_t kWindowNs = 250 * kMillis;
// Untraced runs alternate the closed and the open loop kCycles times, so
// that a spell of co-tenant load falls on both loops alike, and not on
// one of them only. Every segment after the first warms up for
// kSegmentWarmNs.
constexpr int kCycles = 4;
constexpr std::uint64_t kSegmentWarmNs = 250 * kMillis;
constexpr double kQuietSteal = 0.03;
constexpr std::size_t kMinQuiet = 3;
constexpr std::size_t kMinWindowSamples = 100;  // for a window's own latency percentile
// Harness guard: a run whose generator is this busy, or whose open-loop
// schedule runs this late at p99, measures the generator, not the replica.
constexpr double kGenBusyLimit = 0.9;
constexpr double kGenLagLimitMs = 2.0;

// Phase tags of generator samples.
constexpr int kClosedUntraced = 1;
constexpr int kClosedTraced = 2;
constexpr int kOpenUntraced = 3;
constexpr int kOpenTraced = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--workdir") args.workdir = value;
    else if (key == "--out") args.out = value;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.out.empty() && args.seconds > 0;
}

// --- small statistics and JSON helpers -------------------------------------

double percentile(std::vector<std::uint64_t> values, double p) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(values.size() - 1),
                       std::ceil(p / 100.0 * static_cast<double>(values.size())) - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// A metric value with its unit and the sample count behind it.
struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void write_metrics(JsonWriter& json, const Metrics& metrics) {
  json.begin_object();
  for (const auto& [name, m] : metrics) {
    json.key(name).begin_object();
    json.key("value").value(m.value);
    json.key("unit").value(m.unit);
    json.key("samples").value(m.samples);
    json.end_object();
  }
  json.end_object();
}

void write_strings(JsonWriter& json, const std::vector<std::string>& items) {
  json.begin_array();
  for (const auto& item : items) json.value(item);
  json.end_array();
}

// --- the cluster ------------------------------------------------------------

struct IoCounters {
  std::uint64_t write_bytes = 0;
  std::uint64_t syscw = 0;
};

IoCounters read_proc_io() {
  IoCounters io;
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "write_bytes:") io.write_bytes = value;
    if (key == "syscw:") io.syscw = value;
  }
  return io;
}

/// Host CPU time stolen by the hypervisor so far, in clock ticks (/proc/stat).
std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  in >> cpu;
  for (auto& f : fields) in >> f;
  return fields[7];
}

/// Share of the host's CPU time stolen over `wall_ns`, from a tick delta.
double steal_share(std::uint64_t ticks, std::uint64_t wall_ns) {
  const double host_ticks = static_cast<double>(wall_ns) * 1e-9 *
                            static_cast<double>(sysconf(_SC_CLK_TCK)) *
                            static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  return ratio(static_cast<double>(ticks), host_ticks);
}

mcsmr::Config workload_config(const WorkloadSpec& spec) {
  mcsmr::Config config;
  config.n = kReplicas;
  config.request_payload_bytes = kPayloadBytes;
  config.reply_payload_bytes = kNullReplyBytes;
  config.apply_overrides(spec.overrides);
  return config;
}

net::SimNetParams sim_params(std::uint64_t seed) {
  net::SimNetParams params;
  params.one_way_ns = kOneWayNs;
  params.node_pps = 0;
  params.node_bandwidth_bps = 0;
  params.seed = seed;
  return params;
}

struct Cluster {
  std::unique_ptr<net::SimNetwork> network;
  std::vector<net::NodeId> nodes;
  std::vector<BenchService*> services;  // owned by the replicas
  std::vector<std::unique_ptr<smr::Replica>> replicas;
  std::string log_dir;
  std::atomic<bool> tracing{false};

  ~Cluster() { shut_down(); }

  void shut_down() {
    for (auto& replica : replicas) replica->stop();
    replicas.clear();  // close segment files before removing them
    services.clear();
    if (network) network->shutdown();
    if (!log_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(log_dir, ec);
      log_dir.clear();
    }
  }
};

/// Build and start a cluster, then wait for the first OK reply to one
/// write. Returns the elapsed seconds (construction to first reply).
double set_up(Cluster& cluster, const WorkloadSpec& spec, const mcsmr::Config& base,
              std::uint64_t seed, const std::string& log_dir, std::uint64_t probe_client) {
  const std::uint64_t t0 = mono_ns();
  mcsmr::Config config = base;
  if (config.log_storage == mcsmr::StorageImpl::kSegment) {
    std::filesystem::create_directories(log_dir);
    config.log_dir = log_dir;
    cluster.log_dir = log_dir;
  }
  cluster.network = std::make_unique<net::SimNetwork>(sim_params(seed));
  for (int id = 0; id < kReplicas; ++id) {
    cluster.nodes.push_back(cluster.network->add_node("replica-" + std::to_string(id)));
  }
  for (int id = 0; id < kReplicas; ++id) {
    mcsmr::Config per_replica = config;
    per_replica.thread_name_prefix = "r" + std::to_string(id) + "/";
    std::unique_ptr<smr::Service> inner;
    if (spec.service == ServiceKind::kNull) {
      inner = std::make_unique<smr::NullService>(kNullReplyBytes);
    } else {
      inner = std::make_unique<smr::KvService>();
    }
    auto service = std::make_unique<BenchService>(std::move(inner), spec.service,
                                                  spec.service_wait_ns, cluster.tracing);
    cluster.services.push_back(service.get());
    cluster.replicas.push_back(smr::Replica::create_sim(
        per_replica, static_cast<mcsmr::ReplicaId>(id), *cluster.network, cluster.nodes,
        std::move(service)));
  }
  for (auto& replica : cluster.replicas) replica->start();

  // First write: a stamped PUT on a key the generator never uses (or a
  // stamped null request), resent until the cluster answers it.
  const net::NodeId probe = cluster.network->add_node("bench-setup", /*unlimited_nic=*/true);
  const Bytes value = stamped_value({probe_client, 1, 0});
  const Bytes payload =
      spec.service == ServiceKind::kNull ? value : smr::KvService::make_put("setup", value);
  const Bytes frame = smr::encode_client_request({probe_client, 1, probe, payload});
  const net::Channel channel =
      smr::kClientIoChannelBase +
      static_cast<net::Channel>(probe_client %
                                static_cast<std::uint64_t>(config.client_io_threads));
  std::size_t target = 0;
  const std::uint64_t deadline = t0 + 30 * kSeconds;
  while (mono_ns() < deadline) {
    cluster.network->send(probe, cluster.nodes[target], channel, frame);
    const std::uint64_t resend_at = mono_ns() + 20 * kMillis;
    while (mono_ns() < resend_at) {
      auto message = cluster.network->recv_for(probe, smr::kClientReplyChannel,
                                               resend_at - std::min(resend_at, mono_ns()));
      if (!message) continue;
      const auto decoded = smr::decode_client_frame(message->payload);
      if (decoded.kind != smr::ClientFrameKind::kReply || decoded.reply.seq != 1) continue;
      if (decoded.reply.status == smr::ReplyStatus::kOk) {
        return static_cast<double>(mono_ns() - t0) * 1e-9;
      }
      if (decoded.reply.status == smr::ReplyStatus::kRedirect) {
        if (auto hint = smr::decode_leader_hint(decoded.reply.payload)) target = *hint % kReplicas;
      }
      break;
    }
  }
  throw std::runtime_error("cluster did not answer its first request within 30 s");
}

std::size_t leader_index(const Cluster& cluster) {
  for (std::size_t i = 0; i < cluster.replicas.size(); ++i) {
    if (cluster.replicas[i]->is_leader()) return i;
  }
  return 0;
}

// --- counters around a phase ------------------------------------------------

struct LeaderCounters {
  std::uint64_t executed = 0, decided = 0, cached = 0, wakeups = 0, dropped_replies = 0,
                lease_reads = 0, lease_fallbacks = 0, view = 0, svc_calls = 0, svc_ns = 0;
};

struct Probe {
  std::uint64_t t = 0;
  std::uint64_t process_cpu = 0;
  std::uint64_t gen_cpu = 0;
  std::uint64_t completed = 0;
  std::uint64_t steal = 0;
  std::map<std::string, metrics::ThreadStateSnapshot> threads;
  metrics::NetCounters::Snapshot leader_net;
  LeaderCounters leader;
  std::uint64_t dropped_frames_all = 0;
  IoCounters io;
};

Probe take_probe(const Cluster& cluster, std::size_t leader, const LoadGenerator& gen,
                 bool with_threads) {
  Probe p;
  p.t = mono_ns();
  p.process_cpu = mcsmr::process_cpu_ns();
  p.gen_cpu = gen.cpu_ns();
  p.completed = gen.completed();
  p.steal = steal_ticks();
  if (with_threads) {
    for (auto& snap : metrics::ThreadRegistry::instance().snapshot_all()) {
      if (snap.alive) p.threads[snap.name] = snap;
    }
    p.leader_net = cluster.network->counters(cluster.nodes[leader]).snapshot();
    auto& r = *cluster.replicas[leader];
    auto& s = r.shared();
    p.leader = {r.executed_requests(),
                r.decided_instances(),
                s.cached_replies.load(),
                s.reply_wakeups.load(),
                s.dropped_replies.load(),
                s.lease_reads.load(),
                s.lease_read_fallbacks.load(),
                r.view(),
                cluster.services[leader]->calls(),
                cluster.services[leader]->service_ns()};
    for (const auto& replica : cluster.replicas) {
      p.dropped_frames_all += replica->shared().dropped_peer_frames.load();
    }
    p.io = read_proc_io();
  }
  return p;
}

/// Per-thread state deltas between two probes, for threads alive in both.
struct ThreadDelta {
  double busy = 0, waiting = 0, other = 0, wall = 0;
  double busy_frac() const { return ratio(busy, wall); }
  double waiting_frac() const { return ratio(waiting, wall); }
  double other_frac() const { return ratio(other, wall); }
};

std::map<std::string, ThreadDelta> thread_deltas(const Probe& a, const Probe& b) {
  std::map<std::string, ThreadDelta> out;
  for (const auto& [name, after] : b.threads) {
    auto it = a.threads.find(name);
    if (it == a.threads.end()) continue;
    const auto& before = it->second;
    ThreadDelta d;
    d.wall = static_cast<double>(after.wall_ns - before.wall_ns);
    d.busy = static_cast<double>(after.busy_ns) - static_cast<double>(before.busy_ns);
    d.waiting = static_cast<double>(after.waiting_ns) - static_cast<double>(before.waiting_ns);
    d.other = std::max(0.0, d.wall - d.busy - d.waiting -
                                (static_cast<double>(after.blocked_ns) -
                                 static_cast<double>(before.blocked_ns)));
    out[name] = d;
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The busiest thread among those whose name starts with `prefix`.
ThreadDelta busiest(const std::map<std::string, ThreadDelta>& deltas, const std::string& prefix) {
  ThreadDelta best;
  for (const auto& [name, d] : deltas) {
    if (starts_with(name, prefix) && d.busy_frac() >= best.busy_frac()) best = d;
  }
  return best;
}

/// The thread named exactly `name` (zero if it did not run).
ThreadDelta thread_named(const std::map<std::string, ThreadDelta>& deltas,
                         const std::string& name) {
  const auto it = deltas.find(name);
  return it == deltas.end() ? ThreadDelta{} : it->second;
}

ThreadDelta mean_of(const std::map<std::string, ThreadDelta>& deltas, const std::string& prefix) {
  ThreadDelta sum;
  for (const auto& [name, d] : deltas) {
    if (!starts_with(name, prefix)) continue;
    sum.busy += d.busy;
    sum.waiting += d.waiting;
    sum.other += d.other;
    sum.wall += d.wall;
  }
  return sum;  // fractions of summed wall == mean fractions
}

// --- phases -------------------------------------------------------------------

/// One measurement window of a phase.
struct Window {
  std::uint64_t begin = 0, end = 0;
  double tput = 0;    ///< OK replies/s
  double cpu_us = 0;  ///< replica CPU us per OK reply (process minus generator)
  double steal = 0;   ///< share of the host's CPU time the hypervisor stole
  double steal_before = 0;  ///< the same over the window (or warm-up) before
};

struct PhaseResult {
  std::vector<Window> windows;
  double gen_busy_max = 0;  ///< busiest generator thread over the phase
  Probe begin, end;

  /// The windows in which the hypervisor stole at most kQuietSteal of the
  /// host's CPU, as it did in the window or warm-up before (a backlog built
  /// up in a stolen window drains in the next one), or the kMinQuiet least-stolen
  /// windows if fewer qualify. Co-tenants of a shared host take CPU from
  /// every thread at once, and the replica's throughput and latency fall
  /// with it; measuring over quiet windows keeps their load out of the
  /// replica's numbers.
  std::vector<Window> quiet() const {
    std::vector<Window> out = steal_free();
    if (out.size() >= kMinQuiet) return out;
    out = windows;
    std::stable_sort(out.begin(), out.end(),
                     [](const Window& a, const Window& b) { return a.steal < b.steal; });
    out.resize(std::min(out.size(), kMinQuiet));
    return out;
  }

  /// The windows in which the hypervisor stole at most kQuietSteal, as it
  /// did in the window or warm-up before; possibly none.
  std::vector<Window> steal_free() const {
    std::vector<Window> out;
    for (const auto& w : windows) {
      if (w.steal <= kQuietSteal && w.steal_before <= kQuietSteal) out.push_back(w);
    }
    return out;
  }
};

/// The segments of one loop as one phase: their windows in order, the
/// busiest generator thread of any, the first begin and the last end probe.
PhaseResult merge(std::vector<PhaseResult> segments) {
  PhaseResult out = std::move(segments.front());
  for (std::size_t i = 1; i < segments.size(); ++i) {
    auto& seg = segments[i];
    out.windows.insert(out.windows.end(), seg.windows.begin(), seg.windows.end());
    out.gen_busy_max = std::max(out.gen_busy_max, seg.gen_busy_max);
    out.end = std::move(seg.end);
  }
  return out;
}

/// The set-up times measured in one window, and that window's steal.
struct SetupWindow {
  std::vector<double> seconds;
  double steal = 0;
};

/// The set-up times of the quiet windows (see PhaseResult::quiet); if they
/// hold fewer than kMinSetups, the least-stolen windows that do.
std::vector<double> quiet_setups(std::vector<SetupWindow> windows) {
  std::stable_sort(windows.begin(), windows.end(),
                   [](const SetupWindow& a, const SetupWindow& b) { return a.steal < b.steal; });
  std::vector<double> out;
  for (const auto& w : windows) {
    if (w.steal > kQuietSteal && out.size() >= kMinSetups) break;
    out.insert(out.end(), w.seconds.begin(), w.seconds.end());
  }
  return out;
}

/// Run the generator in `mode` for `duration_ns`, sampling throughput and
/// CPU per window. Thread/counter probes bracket the phase.
PhaseResult run_phase(Cluster& cluster, std::size_t leader, LoadGenerator& gen, Mode mode,
                      int phase, bool trace, double rate, std::uint64_t warm_ns,
                      std::uint64_t duration_ns) {
  PhaseResult result;
  const std::uint64_t warm_from = mono_ns();
  const std::uint64_t warm_steal = steal_ticks();
  gen.set_mode(mode, 0, false, rate);
  std::this_thread::sleep_for(std::chrono::nanoseconds(warm_ns));
  cluster.tracing.store(trace);
  gen.set_mode(mode, phase, trace, rate);
  result.begin = take_probe(cluster, leader, gen, true);
  Probe last = result.begin;
  double steal_before = steal_share(last.steal - warm_steal, last.t - warm_from);
  const std::uint64_t end_at = result.begin.t + duration_ns;
  while (mono_ns() + kWindowNs / 2 < end_at) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::min(kWindowNs, end_at - mono_ns())));
    Probe now = take_probe(cluster, leader, gen, false);
    const double done = static_cast<double>(now.completed - last.completed);
    const double wall_s = static_cast<double>(now.t - last.t) * 1e-9;
    const double steal = steal_share(now.steal - last.steal, now.t - last.t);
    if (done > 0) {
      const double cpu = static_cast<double>(now.process_cpu - last.process_cpu) -
                         static_cast<double>(now.gen_cpu - last.gen_cpu);
      result.windows.push_back(
          {last.t, now.t, done / wall_s, cpu / done / 1e3, steal, steal_before});
    }
    steal_before = steal;
    last = now;
  }
  result.end = take_probe(cluster, leader, gen, true);
  cluster.tracing.store(false);
  for (const auto& [name, d] : thread_deltas(result.begin, result.end)) {
    if (starts_with(name, "Gen-")) {
      result.gen_busy_max = std::max(result.gen_busy_max, d.busy_frac());
    }
  }
  return result;
}

/// Stop issuing and wait (bounded) for outstanding operations, then for
/// the followers to execute what the leader has, so that the next segment
/// does not share the cores with their catch-up.
void drain(const Cluster& cluster, std::size_t leader, LoadGenerator& gen,
           std::uint64_t timeout_ns) {
  gen.set_mode(Mode::kDrain, 0, false);
  const std::uint64_t deadline = mono_ns() + timeout_ns;
  while (gen.outstanding() > 0 && mono_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t head = cluster.replicas[leader]->shared().executed_frontier.load();
  for (const auto& replica : cluster.replicas) {
    while (replica->shared().executed_frontier.load() < head && mono_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

/// After load stops: wait until every replica's state matches the leader's.
bool converged(const Cluster& cluster, std::uint64_t timeout_ns, double& waited_s) {
  const std::uint64_t t0 = mono_ns();
  for (;;) {
    const Bytes reference = cluster.replicas[0]->state_manifest();
    bool equal = true;
    for (std::size_t i = 1; i < cluster.replicas.size() && equal; ++i) {
      equal = cluster.replicas[i]->state_manifest() == reference;
    }
    waited_s = static_cast<double>(mono_ns() - t0) * 1e-9;
    if (equal) return true;
    if (mono_ns() - t0 > timeout_ns) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

using Sample = LoadGenerator::Sample;

/// The samples that started inside each of `windows`.
std::vector<std::vector<std::uint64_t>> by_window(const std::vector<Sample>& samples,
                                                  const std::vector<Window>& windows) {
  std::vector<std::vector<std::uint64_t>> out(windows.size());
  for (const auto& sample : samples) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (sample.start_ns >= windows[i].begin && sample.start_ns < windows[i].end) {
        out[i].push_back(sample.value_ns);
        break;
      }
    }
  }
  return out;
}

/// Latency percentiles (ms) over the samples that started inside one of
/// `windows`, each with the sample count behind it.
std::vector<Metric> window_percentiles_ms(const std::vector<Sample>& samples,
                                          const std::vector<Window>& windows,
                                          const std::vector<double>& ps) {
  std::vector<std::uint64_t> kept;
  for (const auto& bucket : by_window(samples, windows)) {
    kept.insert(kept.end(), bucket.begin(), bucket.end());
  }
  std::vector<Metric> out;
  for (double p : ps) out.push_back({percentile(kept, p) / 1e6, "ms", kept.size()});
  return out;
}

/// `quiet` if any of `samples` started in one of them, else `all`. When
/// the replicas fall behind the open-loop schedule, operations are sent
/// late but timed from their due times, and the quiet windows may all
/// come after the last due time reached.
const std::vector<Window>& latency_windows(const std::vector<Sample>& samples,
                                           const std::vector<Window>& quiet,
                                           const std::vector<Window>& all) {
  for (const auto& bucket : by_window(samples, quiet)) {
    if (!bucket.empty()) return quiet;
  }
  return all;
}

/// Latency percentiles (ms), each the median over `windows` of the
/// window's own percentile, as throughput is the median of per-window
/// rates: one disturbed window then cannot move the result. Only windows
/// with at least kMinWindowSamples samples count; the sample count is the
/// number of those windows. With none, the pooled percentiles are given.
std::vector<Metric> median_window_percentiles_ms(const std::vector<Sample>& samples,
                                                 const std::vector<Window>& windows,
                                                 const std::vector<double>& ps) {
  const auto buckets = by_window(samples, windows);
  std::vector<Metric> out;
  for (double p : ps) {
    std::vector<double> values;
    for (const auto& bucket : buckets) {
      if (bucket.size() >= kMinWindowSamples) values.push_back(percentile(bucket, p) / 1e6);
    }
    if (values.empty()) return window_percentiles_ms(samples, windows, ps);
    out.push_back({median(values), "ms", values.size()});
  }
  return out;
}

/// Share of wall time the busiest-occupied thread under `prefix` was not
/// parked waiting for work: on CPU, in an off-CPU service wait, or
/// runnable. A stage near 1 has no slack left.
double occupancy(const std::map<std::string, ThreadDelta>& deltas, const std::string& prefix) {
  double best = 0;
  for (const auto& [name, d] : deltas) {
    if (starts_with(name, prefix)) best = std::max(best, 1.0 - d.waiting_frac());
  }
  return best;
}

struct Layers {
  Metrics metrics;
  std::vector<std::pair<std::string, double>> occupancy;  ///< per pipeline stage
};

/// Per-layer metrics over the traced closed phase `c`, from the leader's
/// thread states and counters (README.md maps each to the end-to-end
/// metrics it should move). Multi-thread stages report their busiest
/// thread; the executor workers report their mean.
Layers layer_metrics(const PhaseResult& c, std::size_t leader) {
  const auto deltas = thread_deltas(c.begin, c.end);
  const std::string lp = "r" + std::to_string(leader) + "/";
  const ThreadDelta delivery = busiest(deltas, "SimNetDelivery");
  const ThreadDelta client_io = busiest(deltas, lp + "ClientIO-");
  const ThreadDelta batcher = busiest(deltas, lp + "Batcher");
  const ThreadDelta protocol = busiest(deltas, lp + "Protocol");
  const ThreadDelta rcv = busiest(deltas, lp + "ReplicaIORcv-");
  const ThreadDelta snd = busiest(deltas, lp + "ReplicaIOSnd-");
  const ThreadDelta& replica_io = snd.busy_frac() > rcv.busy_frac() ? snd : rcv;
  // The service manager's thread; "Replica" is also a prefix of the
  // ReplicaIO threads' names, so it is matched exactly.
  const ThreadDelta exec = thread_named(deltas, lp + "Replica");
  const ThreadDelta workers = mean_of(deltas, lp + "AffWorker-");
  double other_max = 0, leader_busy = 0;
  for (const auto& [name, d] : deltas) {
    if (!starts_with(name, lp)) continue;
    leader_busy += d.busy;
    for (const char* stage :
         {"ClientIO-", "Batcher", "Protocol", "ReplicaIO", "Replica", "AffWorker-"}) {
      if (starts_with(name, lp + stage)) other_max = std::max(other_max, d.other_frac());
    }
  }

  const auto delta = [&](std::uint64_t LeaderCounters::*field) {
    return c.end.leader.*field - c.begin.leader.*field;
  };
  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const std::uint64_t completed = c.end.completed - c.begin.completed;
  const auto net = c.end.leader_net - c.begin.leader_net;
  const std::uint64_t lease_reads = delta(&LeaderCounters::lease_reads);
  const std::uint64_t svc_calls = delta(&LeaderCounters::svc_calls);
  const std::uint64_t decided = delta(&LeaderCounters::decided);
  const std::uint64_t wakeups = delta(&LeaderCounters::wakeups);
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  Layers out;
  // The delivery thread's timed waits are not instrumented, so its busy
  // share stands in for its occupancy.
  out.occupancy = {{"net (SimNet delivery)", delivery.busy_frac()},
                   {"client_io", occupancy(deltas, lp + "ClientIO-")},
                   {"batcher", occupancy(deltas, lp + "Batcher")},
                   {"protocol", occupancy(deltas, lp + "Protocol")},
                   {"replica_io", occupancy(deltas, lp + "ReplicaIO")},
                   {"exec", 1.0 - exec.waiting_frac()},
                   {"exec workers", 1.0 - workers.waiting_frac()}};
  if (workers.wall == 0) out.occupancy.pop_back();
  out.metrics = {
      {"net.delivery_busy_frac", {delivery.busy_frac(), "fraction", 1}},
      {"net.delivery_other_frac", {delivery.other_frac(), "fraction", 1}},
      {"net.leader_pkts_per_req",
       {per(net.packets_out + net.packets_in, completed), "count", completed}},
      {"net.leader_bytes_per_req",
       {per(net.bytes_out + net.bytes_in, completed), "bytes", completed}},
      {"client_io.busy_frac", {client_io.busy_frac(), "fraction", 1}},
      {"client_io.waiting_frac", {client_io.waiting_frac(), "fraction", 1}},
      {"batcher.busy_frac", {batcher.busy_frac(), "fraction", 1}},
      {"batcher.reqs_per_batch",
       {per(delta(&LeaderCounters::executed), decided), "count", decided}},
      {"protocol.busy_frac", {protocol.busy_frac(), "fraction", 1}},
      {"protocol.view_changes", {static_cast<double>(delta(&LeaderCounters::view)), "count", 1}},
      {"replica_io.busy_frac", {replica_io.busy_frac(), "fraction", 1}},
      {"replica_io.dropped_frames",
       {static_cast<double>(c.end.dropped_frames_all - c.begin.dropped_frames_all), "count", 1}},
      {"exec.busy_frac", {exec.busy_frac(), "fraction", 1}},
      {"exec.workers_busy_frac", {workers.busy_frac(), "fraction", 1}},
      {"exec.workers_waiting_frac", {workers.waiting_frac(), "fraction", 1}},
      {"exec.service_us", {per(delta(&LeaderCounters::svc_ns), svc_calls) / 1e3, "us", svc_calls}},
      {"reply.per_wakeup", {per(delta(&LeaderCounters::executed), wakeups), "count", wakeups}},
      {"reply.dropped",
       {static_cast<double>(delta(&LeaderCounters::dropped_replies)), "count", 1}},
      {"reply.cache_hits", {static_cast<double>(delta(&LeaderCounters::cached)), "count", 1}},
      {"read.lease_served_frac",
       {per(lease_reads, lease_reads + delta(&LeaderCounters::lease_fallbacks)), "fraction",
        lease_reads}},
      {"storage.write_bytes_per_req",
       {per(c.end.io.write_bytes - c.begin.io.write_bytes, completed), "bytes", completed}},
      {"storage.write_syscalls_per_req",
       {per(c.end.io.syscw - c.begin.io.syscw, completed), "count", completed}},
      {"threads.other_frac_max", {other_max, "fraction", 1}},
      {"cpu.leader_cores",
       {ratio(leader_busy, static_cast<double>(c.end.t - c.begin.t)), "cores", 1}},
      {"mem.peak_rss_mb", {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", 1}},
  };
  return out;
}

double value_of(const Metrics& metrics, const std::string& name) {
  for (const auto& [n, m] : metrics) {
    if (n == name) return m.value;
  }
  return 0;
}

/// The stage that bounds closed-loop throughput. When the Protocol's
/// pipelining window stays full, instances wait on their quorum: on
/// followers that trail by more than a window (their decision queues are
/// full), or else on the ordering round trip, whatever each thread's load.
/// Otherwise it is the most occupied stage.
std::string bottleneck_of(const Layers& layers, std::uint32_t window_size) {
  if (value_of(layers.metrics, "protocol.window_mean") >= 0.9 * window_size) {
    const double lag = value_of(layers.metrics, "protocol.follower_lag");
    if (lag > window_size) {
      return "followers (they trail the leader by " + std::to_string(std::lround(lag)) +
             " instances and hold its window full)";
    }
    return "protocol window (WND full: the ordering round trip bounds throughput)";
  }
  const auto most = std::max_element(
      layers.occupancy.begin(), layers.occupancy.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return most->first + " (occupied " + std::to_string(std::lround(100 * most->second)) +
         "% of the time)";
}

void write_config(JsonWriter& json, const mcsmr::Config& c) {
  json.begin_object();
  json.key("n").value(c.n);
  json.key("window_size").value(std::uint64_t{c.window_size});
  json.key("batch_max_bytes").value(std::uint64_t{c.batch_max_bytes});
  json.key("batch_timeout_ns").value(c.batch_timeout_ns);
  json.key("client_io_threads").value(c.client_io_threads);
  json.key("num_partitions").value(std::uint64_t{c.num_partitions});
  json.key("request_queue_cap").value(std::uint64_t{c.request_queue_cap});
  json.key("proposal_queue_cap").value(std::uint64_t{c.proposal_queue_cap});
  json.key("queue_impl").value(mcsmr::to_string(c.queue_impl));
  json.key("queue_spin_budget").value(std::uint64_t{c.queue_spin_budget});
  json.key("executor_impl").value(mcsmr::to_string(c.executor_impl));
  json.key("executor_workers").value(std::uint64_t{c.executor_workers});
  json.key("log_storage").value(mcsmr::to_string(c.log_storage));
  json.key("fsync_batch_ns").value(c.fsync_batch_ns);
  json.key("preexec_window").value(std::uint64_t{c.preexec_window});
  json.key("read_path").value(mcsmr::to_string(c.read_path));
  json.key("lease_duration_ns").value(c.lease_duration_ns);
  json.key("lease_read_spin").value(std::uint64_t{c.lease_read_spin});
  json.key("fd_heartbeat_interval_ns").value(c.fd_heartbeat_interval_ns);
  json.key("fd_suspect_timeout_ns").value(c.fd_suspect_timeout_ns);
  json.key("retransmit_timeout_ns").value(c.retransmit_timeout_ns);
  json.key("snapshot_interval_instances").value(c.snapshot_interval_instances);
  json.key("request_payload_bytes").value(std::uint64_t{c.request_payload_bytes});
  json.key("reply_payload_bytes").value(std::uint64_t{c.reply_payload_bytes});
  json.key("pin_io_threads").value(c.pin_io_threads);
  json.end_object();
}

/// Writes the spans and computes the self time of the two layers the spans
/// separate: execution (the leader's decorator span) and everything else
/// on the client's path (client span minus its leader execution span),
/// over the writes that started in [from_ns, to_ns) — the traced open
/// loop, whose latencies are not queueing at saturation.
std::pair<Metric, Metric> write_trace(const std::string& path,
                                      const std::vector<ClientSpan>& client,
                                      const std::vector<std::vector<ExecSpan>>& exec,
                                      std::size_t leader, std::uint64_t from_ns,
                                      std::uint64_t to_ns) {
  std::ofstream out(path);
  out << "kind,replica,client,seq,instance,start_ns,end_ns,read\n";
  for (const auto& s : client) {
    out << "client,," << s.client << ',' << s.seq << ",," << s.start_ns << ',' << s.end_ns << ','
        << s.read << '\n';
  }
  std::unordered_map<std::uint64_t, const ExecSpan*> leader_exec;
  for (std::size_t r = 0; r < exec.size(); ++r) {
    for (const auto& s : exec[r]) {
      out << "exec," << r << ',' << s.client << ',' << s.seq << ',' << s.instance << ','
          << s.start_ns << ',' << s.end_ns << ",0\n";
      if (r == leader) leader_exec[mix64(s.client) ^ s.seq] = &s;
    }
  }
  std::vector<double> exec_self, rest_self;
  for (const auto& s : client) {
    auto it = leader_exec.find(mix64(s.client) ^ s.seq);
    if (s.read || s.start_ns < from_ns || s.start_ns >= to_ns || it == leader_exec.end()) continue;
    const auto* e = it->second;
    if (e->client != s.client || e->seq != s.seq) continue;
    const double exec_ns = static_cast<double>(e->end_ns - e->start_ns);
    exec_self.push_back(exec_ns / 1e3);
    rest_self.push_back((static_cast<double>(s.end_ns - s.start_ns) - exec_ns) / 1e3);
  }
  return {{median(exec_self), "us", exec_self.size()}, {median(rest_self), "us", rest_self.size()}};
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const mcsmr::Config config = workload_config(*spec);
  const std::string run_tag = spec->name + "-" + std::to_string(args.seed) + "-" +
                              std::to_string(::getpid());
  const std::string log_root = args.workdir + "/logs-" + run_tag;
  const auto S = static_cast<std::uint64_t>(args.seconds * 1e9);

  Cluster cluster;
  set_up(cluster, *spec, config, args.seed, log_root, 1ull << 40);
  const std::size_t leader = leader_index(cluster);

  GenParams gp;
  gp.spec = spec;
  gp.seed = args.seed;
  gp.net = cluster.network.get();
  gp.replicas = cluster.nodes;
  gp.io_threads = config.client_io_threads;
  LoadGenerator gen(gp);
  gen.start();

  // ---- set-up: repeated cluster constructions, torn down again -----------
  // Each cycle begins with kSetupNs / cycles of them, back to back in
  // windows of kWindowNs, while the measured cluster idles; setup_s is the
  // median over the set-ups of quiet windows, as for the load phases.
  const int cycles = args.trace ? 1 : kCycles;
  std::vector<SetupWindow> setup_windows;
  std::uint64_t setup_count = 0;
  const auto set_up_block = [&] {
    const std::uint64_t block_end = mono_ns() + kSetupNs / static_cast<std::uint64_t>(cycles);
    const std::uint64_t min_count =
        setup_count + (kMinSetups + static_cast<std::uint64_t>(cycles) - 1) /
                          static_cast<std::uint64_t>(cycles);
    const auto more = [&] { return setup_count < min_count || mono_ns() < block_end; };
    while (more()) {
      SetupWindow window;
      const std::uint64_t t0 = mono_ns();
      const std::uint64_t steal0 = steal_ticks();
      while (mono_ns() - t0 < kWindowNs && more()) {
        Cluster throwaway;
        window.seconds.push_back(set_up(throwaway, *spec, config, args.seed + setup_count,
                                        log_root + "-s" + std::to_string(setup_count),
                                        1ull << 40));
        ++setup_count;
      }
      window.steal = steal_share(steal_ticks() - steal0, mono_ns() - t0);
      setup_windows.push_back(std::move(window));
    }
  };

  // ---- load phases -----------------------------------------------------------
  const std::uint64_t warm = 1 * kSeconds;
  std::vector<PhaseResult> closed, open;
  metrics::GaugeSampler gauges(5 * kMillis);
  if (args.trace) {
    smr::Replica& l = *cluster.replicas[leader];
    const auto gauge = [&gauges](const std::string& name, auto read) {
      gauges.add_gauge(name, [read] { return static_cast<double>(read()); });
    };
    gauge("queue.request_mean", [&l] { return l.request_queue_size(); });
    gauge("queue.proposal_mean", [&l] { return l.proposal_queue_size(); });
    gauge("queue.dispatcher_mean", [&l] { return l.dispatcher_queue_size(); });
    gauge("protocol.window_mean", [&l] { return l.window_in_use(); });
    gauges.add_gauge("protocol.follower_lag", [&cluster, &l] {
      const auto head = l.shared().first_undecided.load();
      std::uint64_t lag = 0;
      for (const auto& r : cluster.replicas) {
        const auto at = r->shared().first_undecided.load();
        lag = std::max<std::uint64_t>(lag, head > at ? head - at : 0);
      }
      return static_cast<double>(lag);
    });
  }
  // The closed loop gets 40% of the run and the open loop 60%: latency
  // percentiles need more samples than throughput does. Untraced runs
  // alternate the two loops kCycles times; traced runs run each loop
  // once, split into an untraced 40% and a traced 60%.
  const std::uint64_t closed_ns = S * 2 / 5 / static_cast<std::uint64_t>(cycles);
  const std::uint64_t open_ns = S * 3 / 5 / static_cast<std::uint64_t>(cycles);
  const auto run_loop = [&](std::vector<PhaseResult>& out, Mode mode, int untraced_tag,
                            int traced_tag, double rate, std::uint64_t warm_ns,
                            std::uint64_t total_ns) {
    const auto phase = [&](int tag, bool trace, std::uint64_t warmup, std::uint64_t ns) {
      out.push_back(run_phase(cluster, leader, gen, mode, tag, trace, rate, warmup, ns));
    };
    if (!args.trace) {
      phase(untraced_tag, false, warm_ns, total_ns);
      return;
    }
    phase(untraced_tag, false, warm_ns, total_ns * 2 / 5);
    // Queue depths matter at peak: the gauges sample the traced closed phase.
    if (mode == Mode::kClosed) gauges.start();
    phase(traced_tag, true, 0, total_ns * 3 / 5);
    if (mode == Mode::kClosed) gauges.stop();
  };
  for (int cycle = 0; cycle < cycles; ++cycle) {
    set_up_block();
    run_loop(closed, Mode::kClosed, kClosedUntraced, kClosedTraced, 0,
             cycle == 0 ? warm : kSegmentWarmNs, closed_ns);
    drain(cluster, leader, gen, 3 * kSeconds);
    run_loop(open, Mode::kOpen, kOpenUntraced, kOpenTraced, spec->open_rate_rps,
             cycle == 0 ? warm / 2 : kSegmentWarmNs, open_ns);
    drain(cluster, leader, gen, (cycle + 1 == cycles ? 5 : 3) * kSeconds);
  }
  gen.stop();
  const std::vector<double> setups = quiet_setups(std::move(setup_windows));
  if (!args.trace) {
    closed = {merge(std::move(closed))};
    open = {merge(std::move(open))};
  }

  // ---- correctness gate --------------------------------------------------------
  const auto totals = gen.totals();
  double converge_s = 0;
  const bool states_equal = converged(cluster, 15 * kSeconds, converge_s);
  std::uint64_t duplicates = 0;
  for (const auto* service : cluster.services) duplicates += service->duplicates();
  std::vector<std::string> errors = totals.errors;
  if (!states_equal) {
    errors.push_back("replica state manifests differ after " + std::to_string(converge_s) + " s");
  }
  if (duplicates > 0) errors.push_back(std::to_string(duplicates) + " writes executed twice");
  if (totals.invalid > 0) errors.push_back(std::to_string(totals.invalid) + " invalid replies");
  const bool correct =
      states_equal && duplicates == 0 && totals.invalid == 0 && totals.bad_status == 0;

  // ---- end-to-end metrics -----------------------------------------------------
  // Each end-to-end metric comes from the quiet windows of its phase (see
  // PhaseResult::quiet).
  const auto e2e = [&](const PhaseResult& c, const PhaseResult& o, int open_tag) {
    const auto quiet_closed = c.quiet();
    const auto quiet_open = o.quiet();
    std::vector<double> tput, cpu;
    for (const auto& w : quiet_closed) {
      tput.push_back(w.tput);
      cpu.push_back(w.cpu_us);
    }
    const auto samples = gen.samples(open_tag);
    Metrics m;
    m.push_back({"throughput_rps", {median(tput), "req/s", tput.size()}});
    m.push_back({"cpu_us_per_req", {median(cpu), "us", cpu.size()}});
    for (const auto& [kind, kind_samples] :
         {std::pair{"write", &samples.write_ns}, std::pair{"read", &samples.read_ns}}) {
      if (kind_samples->empty()) continue;
      const auto& windows = latency_windows(*kind_samples, quiet_open, o.windows);
      // A window holds too few samples for its own p99: that one is pooled.
      const auto lat = median_window_percentiles_ms(*kind_samples, windows, {50, 90});
      m.push_back({std::string(kind) + "_p50_ms", lat[0]});
      m.push_back({std::string(kind) + "_p90_ms", lat[1]});
      m.push_back({std::string(kind) + "_p99_ms",
                   window_percentiles_ms(*kind_samples, windows, {99})[0]});
    }
    return m;
  };
  Metrics end_to_end = e2e(closed.front(), open.front(), kOpenUntraced);
  const std::uint64_t failed_ops = totals.unanswered + totals.bad_status + totals.invalid;
  end_to_end.push_back(
      {"failed_frac",
       {ratio(static_cast<double>(failed_ops), static_cast<double>(totals.attempted)), "fraction",
        totals.attempted}});
  end_to_end.push_back({"setup_s", {median(setups), "s", setups.size()}});

  // Host CPU stolen by the hypervisor during the measured phases.
  std::vector<double> steals;
  for (const auto* phases : {&closed, &open}) {
    for (const auto& p : *phases) {
      for (const auto& w : p.windows) steals.push_back(w.steal);
    }
  }

  // ---- generator guard ---------------------------------------------------------
  double gen_busy = 0;
  for (const auto& p : closed) gen_busy = std::max(gen_busy, p.gen_busy_max);
  for (const auto& p : open) gen_busy = std::max(gen_busy, p.gen_busy_max);
  const int lag_tag = args.trace ? kOpenTraced : kOpenUntraced;
  // Lateness is judged only where the host stole no CPU: while the
  // hypervisor holds the generator's vCPU, the lateness is the host's (and
  // gen.busy_frac still catches a saturated generator).
  const Metric lag_p99 =
      window_percentiles_ms(gen.samples(lag_tag).lag_ns, open.back().steal_free(), {99})[0];
  const double lag_p99_ms = lag_p99.value;
  std::vector<std::string> invalid_reasons;
  if (gen_busy > kGenBusyLimit) {
    invalid_reasons.push_back("a generator thread was " + std::to_string(gen_busy) + " busy");
  }
  if (lag_p99_ms > kGenLagLimitMs) {
    invalid_reasons.push_back("open-loop schedule ran " + std::to_string(lag_p99_ms) +
                              " ms late at p99");
  }

  // ---- per-layer metrics, spans and tracing overhead (traced runs) ------------
  Metrics per_layer;
  std::string bottleneck, trace_file;
  if (args.trace) {
    Layers layers = layer_metrics(closed.back(), leader);
    for (const auto& g : gauges.results()) {
      layers.metrics.push_back({g.name, {g.mean, "count", g.samples}});
    }
    bottleneck = bottleneck_of(layers, config.window_size);
    per_layer = std::move(layers.metrics);
    per_layer.push_back({"gen.busy_frac", {gen_busy, "fraction", 1}});
    per_layer.push_back({"gen.lag_p99_ms", lag_p99});
    // Latencies the gate leaves out: the write tail, and the lease reads
    // (0 on workloads that send no reads).
    for (const auto& [from, to] : {std::pair{"write_p99_ms", "tail.write_p99_ms"},
                                   std::pair{"read_p50_ms", "read.p50_ms"},
                                   std::pair{"read_p90_ms", "read.p90_ms"}}) {
      Metric m{0, "ms", 0};
      for (const auto& [name, value] : end_to_end) {
        if (name == from) m = value;
      }
      per_layer.push_back({to, m});
    }
    per_layer.push_back(
        {"gen.resends_per_kreq",
         {ratio(1000.0 * static_cast<double>(totals.resends), static_cast<double>(totals.ok)),
          "count", totals.ok}});

    std::vector<std::vector<ExecSpan>> exec_spans;
    for (auto* service : cluster.services) exec_spans.push_back(service->take_spans());
    trace_file = args.workdir + "/trace-" + run_tag + ".csv";
    const auto [exec_self, path_self] = write_trace(trace_file, gen.spans(), exec_spans, leader,
                                                    open.back().begin.t, open.back().end.t);
    per_layer.push_back({"self.exec_us", exec_self});
    per_layer.push_back({"self.pipeline_us", path_self});
    // Tracing overhead: the traced against the untraced part of each loop.
    const Metrics untraced = e2e(closed.front(), open.front(), kOpenUntraced);
    const Metrics traced = e2e(closed.back(), open.back(), kOpenTraced);
    const auto change = [&](const std::string& name) {
      return ratio(value_of(traced, name), value_of(untraced, name)) - 1.0;
    };
    per_layer.push_back({"trace.overhead_tput_frac", {-change("throughput_rps"), "fraction", 2}});
    per_layer.push_back({"trace.overhead_p50_frac", {change("write_p50_ms"), "fraction", 2}});
  }
  // Stop the cluster before the ladder so the two do not share the cores.
  const bool leader_stable = leader_index(cluster) == leader;
  if (!leader_stable) invalid_reasons.push_back("leadership moved during the run");
  cluster.shut_down();
  if (args.trace) {
    LadderParams lp;
    lp.spec = spec;
    lp.seed = args.seed;
    lp.config = config;
    lp.storage_dir = args.workdir + "/ladder-" + run_tag;
    for (const auto& [name, value] : run_ladder(lp)) {
      per_layer.push_back({name, {value, name.ends_with("_us") ? "us" : "ns", 1}});
    }
  }

  // ---- result ---------------------------------------------------------------------
  const auto sp = sim_params(args.seed);
  JsonWriter json;
  json.begin_object();
  json.key("workload").value(spec->name);
  json.key("seed").value(args.seed);
  json.key("trace").value(args.trace);
  json.key("correct").value(correct);
  json.key("valid").value(invalid_reasons.empty());
  json.key("attempted").value(totals.attempted);
  json.key("failed").value(failed_ops);
  json.key("resends").value(totals.resends);
  json.key("converge_s").value(converge_s);
  write_strings(json.key("errors"), errors);
  write_strings(json.key("invalid"), invalid_reasons);
  json.key("bottleneck").value(bottleneck);
  json.key("trace_file").value(trace_file);
  json.key("quiet_closed_windows").value(std::uint64_t{closed.front().quiet().size()});
  json.key("quiet_open_windows").value(std::uint64_t{open.front().quiet().size()});
  json.key("host_steal_median").value(median(steals));
  json.key("host_steal_max")
      .value(steals.empty() ? 0.0 : *std::max_element(steals.begin(), steals.end()));
  json.key("config");
  write_config(json, config);
  json.key("simnet").begin_object();
  json.key("one_way_ns").value(sp.one_way_ns);
  json.key("node_pps").value(sp.node_pps);
  json.key("node_bandwidth_bps").value(sp.node_bandwidth_bps);
  json.key("inbox_capacity").value(std::uint64_t{sp.inbox_capacity});
  json.end_object();
  json.key("load").begin_object();
  json.key("closed_clients").value(spec->closed_clients);
  json.key("open_rate_rps").value(spec->open_rate_rps);
  json.key("generator_threads").value(kGenThreads);
  json.key("read_pct").value(spec->read_pct);
  json.key("hot_pct").value(spec->hot_pct);
  json.key("keys").value(kKeys);
  json.key("service_wait_ns").value(spec->service_wait_ns);
  json.key("seconds").value(args.seconds);
  json.key("setups").value(std::uint64_t{setups.size()});
  json.end_object();
  write_metrics(json.key("end_to_end"), end_to_end);
  write_metrics(json.key("per_layer"), per_layer);
  json.end_object();
  std::ofstream out(args.out);
  out << json.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc raises its mmap threshold whenever a large mapped block is
  // freed. The set-ups' tear-downs raise it at points that differ from run
  // to run, and the set-ups then switch between two speeds (about 4.3 and
  // 2.6 ms on kv-exec-io). Both thresholds are fixed where that adjustment
  // ends (its maximum, and twice it for trimming), so every set-up and
  // load phase of every run sees the same allocator.
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 64 << 20);
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--workdir <dir> --out <result.json>\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
