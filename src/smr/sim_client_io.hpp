// ClientIO over SimNet: a static pool of IO threads, each owning one
// SimNet inbox channel (connection assignment is by client-id hash, the
// moral equivalent of the paper's round-robin: uniform and sticky).
//
// The reply path preserves the paper's structure: the ServiceManager does
// NOT write to the network itself — it hands each reply to the IO thread
// owning the client's "connection" through that thread's reply ring
// (ReplyRings, smr/client_io.hpp), and that thread serializes and
// performs the network send. The wake is one empty message injected into
// the IO thread's SimNet inbox per burst of replies.
//
// Only request frames are accepted on a ClientIO channel; anything else
// is dropped, so no SimNet peer can forge a reply to another client.
#pragma once

#include <vector>

#include "metrics/thread_stats.hpp"
#include "smr/client_io.hpp"
#include "smr/request_gate.hpp"
#include "smr/transport.hpp"

namespace mcsmr::smr {

class SimClientIo : public ClientIo {
 public:
  /// Single-pipeline convenience (legacy signature).
  SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
              RequestQueue& requests, ReplyCache& reply_cache, SharedState& shared);
  /// One intake per partition; `router` may be null for a single pipeline.
  /// With several pipelines the reply rings get one producer per
  /// ServiceManager, so the ring backend switches from SPSC to MPMC.
  SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
              std::vector<RequestGate::Intake> intakes, const PartitionRouter* router,
              SharedState& shared);
  ~SimClientIo() override;

  void start() override;
  void stop() override;

  void send_reply(paxos::ClientId client, paxos::RequestSeq seq, ReplyStatus status,
                  const Bytes& payload) override;

  /// The inbox channel a client with this id must send to.
  net::Channel channel_for_client(paxos::ClientId client) const {
    return kClientIoChannelBase + static_cast<net::Channel>(thread_for_client(client));
  }

 private:
  int thread_for_client(paxos::ClientId client) const {
    return static_cast<int>(client % static_cast<std::uint64_t>(io_threads_));
  }
  void io_loop(int thread_index);

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  net::SimNetwork& net_;
  const net::NodeId self_node_;
  RequestGate gate_;
  const int io_threads_;

  /// client -> SimNet node to answer to (learned from request frames).
  ClientRegistry<net::NodeId> reply_nodes_;

  ReplyRings<ClientReplyFrame> replies_;

  std::vector<metrics::NamedThread> threads_;
  bool started_ = false;
};

}  // namespace mcsmr::smr
