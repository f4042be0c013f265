#include "smr/sim_client_io.hpp"

#include "common/affinity.hpp"
#include "common/logging.hpp"

namespace mcsmr::smr {

SimClientIo::SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
                         RequestQueue& requests, ReplyCache& reply_cache, SharedState& shared)
    : SimClientIo(config, net, self_node, {RequestGate::Intake{&requests, &reply_cache}},
                  nullptr, shared) {}

SimClientIo::SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
                         std::vector<RequestGate::Intake> intakes,
                         const PartitionRouter* router, SharedState& shared)
    : config_(config), net_(net), self_node_(self_node),
      gate_(config, std::move(intakes), router, shared),
      io_threads_(config.client_io_threads < 1 ? 1 : config.client_io_threads),
      replies_(config, io_threads_, shared) {}

SimClientIo::~SimClientIo() { stop(); }

void SimClientIo::start() {
  if (started_) return;
  started_ = true;
  for (int t = 0; t < io_threads_; ++t) {
    threads_.emplace_back(config_.thread_name_prefix + "ClientIO-" + std::to_string(t),
                          [this, t] { io_loop(t); });
  }
}

void SimClientIo::stop() {
  if (!started_) return;
  // Close the reply rings first so a ServiceManager blocked on a full
  // ring unwedges (its push fails) before the IO threads go away.
  replies_.close();
  for (int t = 0; t < io_threads_; ++t) {
    net_.close_inbox(self_node_, kClientIoChannelBase + static_cast<net::Channel>(t));
  }
  threads_.clear();  // joins
  started_ = false;
}

void SimClientIo::io_loop(int thread_index) {
  // Opt-in thread affinity (§V-A suggests dedicating cores to IO): one
  // core per IO thread, round-robin; no-op on single-core hosts.
  if (config_.pin_io_threads) pin_current_thread(thread_index);
  const net::Channel channel = kClientIoChannelBase + static_cast<net::Channel>(thread_index);
  // This thread owns the client's "connection": it does the network send.
  const auto deliver_reply = [this](const ClientReplyFrame& reply) {
    auto node = reply_nodes_.get(reply.client_id);
    if (node.has_value()) {
      net_.send(self_node_, *node, kClientReplyChannel, encode_client_reply(reply));
    }
  };
  while (auto message = net_.recv(self_node_, channel)) {
    if (message->payload.empty()) {
      replies_.on_wake(thread_index, deliver_reply);  // reply-ring wake
      continue;
    }

    DecodedClientFrame frame;
    try {
      frame = decode_client_frame(message->payload);
    } catch (const DecodeError& error) {
      LOG_WARN << "dropping malformed client frame: " << error.what();
      continue;
    }

    if (frame.kind != ClientFrameKind::kRequest) {
      // Replies travel only from the reply ring to the client; a reply
      // frame arriving here came from a peer and must not be forwarded.
      LOG_WARN << "dropping non-request client frame from node " << message->from;
      continue;
    }
    // Remember where to answer, then run the admission gate.
    reply_nodes_.put(frame.request.client_id, frame.request.reply_node);
    auto outcome = gate_.admit(frame.request);
    if (outcome.action == RequestGate::Action::kReplyNow) {
      net_.send(self_node_, frame.request.reply_node, kClientReplyChannel,
                encode_client_reply(outcome.reply));
    }
    // Opportunistic drain: request traffic keeps the reply ring flowing
    // even if a wake message was lost to a momentarily full inbox.
    replies_.drain(thread_index, deliver_reply);
  }
}

void SimClientIo::send_reply(paxos::ClientId client, paxos::RequestSeq seq,
                             ReplyStatus status, const Bytes& payload) {
  const net::Channel channel = channel_for_client(client);
  replies_.push(thread_for_client(client), ClientReplyFrame{client, seq, status, payload},
                [&] {
                  net::SimMessage wake;  // empty payload = reply-ring wake
                  wake.from = self_node_;
                  wake.channel = channel;
                  // Inbox full or closed: the opportunistic drain in
                  // io_loop covers the gap until the next wake.
                  return net_.inject(self_node_, channel, std::move(wake));
                });
}

}  // namespace mcsmr::smr
