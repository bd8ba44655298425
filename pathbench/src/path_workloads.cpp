// stream-c16 and paced-base: initiator -> relay -> responder, three
// ShardedNodes over UDP on 127.0.0.1, driven by the benchmark's loader on
// the main thread.
#include <malloc.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/sharded_node.hpp"
#include "spans.hpp"

namespace pathbench {
namespace {

using core::ShardedNode;

struct PathSpec {
  const char* name = "";
  core::Config config;
  std::size_t assocs = 0;
  std::size_t payload = 0;
  bool open_loop = false;
  double rate = 0;          // open loop: messages/s over all associations
  std::size_t window = 0;   // closed loop: outstanding messages/association
  std::size_t reorder_bound = 0;  // deliveries this far behind are misordered
};

// Payload layout: msg_seq(8) assoc_index(4) body_index(4) stamp_ns(8) body.
constexpr std::size_t kHeader = 24;
constexpr std::size_t kBodies = 64;
// Per-association ring of expected digests; larger than any backlog a run
// can build, so a slot is never reused while its message is outstanding.
constexpr std::size_t kRing = 4096;

struct Delivery {
  std::uint64_t msg_seq;
  std::uint64_t stamp_ns;
  std::uint64_t t_ns;
};

// One association's bookkeeping. The loader (main thread) writes the
// submit side; the responder worker that owns the association writes the
// delivery side; the initiator worker writes failed_status.
struct alignas(64) Track {
  std::atomic<std::uint64_t> submitted{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> digest =
      std::make_unique<std::atomic<std::uint64_t>[]>(kRing);
  std::uint64_t refill_ns = 0;  // loader: last refill (closed loop)

  std::atomic<std::uint64_t> delivered{0};  // unique deliveries
  std::atomic<std::uint64_t> in_window{0};
  std::atomic<std::uint64_t> last_delivery_ns{0};
  std::atomic<std::uint64_t> failed_status{0};
  std::vector<std::uint64_t> seen = std::vector<std::uint64_t>(kRing, 0);
  std::uint64_t max_seen = 0;
  std::uint64_t bad_digest = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t unknown = 0;
  std::uint64_t misrouted = 0;
  std::uint64_t past_budget = 0;  // deliveries slower than World::budget_ns
  std::uint64_t slowest_ns = 0;
  std::vector<Delivery> deliveries;
};

// Flags the loader flips and the delivery threads read. The loader sizes
// the latency histograms before it publishes a slice or sets `record`; the
// delivery threads load both with acquire ordering.
struct Gates {
  std::atomic<bool> window_open{false};
  std::atomic<int> slice{-1};  // latency samples go to this slice
  std::atomic<bool> record{false};
  std::atomic<std::uint64_t> stray{0};  // deliveries on unknown assocs
};

struct World {
  TapLog log_i, log_r, log_v;
  std::vector<std::uint32_t> ids;
  std::unordered_map<std::uint32_t, std::size_t> index;
  std::vector<Track> tracks;
  Gates gates;
  // Latency per slice. Written on the responder's only worker thread
  // (workers = 1), read once the nodes are gone.
  std::vector<LatencyHist> latency;
  std::uint64_t budget_ns = 0;  // see default_budget_ns
  net::PeerAddr port_i = 0, port_r = 0, port_v = 0;
  // Nodes last: destroyed (threads joined) before what their callbacks use.
  std::unique_ptr<ShardedNode> relay, responder, initiator;

  explicit World(std::size_t n) : tracks(n) {}
  ShardedNode* nodes[3] = {};
};

/// Total backoff of the runtime's default retry budget (Config{}'s
/// max_retries, 6 transmissions) at `c`'s timeout, without jitter: a round
/// that needs longer would fail under the default budget. Every message of
/// such a round is delivered later than this after it was submitted.
std::uint64_t default_budget_ns(const core::Config& c) {
  std::uint64_t total = 0, delay = c.rto_us;
  for (int k = 0; k <= core::Config{}.max_retries; ++k) {
    total += std::min(delay, c.rto_max_us);
    delay *= 2;
  }
  return total * 1000;
}

std::unique_ptr<net::Transport> tapped(TapLog& log, net::PeerAddr& port) {
  auto udp = std::make_unique<net::UdpTransport>();
  port = udp->port();
  return std::make_unique<TapTransport>(std::move(udp), log);
}

void on_message(const PathSpec& spec, World& w, std::uint32_t assoc_id,
                crypto::ByteView payload) {
  const std::uint64_t t = now_ns();
  const auto it = w.index.find(assoc_id);
  if (it == w.index.end()) {
    w.gates.stray.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Track& tr = w.tracks[it->second];
  if (payload.size() != spec.payload) {
    ++tr.bad_digest;
    return;
  }
  std::uint64_t msg_seq = 0, stamp = 0;
  std::uint32_t assoc_index = 0;
  std::memcpy(&msg_seq, payload.data(), 8);
  std::memcpy(&assoc_index, payload.data() + 8, 4);
  std::memcpy(&stamp, payload.data() + 16, 8);
  if (assoc_index != it->second) ++tr.misrouted;
  if (msg_seq >= tr.submitted.load(std::memory_order_relaxed)) {
    ++tr.unknown;
    return;
  }
  if (tr.digest[msg_seq % kRing].load(std::memory_order_relaxed) !=
      content_digest(payload.data(), payload.size())) {
    ++tr.bad_digest;
  }
  std::uint64_t& seen = tr.seen[msg_seq % kRing];
  if (seen == msg_seq + 1) {
    ++tr.duplicate;
    return;
  }
  seen = msg_seq + 1;
  if (msg_seq + spec.reorder_bound <= tr.max_seen) ++tr.out_of_order;
  if (msg_seq > tr.max_seen) tr.max_seen = msg_seq;
  bump(tr.delivered, 1);
  tr.last_delivery_ns.store(t, std::memory_order_relaxed);
  const std::uint64_t latency = t - stamp;
  if (latency > w.budget_ns) ++tr.past_budget;
  tr.slowest_ns = std::max(tr.slowest_ns, latency);
  if (w.gates.window_open.load(std::memory_order_relaxed)) {
    bump(tr.in_window, 1);
    const int slice = w.gates.slice.load(std::memory_order_acquire);
    if (slice >= 0) w.latency[static_cast<std::size_t>(slice)].add(latency);
  }
  if (w.gates.record.load(std::memory_order_acquire)) {
    tr.deliveries.push_back({msg_seq, stamp, t});
  }
}

/// Builds the three nodes and establishes every association end to end.
/// Returns the set-up wall time in seconds, or a negative value on timeout.
double build_world(const PathSpec& spec, const RunOptions& opts, World& w,
                   std::uint64_t rep, bool capture) {
  w.ids = make_assoc_ids(opts.seed, spec.assocs);
  for (std::size_t i = 0; i < w.ids.size(); ++i) w.index[w.ids[i]] = i;
  w.budget_ns = default_budget_ns(spec.config);
  // Self-test: the relay's transport forges the first S2 it forwards.
  w.log_r.forge_one_s2 = rep == 0 && opts.inject == "forged";
  if (capture) {
    w.log_r.capture_cap_bytes = 24u << 20;
    w.log_r.capture_bytes.reserve(w.log_r.capture_cap_bytes);
    w.log_r.capture.store(true);
  }

  const std::uint64_t t0 = now_ns();
  ShardedNode::Options o;
  o.shard.config = spec.config;
  o.workers = 1;

  o.shard.seed = mix64(opts.seed * 3 + rep);
  w.relay = std::make_unique<ShardedNode>(tapped(w.log_r, w.port_r), o);

  ShardedNode::Callbacks vcb;
  vcb.on_message = [&spec, &w](std::uint32_t id, crypto::ByteView p) {
    on_message(spec, w, id, p);
  };
  o.shard.seed = mix64(opts.seed * 5 + rep);
  o.shard.accept_inbound = true;
  w.responder =
      std::make_unique<ShardedNode>(tapped(w.log_v, w.port_v), o, vcb);

  ShardedNode::Callbacks icb;
  icb.on_delivery = [&w](std::uint32_t id, std::uint64_t,
                         core::DeliveryStatus st) {
    if (st != core::DeliveryStatus::kFailed &&
        st != core::DeliveryStatus::kNacked) {
      return;
    }
    const auto it = w.index.find(id);
    if (it != w.index.end()) {
      w.tracks[it->second].failed_status.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  };
  o.shard.seed = mix64(opts.seed * 7 + rep);
  o.shard.accept_inbound = false;
  w.initiator =
      std::make_unique<ShardedNode>(tapped(w.log_i, w.port_i), o, icb);

  w.relay->add_relay(w.port_i, w.port_v, w.ids);
  for (const std::uint32_t id : w.ids) {
    w.initiator->add_initiator(id, w.port_r, spec.config, {});
  }
  w.nodes[0] = w.initiator.get();
  w.nodes[1] = w.relay.get();
  w.nodes[2] = w.responder.get();
  // The relay and responder only react; their threads launch on poll.
  w.relay->poll(0);
  w.responder->poll(0);
  for (const std::uint32_t id : w.ids) w.initiator->start(id);
  const std::uint64_t deadline = t0 + 30'000'000'000ull;
  while (w.initiator->established_count() < spec.assocs ||
         w.responder->established_count() < spec.assocs) {
    if (now_ns() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// The loader: submits messages (closed loop: keeps `window` outstanding
/// per association; open loop: one message per due time, sleeping until
/// it) and samples ring depths.
class Loader {
 public:
  Loader(const PathSpec& spec, const RunOptions& opts, World& w)
      : spec_(spec), opts_(opts), w_(w), rng_(mix64(opts.seed ^ 0xb0d1e5)) {
    bodies_.resize(kBodies);
    for (auto& b : bodies_) {
      b.resize(spec.payload - kHeader);
      for (auto& byte : b) byte = static_cast<std::uint8_t>(rng_.next());
    }
    order_.resize(spec.assocs);
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.below(i)]);
    }
  }

  void drive(std::uint64_t until_ns) {
    if (spec_.open_loop) {
      drive_open(until_ns);
    } else {
      drive_closed(until_ns);
    }
  }

  std::uint64_t ring_in_depth_max = 0;
  bool record_late = false;
  std::vector<double> late_us;

 private:
  void submit(std::size_t a, std::uint64_t stamp) {
    Track& tr = w_.tracks[a];
    const std::uint64_t seq = tr.submitted.load(std::memory_order_relaxed);
    crypto::Bytes payload(spec_.payload);
    const auto assoc_index = static_cast<std::uint32_t>(a);
    const auto body =
        static_cast<std::uint32_t>(mix64(opts_.seed ^ (seq << 20) ^ a) %
                                   kBodies);
    std::memcpy(payload.data(), &seq, 8);
    std::memcpy(payload.data() + 8, &assoc_index, 4);
    std::memcpy(payload.data() + 12, &body, 4);
    std::memcpy(payload.data() + 16, &stamp, 8);
    std::memcpy(payload.data() + kHeader, bodies_[body].data(),
                bodies_[body].size());
    std::uint64_t digest = content_digest(payload.data(), payload.size());
    if (opts_.inject == "payload" && a == 0 && seq == 100) digest ^= 1;
    tr.digest[seq % kRing].store(digest, std::memory_order_relaxed);
    tr.submitted.store(seq + 1, std::memory_order_relaxed);
    w_.initiator->submit(w_.ids[a], std::move(payload));
  }

  void sample_rings() {
    const std::uint64_t t = now_ns();
    if (t - last_sample_ns_ < 1'000'000) return;
    last_sample_ns_ = t;
    for (ShardedNode* n : w_.nodes) {
      for (const auto& s : n->shard_stats()) {
        ring_in_depth_max = std::max<std::uint64_t>(ring_in_depth_max,
                                                    s.in_depth);
      }
    }
  }

  void drive_closed(std::uint64_t until_ns) {
    while (now_ns() < until_ns) {
      bool progressed = false;
      for (std::size_t a = 0; a < spec_.assocs; ++a) {
        Track& tr = w_.tracks[a];
        const std::uint64_t done =
            tr.delivered.load(std::memory_order_relaxed) +
            tr.failed_status.load(std::memory_order_relaxed);
        if (tr.submitted.load(std::memory_order_relaxed) - done >=
            spec_.window) {
          continue;
        }
        const std::uint64_t freed =
            tr.last_delivery_ns.load(std::memory_order_relaxed);
        const std::uint64_t t = now_ns();
        if (record_late && freed > tr.refill_ns) {
          late_us.push_back(static_cast<double>(t - freed) / 1e3);
        }
        while (tr.submitted.load(std::memory_order_relaxed) - done <
               spec_.window) {
          submit(a, now_ns());
        }
        tr.refill_ns = t;
        progressed = true;
      }
      sample_rings();
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  void drive_open(std::uint64_t until_ns) {
    if (open_base_ns_ == 0) open_base_ns_ = now_ns();
    const double gap_ns = 1e9 / spec_.rate;
    for (;;) {
      const std::uint64_t due =
          open_base_ns_ + static_cast<std::uint64_t>(
                              static_cast<double>(next_msg_) * gap_ns);
      if (due >= until_ns) break;
      std::uint64_t t = now_ns();
      if (t < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - t));
        t = now_ns();
      }
      submit(order_[next_msg_ % order_.size()], due);
      if (record_late) late_us.push_back(static_cast<double>(t - due) / 1e3);
      ++next_msg_;
      sample_rings();
    }
    // Idle until the window closes even when the next message is later.
    const std::uint64_t t = now_ns();
    if (t < until_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(until_ns - t));
    }
  }

  const PathSpec& spec_;
  const RunOptions& opts_;
  World& w_;
  Rng rng_;
  std::vector<crypto::Bytes> bodies_;
  std::vector<std::size_t> order_;
  std::uint64_t open_base_ns_ = 0;
  std::uint64_t next_msg_ = 0;
  std::uint64_t last_sample_ns_ = 0;
};

// Counters read at the edges of a measured phase.
struct Edge {
  std::uint64_t t_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t delivered_in_window = 0;
  std::uint64_t relay_fwd = 0;  // frames received from the relay
  core::NodeSnapshot snap[3];
  TapCounters tap;  // summed over the three nodes
};

Edge read_edge(World& w, long tid, bool snapshots) {
  Edge e;
  e.t_ns = now_ns();
  e.cpu_ns = runtime_cpu_ns({tid});
  for (const Track& tr : w.tracks) {
    e.delivered_in_window += tr.in_window.load(std::memory_order_relaxed);
  }
  e.relay_fwd = w.log_i.recv_frames.load(std::memory_order_relaxed) +
                w.log_v.recv_frames.load(std::memory_order_relaxed);
  for (const TapLog* l : {&w.log_i, &w.log_r, &w.log_v}) {
    e.tap += TapCounters::read(*l);
  }
  if (snapshots) {
    for (int n = 0; n < 3; ++n) {
      e.snap[n] = w.nodes[n]->snapshot(/*per_assoc=*/true);
    }
  }
  return e;
}

core::HashWork hashes_of(const core::NodeSnapshot& s) {
  core::HashWork h = s.relay.hashes;
  for (const auto& a : s.assocs) {
    h += a.signer.hashes;
    h += a.verifier.hashes;
  }
  return h;
}

/// Per-layer metrics from the counters of the traced phase [a, b].
void counter_layers(const Edge& a, const Edge& b, double ops,
                    std::uint64_t ring_depth_max, Metrics& m) {
  put_net_layers(b.tap - a.tap, ops, m);

  std::uint64_t retx = 0, dup = 0, overflow = 0, fires = 0, rekeys = 0;
  core::HashWork ha, hb;
  for (int n = 0; n < 3; ++n) {
    retx += b.snap[n].retransmits - a.snap[n].retransmits;
    dup += b.snap[n].duplicate_frames - a.snap[n].duplicate_frames;
    overflow += b.snap[n].ring_overflows - a.snap[n].ring_overflows;
    fires += b.snap[n].timer_fires - a.snap[n].timer_fires;
    rekeys += b.snap[n].rekeys_started - a.snap[n].rekeys_started;
    ha += hashes_of(a.snap[n]);
    hb += hashes_of(b.snap[n]);
  }
  put(m, "core.retransmits_per_msg", safe_div(retx, ops), "count/msg");
  put(m, "core.duplicate_frames_per_msg", safe_div(dup, ops), "count/msg");
  put(m, "core.ring_overflows", static_cast<double>(overflow), "count");
  put(m, "core.ring_in_depth_max", static_cast<double>(ring_depth_max),
      "frames");
  put(m, "core.timer_fires_per_msg", safe_div(fires, ops), "count/msg");
  put(m, "core.rekeys", static_cast<double>(rekeys), "count");
  put(m, "crypto.hashes_per_msg",
      safe_div(static_cast<double>(hb.total() - ha.total()), ops),
      "hashes/msg");
  const core::RelayStats& ra = a.snap[1].relay;
  const core::RelayStats& rb = b.snap[1].relay;
  const double dropped = static_cast<double>(
      (rb.dropped_invalid - ra.dropped_invalid) +
      (rb.dropped_unsolicited - ra.dropped_unsolicited));
  const double relayed =
      dropped + static_cast<double>(rb.forwarded - ra.forwarded);
  put(m, "core.relay_forged_drop_share", safe_div(dropped, relayed), "ratio");
}

/// Span metrics of the traced phase; spans go to `spans` for the file.
void span_layers(World& w, const Loader& loader, Metrics& m, SpanLog& spans) {
  const FirstSeen i_in = first_seen(w.log_i.events, Dir::kIn);
  const FirstSeen i_out = first_seen(w.log_i.events, Dir::kOut);
  const FirstSeen r_in = first_seen(w.log_r.events, Dir::kIn);
  const FirstSeen r_out = first_seen(w.log_r.events, Dir::kOut);
  const FirstSeen v_in = first_seen(w.log_v.events, Dir::kIn);
  const FirstSeen v_out = first_seen(w.log_v.events, Dir::kOut);
  using wire::PacketType;
  const auto type_of = [](PacketType t) { return static_cast<std::uint8_t>(t); };

  std::vector<double> relay_us, loop_us, resp_us, init_us, self_us;
  const auto span = [&](const char* layer, std::uint64_t parent,
                        const KeyId& k, std::uint64_t s, std::uint64_t e,
                        std::vector<double>* sink) {
    if (s == 0 || e == 0 || e < s) return;
    spans.add({layer, parent, k.assoc, k.seq, k.type, k.msg_index, s, e});
    if (sink != nullptr) sink->push_back(static_cast<double>(e - s) / 1e3);
  };

  // Frame-level spans: relay residence and every loopback hop.
  for (const auto& [k, t_in] : r_in) {
    span("relay", 0, k, t_in, at(r_out, k), &relay_us);
    const bool fwd = k.type == type_of(PacketType::kS1) ||
                     k.type == type_of(PacketType::kS2) ||
                     k.type == type_of(PacketType::kHs1);
    span("loopback", 0, k, at(fwd ? i_out : v_out, k), t_in, &loop_us);
    span("loopback", 0, k, at(r_out, k), at(fwd ? v_in : i_in, k), &loop_us);
  }
  // Endpoint residence: responder S1 -> A1 and S2 -> A2; initiator
  // A1 -> first S2 of the round.
  for (const auto& [k, t_in] : v_in) {
    if (k.type == type_of(PacketType::kS1)) {
      span("responder", 0, k, t_in,
           at(v_out, {k.assoc, k.seq, 0, type_of(PacketType::kA1)}),
           &resp_us);
    } else if (k.type == type_of(PacketType::kS2)) {
      span("responder", 0, k, t_in,
           at(v_out, {k.assoc, k.seq, k.msg_index, type_of(PacketType::kA2)}),
           &resp_us);
    }
  }
  for (const auto& [k, t_in] : i_in) {
    if (k.type != type_of(PacketType::kA1)) continue;
    span("initiator", 0, k, t_in,
         at(i_out, {k.assoc, k.seq, 0, type_of(PacketType::kS2)}), &init_us);
  }

  // Message spans: due/submit -> delivery. Children are the node residence
  // spans of the message's round (S1, A1) and of its own S2; the self time
  // left over is loopback plus queueing inside the endpoints.
  std::unordered_map<std::uint64_t, KeyId> s2_of;  // (assoc, msg_seq)
  for (const FrameEvent& e : w.log_v.events) {
    if (e.dir == Dir::kIn && e.type == type_of(PacketType::kS2)) {
      s2_of.emplace((std::uint64_t{e.assoc} << 40) ^ e.msg_seq,
                    KeyId{e.assoc, e.seq, e.msg_index, e.type});
    }
  }
  std::uint64_t msg_id = 0;
  for (std::size_t a = 0; a < w.tracks.size(); ++a) {
    const std::uint32_t assoc = w.ids[a];
    for (const Delivery& d : w.tracks[a].deliveries) {
      const auto it = s2_of.find((std::uint64_t{assoc} << 40) ^ d.msg_seq);
      if (it == s2_of.end()) continue;
      const KeyId s2 = it->second;
      const KeyId s1{assoc, s2.seq, 0, type_of(PacketType::kS1)};
      const KeyId a1{assoc, s2.seq, 0, type_of(PacketType::kA1)};
      ++msg_id;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
      const auto kid = [&](const char* layer, const KeyId& k,
                           std::uint64_t s, std::uint64_t e) {
        if (s == 0 || e == 0 || e < s) return;
        kids.emplace_back(s, e);
        spans.add({layer, msg_id, k.assoc, k.seq, k.type, k.msg_index, s, e});
      };
      for (const KeyId& k : {s1, a1, s2}) {
        kid("relay", k, at(r_in, k), at(r_out, k));
      }
      kid("responder", s1, at(v_in, s1), at(v_out, a1));
      kid("responder", s2, at(v_in, s2),
          at(v_out, {assoc, s2.seq, s2.msg_index, type_of(PacketType::kA2)}));
      kid("initiator", a1, at(i_in, a1), at(i_out, s2));
      spans.add({"message", msg_id, assoc, s2.seq, s2.type, s2.msg_index,
                 d.stamp_ns, d.t_ns});
      self_us.push_back(
          static_cast<double>(uncovered_ns(d.stamp_ns, d.t_ns, kids)) / 1e3);
    }
  }
  put(m, "initiator.residence_us_p50", quantile(init_us, 0.5), "us");
  put(m, "relay.residence_us_p50", quantile(relay_us, 0.5), "us");
  put(m, "relay.residence_us_p99", quantile(relay_us, 0.99), "us");
  put(m, "responder.residence_us_p50", quantile(resp_us, 0.5), "us");
  put(m, "loopback.us_p50", quantile(loop_us, 0.5), "us");
  put(m, "path.self_us_p50", quantile(self_us, 0.5), "us");
  put(m, "gen.late_us_p99", quantile(loader.late_us, 0.99), "us");
}

RunResult run_path(const PathSpec& spec, const RunOptions& opts) {
  RunResult res;
  const long tid = self_tid();
  // The measured world is the first set-up; the other set-ups are timed
  // after the run, once peak_rss_mb has been read, so it reflects one world.
  std::vector<double> setup_s;
  auto w = std::make_unique<World>(spec.assocs);
  RssGrowth rss;
  const double first = build_world(spec, opts, *w, 0, opts.trace);
  rss.sample();
  if (first < 0) {
    res.attempted += spec.assocs;
    res.fail("associations not established within 30 s", spec.assocs);
    return res;
  }
  setup_s.push_back(first);
  res.attempted += spec.assocs;

  Loader loader(spec, opts, *w);
  const auto secs_ns = [](double s) {
    return static_cast<std::uint64_t>(s * 1e9);
  };
  loader.drive(now_ns() + secs_ns(1.0));  // warm-up: rekeys, caches, rings

  // Untraced phase, in slices: the end-to-end metrics.
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const int kSlices = slice_count(untraced_s);
  w->latency.resize(static_cast<std::size_t>(kSlices));
  std::vector<Slice> slices(static_cast<std::size_t>(kSlices));
  w->gates.window_open.store(true);
  const Edge a0 = read_edge(*w, tid, false);
  Edge edge = a0;
  for (int k = 0; k < kSlices; ++k) {
    w->gates.slice.store(k);
    loader.drive(a0.t_ns + secs_ns(untraced_s * (k + 1) / kSlices));
    const Edge next = read_edge(*w, tid, false);
    Slice& sl = slices[static_cast<std::size_t>(k)];
    sl.seconds = static_cast<double>(next.t_ns - edge.t_ns) / 1e9;
    sl.messages = static_cast<double>(next.delivered_in_window -
                                      edge.delivered_in_window);
    sl.forwarded = static_cast<double>(next.relay_fwd - edge.relay_fwd);
    sl.cpu_us = static_cast<double>(next.cpu_ns - edge.cpu_ns) / 1e3;
    sl.cpu_ops = sl.messages;
    edge = next;
    rss.sample();
  }
  w->gates.slice.store(-1);
  w->gates.window_open.store(false);
  const double win_a = static_cast<double>(edge.t_ns - a0.t_ns) / 1e9;
  const double goodput_a =
      static_cast<double>(edge.delivered_in_window - a0.delivered_in_window) /
      win_a;
  const double relay_fwd_a =
      static_cast<double>(edge.relay_fwd - a0.relay_fwd) / win_a;

  // Traced phase: the same load with every tap recording.
  Edge b0, b1;
  std::uint64_t depth_max_b = 0, loader_cpu_b = 0;
  if (opts.trace) {
    for (TapLog* l : {&w->log_i, &w->log_r, &w->log_v}) {
      l->event_cap = 250'000;
      l->events.reserve(l->event_cap);
    }
    loader.ring_in_depth_max = 0;
    loader.record_late = true;
    b0 = read_edge(*w, tid, true);
    loader_cpu_b = thread_cpu_ns(tid);
    for (TapLog* l : {&w->log_i, &w->log_r, &w->log_v}) l->record.store(true);
    w->gates.record.store(true);
    w->gates.window_open.store(true);
    loader.drive(now_ns() + secs_ns(opts.seconds - untraced_s));
    w->gates.window_open.store(false);
    w->gates.record.store(false);
    for (TapLog* l : {&w->log_i, &w->log_r, &w->log_v}) l->record.store(false);
    loader.record_late = false;
    loader_cpu_b = thread_cpu_ns(tid) - loader_cpu_b;
    b1 = read_edge(*w, tid, true);
    depth_max_b = loader.ring_in_depth_max;
    rss.sample();
  }

  // Drain: nothing new is submitted; every message must still arrive.
  // Four retransmissions at the 5 s backoff cap: a message still owed at
  // the deadline is stuck, not slow.
  const std::uint64_t drain_deadline = now_ns() + secs_ns(20);
  for (;;) {
    bool done = true;
    for (const Track& tr : w->tracks) {
      done = done && tr.delivered.load() + tr.failed_status.load() >=
                         tr.submitted.load();
    }
    if (done || now_ns() > drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let in-flight acknowledgments settle so the relay's counters are
  // final before they are reconciled.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const core::NodeSnapshot fin_i = w->initiator->snapshot(/*per_assoc=*/true);
  const core::NodeSnapshot fin_r = w->relay->snapshot();
  const core::NodeSnapshot fin_v = w->responder->snapshot();
  std::uint64_t relay_in_overflow = 0;
  for (const auto& s : w->relay->shard_stats()) {
    relay_in_overflow += s.in_overflows;
  }
  const std::uint64_t relay_tap_in = w->log_r.recv_frames.load();
  rss.sample();
  std::printf("memory: VmRSS %.1f MiB before the nodes, peak growth %.1f "
              "MiB, ru_maxrss %.1f MiB\n",
              rss.baseline_mib(), rss.growth_mib(), peak_rss_mib());

  // Join every runtime thread before reading what they wrote.
  w->initiator.reset();
  w->responder.reset();
  w->relay.reset();
  ::malloc_trim(0);
  for (int rep = 1; rep < kSetupReps; ++rep) {
    World again(spec.assocs);
    const double s = build_world(spec, opts, again,
                                 static_cast<std::uint64_t>(rep), false);
    if (s < 0) {
      res.fail("associations not established within 30 s", spec.assocs);
      break;
    }
    setup_s.push_back(s);
  }

  std::uint64_t submitted = 0, delivered = 0, failed_status = 0;
  std::uint64_t bad = 0, dup = 0, ooo = 0, unknown = 0, misrouted = 0;
  std::uint64_t past_budget = 0, slowest_ns = 0;
  for (const Track& tr : w->tracks) {
    submitted += tr.submitted.load();
    delivered += tr.delivered.load();
    failed_status += tr.failed_status.load();
    bad += tr.bad_digest;
    dup += tr.duplicate;
    ooo += tr.out_of_order;
    unknown += tr.unknown;
    misrouted += tr.misrouted;
    past_budget += tr.past_budget;
    slowest_ns = std::max(slowest_ns, tr.slowest_ns);
  }
  for (std::size_t k = 0; k < slices.size(); ++k) {
    slices[k].latency = w->latency[k];
  }
  // The workload's retry budget may exceed the runtime's default; a round
  // that only completed thanks to the extra retries is reported here (and
  // as core.msgs_past_default_budget), not hidden by the slice medians.
  std::printf("retry budget: %llu messages delivered later than the default "
              "budget's total backoff (%.3f s); slowest %.3f s\n",
              static_cast<unsigned long long>(past_budget),
              static_cast<double>(w->budget_ns) / 1e9,
              static_cast<double>(slowest_ns) / 1e9);
  res.attempted += submitted;
  res.fail("message not delivered by the end of the drain",
           submitted > delivered ? submitted - delivered : 0);
  // Say where undelivered messages sit: the initiator's view of each
  // association that still owes deliveries.
  for (const core::AssocSnapshot& a : fin_i.assocs) {
    const Track& tr = w->tracks[w->index.at(a.assoc_id)];
    if (tr.delivered.load() >= tr.submitted.load()) continue;
    std::printf("undelivered: assoc %u submitted %llu delivered %llu "
                "failed-status %llu established %d rekey_pending %d failed "
                "%d round_active %d round_seq %u round_retries %u backlog "
                "%zu rekeys %llu s2_retransmits %llu rounds_failed %llu\n",
                a.assoc_id,
                static_cast<unsigned long long>(tr.submitted.load()),
                static_cast<unsigned long long>(tr.delivered.load()),
                static_cast<unsigned long long>(tr.failed_status.load()),
                a.established, a.rekey_pending, a.failed, a.round_active,
                a.round_seq, a.round_retries, a.backlog,
                static_cast<unsigned long long>(a.rekeys_started),
                static_cast<unsigned long long>(a.signer.s2_retransmits),
                static_cast<unsigned long long>(a.signer.rounds_failed));
  }
  res.fail("delivered payload digest mismatch", bad);
  res.fail("message delivered twice", dup);
  res.fail("message delivered out of order", ooo);
  res.fail("delivered message never submitted", unknown + w->gates.stray);
  res.fail("message delivered on the wrong association", misrouted);
  res.fail("association failed", fin_i.failed + fin_v.failed);
  res.fail("forged message at the responder", fin_v.messages_forged);
  res.fail("authentic frame dropped by the relay",
           fin_r.relay.dropped_invalid + fin_r.relay.dropped_unsolicited);
  const std::uint64_t relay_accounted =
      fin_r.relay.forwarded + fin_r.relay.dropped_invalid +
      fin_r.relay.dropped_unsolicited + fin_r.malformed_frames +
      fin_r.demux_misses;
  if (relay_accounted != fin_r.frames_in) {
    res.fail("relay forwarded + dropped != frames it received");
  }
  if (fin_r.frames_in + relay_in_overflow != relay_tap_in) {
    res.fail("relay frames received != frames its socket delivered");
  }

  put_slice_medians(slices, !opts.trace, res);
  Metrics& e = res.end_to_end;
  put(e, "setup_s", quantile(setup_s, 0.5), "s");
  put(e, "peak_rss_mb", rss.growth_mib(), "MiB");

  if (opts.trace) {
    Metrics& m = res.layers;
    const double win_b = static_cast<double>(b1.t_ns - b0.t_ns) / 1e9;
    const double ops_b =
        static_cast<double>(b1.delivered_in_window - b0.delivered_in_window);
    counter_layers(b0, b1, ops_b, depth_max_b, m);
    put(m, "core.msgs_past_default_budget", static_cast<double>(past_budget),
        "count");
    put(m, "gen.busy_share",
        static_cast<double>(loader_cpu_b) / static_cast<double>(b1.t_ns - b0.t_ns),
        "ratio");
    SpanLog spans;
    span_layers(*w, loader, m, spans);
    put(m, "trace.overhead_goodput_ratio", safe_div(ops_b / win_b, goodput_a),
        "ratio");
    put(m, "trace.overhead_relay_fwd_ratio",
        safe_div(static_cast<double>(b1.relay_fwd - b0.relay_fwd) / win_b,
                 relay_fwd_a),
        "ratio");
    ReplayInputs in;
    in.config = spec.config;
    in.payload_size = spec.payload;
    in.relay_log = &w->log_r;
    in.upstream = w->port_i;
    in.downstream = w->port_v;
    in.assoc_ids = w->ids;
    replay_layers(in, m);
    const std::string path =
        opts.trace_dir + "/" + spec.name + "-spans.tsv";
    if (!spans.write(path)) res.fail("cannot write " + path);
  }
  return res;
}

}  // namespace

RunResult run_stream_c16(const RunOptions& opts) {
  PathSpec s;
  s.name = "stream-c16";
  s.config.mode = wire::Mode::kCumulative;
  s.config.batch_size = 16;
  s.config.reliable = true;
  // Short chains: 127 rounds each, so every association rekeys several
  // times per run and chain generation runs under load.
  s.config.chain_length = 256;
  s.config.rekey_threshold = 16;
  // Loopback socket-buffer drops make retransmissions routine here. The
  // timeout and retry budget are the ones the repo's other UDP loopback
  // benches use (bench_sharded, bench_relay_mpps): at the 200 ms default
  // the p99 jumps between the 0.6 s and 0.8 s retransmission plateaus
  // from run to run.
  s.config.rto_us = 50'000;
  s.config.max_retries = 200;
  s.assocs = 64;
  s.payload = 1024;
  s.window = 32;
  s.reorder_bound = s.window;
  return run_path(s, opts);
}

RunResult run_paced_base(const RunOptions& opts) {
  PathSpec s;
  s.name = "paced-base";
  s.config.mode = wire::Mode::kBase;
  s.config.reliable = true;
  // Chains long enough (4095 rounds, 32 s at 125 msg/s per association)
  // that no rekey lands inside a 20 s window: a rekey holds its
  // association's messages for a handshake round trip, which would put
  // rekey timing, not runtime hops, at this workload's p99.
  s.config.chain_length = 8192;
  s.config.rekey_threshold = 16;
  s.assocs = 16;
  s.payload = 64;
  s.open_loop = true;
  s.rate = 2000;
  s.reorder_bound = 64;
  return run_path(s, opts);
}

}  // namespace pathbench
