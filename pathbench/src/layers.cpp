// Layer costs from replays: the frames the relay received during the traced
// run go back through each layer's public functions, and the endpoint and
// crypto layers run standalone at the workload's profile.
#include <functional>

#include "bench.hpp"
#include "core/shard.hpp"
#include "core/signer.hpp"
#include "core/verifier.hpp"
#include "crypto/mac.hpp"
#include "crypto/random.hpp"
#include "hashchain/chain.hpp"
#include "merkle/merkle.hpp"
#include "wire/packets.hpp"

namespace pathbench {
namespace {

volatile std::uint64_t g_sink = 0;  // keeps replayed results observable

/// Median over three trials of ns per operation; each trial repeats `body`
/// (which performs `ops` operations) for at least 20 ms.
double ns_per_op(const std::function<void()>& body, double ops) {
  std::vector<double> trials;
  for (int t = 0; t < 3; ++t) {
    std::uint64_t calls = 0;
    const std::uint64_t t0 = now_ns();
    std::uint64_t t1 = t0;
    do {
      body();
      ++calls;
      t1 = now_ns();
    } while (t1 - t0 < 20'000'000);
    trials.push_back(static_cast<double>(t1 - t0) /
                     (static_cast<double>(calls) * ops));
  }
  return quantile(trials, 0.5);
}

void wire_layers(const TapLog& log, Metrics& out) {
  std::vector<crypto::ByteView> frames, s2s;
  for (std::size_t i = 0; i < log.captured.size(); ++i) {
    const crypto::ByteView f = log.captured_frame(i);
    frames.push_back(f);
    if (wire::peek_type(f) == wire::PacketType::kS2) s2s.push_back(f);
  }
  const auto n = static_cast<double>(frames.size());
  put(out, "wire.checksum_ns_per_frame",
      frames.empty() ? 0 : ns_per_op([&] {
        for (const auto f : frames) {
          g_sink = g_sink + wire::frame_checksum(
                                {f.data(), f.size() - wire::kFrameChecksumSize});
        }
      }, n),
      "ns");
  put(out, "wire.decode_ns_per_frame",
      frames.empty() ? 0 : ns_per_op([&] {
        for (const auto f : frames) {
          g_sink = g_sink + wire::decode(f).has_value();
        }
      }, n),
      "ns");
  put(out, "wire.parse_s2_ns_per_frame",
      s2s.empty() ? 0 : ns_per_op([&] {
        for (const auto f : s2s) {
          g_sink = g_sink + wire::parse_s2(f).has_value();
        }
      }, static_cast<double>(s2s.size())),
      "ns");
}

/// Replays the capture through a fresh relay shard, the same binding
/// ShardedNode::add_relay installs; returns ns and allocations per frame.
void relay_layers(const ReplayInputs& in, Metrics& out) {
  const TapLog& log = *in.relay_log;
  std::vector<double> ns;
  double allocs = 0;
  for (int trial = 0; trial < 3; ++trial) {
    core::NodeShard::Options o;
    o.config = in.config;
    core::NodeShard shard(
        0, o, {}, [](net::PeerAddr, crypto::Bytes) { return true; }, nullptr,
        [](net::PeerAddr, crypto::ByteView) { return true; });
    shard.add_relay_pipeline(in.upstream, in.downstream, 32, {}, nullptr,
                             in.assoc_ids);
    const std::uint64_t a0 = thread_allocs();
    alloc_counting(true);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < log.captured.size(); ++i) {
      shard.on_frame(log.captured[i].from, log.captured_frame(i), 0);
    }
    shard.flush_relays();
    const std::uint64_t t1 = now_ns();
    alloc_counting(false);
    const auto n = static_cast<double>(log.captured.size());
    if (n == 0) break;
    ns.push_back(static_cast<double>(t1 - t0) / n);
    allocs = static_cast<double>(thread_allocs() - a0) / n;
  }
  put(out, "relay.ns_per_frame", quantile(ns, 0.5), "ns");
  put(out, "relay.allocs_per_frame", allocs, "allocs");
}

/// Signer and verifier engines wired back to back at the workload's
/// profile; each side's calls are timed separately.
void endpoint_layers(const ReplayInputs& in, Metrics& out) {
  constexpr std::size_t kMessages = 2048;
  core::Config c = in.config;
  const std::size_t batch = c.effective_batch();
  c.chain_length = 2 * (kMessages / batch) + 8;
  c.rekey_threshold = 0;
  crypto::HmacDrbg rng{0x5eedu};
  auto sig = hashchain::HashChain::generate(
      c.algo, hashchain::ChainTagging::kRoleBound, rng, c.chain_length);
  auto ack = hashchain::HashChain::generate(
      c.algo, hashchain::ChainTagging::kRoleBound, rng, c.chain_length);
  std::vector<crypto::Bytes> to_v, to_s;
  core::SignerEngine::Callbacks scb;
  scb.send = [&](crypto::Bytes f) { to_v.push_back(std::move(f)); };
  core::SignerEngine signer{c, 1, sig, ack.anchor(), ack.length(),
                            std::move(scb)};
  core::VerifierEngine::Callbacks vcb;
  vcb.send = [&](crypto::Bytes f) { to_s.push_back(std::move(f)); };
  std::uint64_t delivered = 0;
  vcb.on_message = [&](std::uint32_t, std::uint16_t, crypto::ByteView) {
    ++delivered;
  };
  core::VerifierEngine verifier{c, 1, ack, sig.anchor(), sig.length(),
                                std::move(vcb), rng};
  std::uint64_t signer_ns = 0, verifier_ns = 0;
  const crypto::Bytes payload(in.payload_size, 0xa5);
  for (std::size_t sent = 0; sent < kMessages; sent += batch) {
    std::uint64_t t0 = now_ns();
    for (std::size_t m = 0; m < batch; ++m) signer.submit(payload, 0);
    signer_ns += now_ns() - t0;
    // Frames cross in decoded form; decoding is the wire layer's cost.
    while (!to_v.empty() || !to_s.empty()) {
      std::vector<crypto::Bytes> v = std::move(to_v), s = std::move(to_s);
      to_v.clear();
      to_s.clear();
      for (const auto& f : v) {
        const auto p = wire::decode(f);
        if (!p) continue;
        t0 = now_ns();
        if (const auto* s1 = std::get_if<wire::S1Packet>(&*p)) {
          verifier.on_s1(*s1);
        } else if (const auto* s2 = std::get_if<wire::S2Packet>(&*p)) {
          verifier.on_s2(*s2);
        }
        verifier_ns += now_ns() - t0;
      }
      for (const auto& f : s) {
        const auto p = wire::decode(f);
        if (!p) continue;
        t0 = now_ns();
        if (const auto* a1 = std::get_if<wire::A1Packet>(&*p)) {
          signer.on_a1(*a1, 0);
        } else if (const auto* a2 = std::get_if<wire::A2Packet>(&*p)) {
          signer.on_a2(*a2, 0);
        }
        signer_ns += now_ns() - t0;
      }
    }
  }
  const double n = delivered > 0 ? static_cast<double>(delivered) : 1;
  put(out, "core.signer_ns_per_msg", static_cast<double>(signer_ns) / n, "ns");
  put(out, "core.verifier_ns_per_msg", static_cast<double>(verifier_ns) / n,
      "ns");
}

void crypto_layers(const ReplayInputs& in, Metrics& out) {
  const core::Config& c = in.config;
  const crypto::Bytes key(c.digest_size(), 0x3c);
  const crypto::Bytes payload(in.payload_size, 0x5a);
  const crypto::MacContext mac(c.mac_kind, c.algo, key);
  put(out, "crypto.mac_ns_per_msg",
      ns_per_op([&] { g_sink = g_sink + mac.mac(payload).view()[0]; }, 1),
      "ns");

  crypto::HmacDrbg rng{0xc4a1u};
  put(out, "hashchain.generate_us_per_chain",
      ns_per_op([&] {
        const auto chain = hashchain::HashChain::generate(
            c.algo, hashchain::ChainTagging::kRoleBound, rng, c.chain_length);
        g_sink = g_sink + chain.anchor().view()[0];
      }, 1) / 1e3,
      "us");

  // ALPHA-M S2 check at n = 16: rebuild the keyed root from one leaf.
  std::vector<crypto::Bytes> msgs(16, crypto::Bytes(in.payload_size));
  for (std::size_t i = 0; i < msgs.size(); ++i) msgs[i][0] = static_cast<std::uint8_t>(i);
  const merkle::MerkleTree tree(c.algo, msgs);
  const crypto::Digest root = tree.keyed_root(key);
  std::vector<merkle::AuthPath> paths;
  std::vector<crypto::Digest> leaves;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    paths.push_back(tree.auth_path(i));
    leaves.push_back(crypto::hash(c.algo, msgs[i]));
  }
  put(out, "merkle.verify_ns_per_s2",
      ns_per_op([&] {
        for (std::size_t i = 0; i < msgs.size(); ++i) {
          g_sink = g_sink + merkle::MerkleTree::verify_keyed(
                                c.algo, key, leaves[i], paths[i], root);
        }
      }, static_cast<double>(msgs.size())),
      "ns");
}

}  // namespace

void replay_layers(const ReplayInputs& in, Metrics& out) {
  wire_layers(*in.relay_log, out);
  relay_layers(in, out);
  endpoint_layers(in, out);
  crypto_layers(in, out);
}

}  // namespace pathbench
