// relay-mix: one relay ShardedNode (2 workers) between two benchmark
// sockets, fed authentic pre-generated ALPHA-C / ALPHA-M rounds for 4096
// associations plus one forged S2 in every ten, by one generator thread.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <malloc.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/sharded_node.hpp"
#include "core/signer.hpp"
#include "core/verifier.hpp"
#include "spans.hpp"

namespace pathbench {
namespace {

using core::ShardedNode;

constexpr std::size_t kAssocs = 4096;
constexpr std::size_t kMsgs = 16;             // n, S2s per round
constexpr std::size_t kPerRound = 2 + kMsgs;  // S1, A1, S2 x n
constexpr std::size_t kPayload = 32;
constexpr std::size_t kForgedEvery = 10;      // one S2 in ten is forged
constexpr std::size_t kWindow = 128;          // authentic frames in flight
constexpr std::size_t kBatch = 32;

/// One benchmark-side UDP socket on 127.0.0.1 with batched I/O.
class GenSocket {
 public:
  GenSocket() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) throw std::runtime_error("socket");
    const int buf = 4 << 20;  // sinks must never drop what the relay sends
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
      ::close(fd_);
      throw std::runtime_error("bind");
    }
    socklen_t len = sizeof(a);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&a), &len);
    port_ = ntohs(a.sin_port);
    rx_.resize(kBatch * kSlot);
  }
  ~GenSocket() { ::close(fd_); }
  GenSocket(const GenSocket&) = delete;
  GenSocket& operator=(const GenSocket&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  int fd() const noexcept { return fd_; }

  /// Sends up to kBatch frames to `dest`; returns how many were accepted.
  std::size_t send(std::uint16_t dest, const crypto::ByteView* frames,
                   std::size_t n) {
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    to.sin_port = htons(dest);
    mmsghdr msgs[kBatch] = {};
    iovec iov[kBatch];
    for (std::size_t i = 0; i < n; ++i) {
      iov[i] = {const_cast<std::uint8_t*>(frames[i].data()), frames[i].size()};
      msgs[i].msg_hdr.msg_name = &to;
      msgs[i].msg_hdr.msg_namelen = sizeof(to);
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int r = ::sendmmsg(fd_, msgs, static_cast<unsigned>(n), 0);
    return r > 0 ? static_cast<std::size_t>(r) : 0;
  }

  /// Drains up to kBatch queued datagrams without waiting.
  std::size_t recv(crypto::ByteView* out) {
    mmsghdr msgs[kBatch] = {};
    iovec iov[kBatch];
    for (std::size_t i = 0; i < kBatch; ++i) {
      iov[i] = {rx_.data() + i * kSlot, kSlot};
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int r = ::recvmmsg(fd_, msgs, kBatch, MSG_DONTWAIT, nullptr);
    if (r <= 0) return 0;
    for (int i = 0; i < r; ++i) {
      out[i] = {rx_.data() + static_cast<std::size_t>(i) * kSlot,
                msgs[i].msg_len};
    }
    return static_cast<std::size_t>(r);
  }

 private:
  static constexpr std::size_t kSlot = 2048;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::uint8_t> rx_;
};

core::Config mix_config(bool merkle, std::size_t rounds) {
  core::Config c;
  c.mode = merkle ? wire::Mode::kMerkle : wire::Mode::kCumulative;
  c.batch_size = kMsgs;
  c.chain_length = 2 * rounds + 4;
  return c;
}

/// Frames back to back in one recycled buffer.
struct FrameList {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> off{0};

  void clear() {
    bytes.clear();
    off.resize(1);
  }
  void add(const crypto::Bytes& f) {
    bytes.insert(bytes.end(), f.begin(), f.end());
    off.push_back(static_cast<std::uint32_t>(bytes.size()));
  }
  crypto::ByteView frame(std::size_t i) const {
    return {bytes.data() + off[i], off[i + 1] - off[i]};
  }
};

/// Engine-authentic traffic for every association (signer and verifier
/// engines run back to back, as in bench_relay_mpps; odd associations run
/// ALPHA-M). Handshakes and the first rounds are generated up front; a
/// producer thread generates each later round while the generator sends
/// the one before, into a ring of kSlots round buffers, so memory stays
/// flat however long the run.
class Traffic {
 public:
  static constexpr std::size_t kSlots = 3;

  Traffic(const RunOptions& opts, std::size_t rounds)
      : rounds_(rounds), ids_(make_assoc_ids(opts.seed, kAssocs)) {
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      index_[ids_[i]] = static_cast<std::uint32_t>(i);
    }
    hs_.resize(kAssocs);
    for (auto& slot : slots_) slot.resize(kAssocs);
    for (std::size_t a = 0; a < kAssocs; ++a) {
      src_.push_back(std::make_unique<Source>(
          mix_config(a % 2 == 1, rounds), ids_[a],
          mix64(opts.seed ^ (a << 8)), hs_[a]));
    }
    produce(0);
    produce(1);
    // Size the third slot now, so the producer's later rounds reuse its
    // memory and the relay's memory growth does not include it.
    slots_[2] = slots_[1];
  }
  ~Traffic() {
    stop_.store(true);
    if (producer_.joinable()) producer_.join();
  }
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  std::size_t rounds() const noexcept { return rounds_; }
  const std::vector<std::uint32_t>& ids() const noexcept { return ids_; }
  /// Association index of `id`, or -1.
  long index(std::uint32_t id) const {
    const auto it = index_.find(id);
    return it == index_.end() ? -1 : static_cast<long>(it->second);
  }
  /// j = 0: HS1, 1: HS2.
  crypto::ByteView handshake(std::size_t a, std::size_t j) const {
    return hs_[a].frame(j);
  }
  /// Rounds [0, ready()) are generated.
  std::size_t ready() const noexcept {
    return ready_.load(std::memory_order_acquire);
  }
  /// Frame j (0 S1, 1 A1, 2 + m S2) of `round`; valid for round < ready()
  /// until the generator moves two rounds past it.
  crypto::ByteView frame(std::size_t a, std::size_t round,
                         std::size_t j) const {
    return slots_[round % kSlots][a].frame(j);
  }
  /// The generator has started sending `round`: every frame of round - 2
  /// has crossed the relay, so its slot may be refilled.
  void consumer_at(std::size_t round) {
    consumer_.store(round, std::memory_order_release);
  }
  void start_producer() {
    producer_ = std::thread([this] {
      // Lowest priority: the producer has a round of slack, and its bursts
      // must not take CPU from the relay or the generator it feeds.
      ::setpriority(PRIO_PROCESS, static_cast<id_t>(self_tid()), 19);
      producer_tid_.store(self_tid());
      while (!stop_.load(std::memory_order_relaxed)) {
        const std::size_t p = ready_.load(std::memory_order_relaxed);
        if (p < rounds_ && p <= consumer_.load(std::memory_order_acquire) + 1) {
          produce(p);
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  long producer_tid() const noexcept { return producer_tid_.load(); }

 private:
  struct Source {
    Source(const core::Config& config, std::uint32_t assoc,
           std::uint64_t seed, FrameList& hs_out)
        : rng(seed), bytes(seed) {
      // Checkpointed chains: 4096 fully stored pairs would dominate the
      // process's resident memory, which peak_rss_mb charges to the relay.
      auto sig = hashchain::HashChain::generate(
          config.algo, hashchain::ChainTagging::kRoleBound, rng,
          config.chain_length, hashchain::ChainStorage::kCheckpoint);
      auto ack = hashchain::HashChain::generate(
          config.algo, hashchain::ChainTagging::kRoleBound, rng,
          config.chain_length, hashchain::ChainStorage::kCheckpoint);
      wire::HandshakePacket hs;
      hs.hdr = {assoc, 0};
      hs.algo = config.algo;
      hs.chain_length = static_cast<std::uint32_t>(config.chain_length);
      hs.sig_anchor = sig.anchor();
      hs.sig_anchor_index = static_cast<std::uint32_t>(sig.length());
      hs.ack_anchor = ack.anchor();
      hs.ack_anchor_index = static_cast<std::uint32_t>(ack.length());
      hs_out.add(hs.encode());
      hs.is_response = true;
      hs_out.add(hs.encode());
      core::SignerEngine::Callbacks scb;
      scb.send = [this](crypto::Bytes f) { emitted.push_back(std::move(f)); };
      signer = std::make_unique<core::SignerEngine>(
          config, assoc, sig, ack.anchor(), ack.length(), std::move(scb));
      core::VerifierEngine::Callbacks vcb;
      vcb.send = [this](crypto::Bytes f) { emitted.push_back(std::move(f)); };
      verifier = std::make_unique<core::VerifierEngine>(
          config, assoc, ack, sig.anchor(), sig.length(), std::move(vcb), rng);
    }
    Source(const Source&) = delete;
    Source& operator=(const Source&) = delete;

    crypto::HmacDrbg rng;
    Rng bytes;
    std::vector<crypto::Bytes> emitted;
    std::unique_ptr<core::SignerEngine> signer;
    std::unique_ptr<core::VerifierEngine> verifier;
  };

  void produce(std::size_t round) {
    for (std::size_t a = 0; a < kAssocs; ++a) {
      Source& s = *src_[a];
      FrameList& out = slots_[round % kSlots][a];
      out.clear();
      for (std::size_t m = 0; m < kMsgs; ++m) {
        crypto::Bytes p(kPayload);
        for (auto& b : p) b = static_cast<std::uint8_t>(s.bytes.next());
        s.signer->submit(std::move(p), 0);
      }
      if (s.emitted.size() != 1) throw std::logic_error("generation: no S1");
      const crypto::Bytes s1 = std::move(s.emitted[0]);
      s.emitted.clear();
      s.verifier->on_s1(std::get<wire::S1Packet>(*wire::decode(s1)));
      const crypto::Bytes a1 = std::move(s.emitted.at(0));
      s.emitted.clear();
      s.signer->on_a1(std::get<wire::A1Packet>(*wire::decode(a1)), 0);
      if (s.emitted.size() != kMsgs) throw std::logic_error("generation: S2");
      out.add(s1);
      out.add(a1);
      for (const auto& f : s.emitted) out.add(f);
      s.emitted.clear();
    }
    ready_.store(round + 1, std::memory_order_release);
  }

  std::size_t rounds_;
  std::vector<std::uint32_t> ids_;
  std::unordered_map<std::uint32_t, std::uint32_t> index_;
  std::vector<FrameList> hs_;
  std::vector<FrameList> slots_[kSlots];
  std::vector<std::unique_ptr<Source>> src_;
  std::atomic<std::size_t> ready_{0};
  std::atomic<std::size_t> consumer_{0};
  std::atomic<bool> stop_{false};
  std::atomic<long> producer_tid_{0};
  std::thread producer_;  // last: joined before the members it uses go
};

/// One scheduled frame.
struct Item {
  std::uint32_t a = 0;        // association index
  std::uint32_t round = 0;
  std::uint8_t j = 0;         // 0 S1, 1 A1, 2 + m S2
  bool forged = false;
};

/// Round-robin schedule: per round, every association's S1, then every
/// A1, then the S2s message-wise across associations, with a forged twin
/// ahead of one S2 in every block of nine (the seed picks which).
class Schedule {
 public:
  Schedule(std::vector<std::uint32_t> order, std::size_t rounds,
           std::uint64_t seed)
      : order_(std::move(order)), rounds_(rounds), seed_(seed) {}

  bool done() const noexcept { return round_ >= rounds_; }
  Item peek() const {
    Item it;
    it.a = order_[pos_];
    it.round = static_cast<std::uint32_t>(round_);
    it.j = static_cast<std::uint8_t>(phase_);
    it.forged = twin_pending();
    return it;
  }
  void advance() {
    if (twin_pending()) {
      twin_done_ = true;
      return;
    }
    if (phase_ >= 2) ++s2_count_;
    twin_done_ = false;
    if (++pos_ < order_.size()) return;
    pos_ = 0;
    if (++phase_ < kPerRound) return;
    phase_ = 0;
    ++round_;
  }

 private:
  bool twin_pending() const noexcept {
    if (phase_ < 2 || twin_done_) return false;
    const std::size_t per = kForgedEvery - 1;
    return s2_count_ % per == mix64(seed_ ^ (s2_count_ / per)) % per;
  }

  std::vector<std::uint32_t> order_;
  std::size_t rounds_;
  std::uint64_t seed_;
  std::size_t round_ = 0, phase_ = 0, pos_ = 0;
  std::uint64_t s2_count_ = 0;
  bool twin_done_ = false;
};

/// Per-association progress of the current round, bit j = frame j of
/// the round received at its sink.
struct Progress {
  std::uint32_t round = 0;
  std::uint32_t mask = 0;
  std::uint64_t sent_ns[kPerRound] = {};
};

constexpr std::uint32_t kFullRound = (1u << kPerRound) - 1;

class Generator {
 public:
  Generator(Traffic& tr, GenSocket& up, GenSocket& down,
            std::uint16_t relay_port, const RunOptions& opts)
      : tr_(tr), up_(up), down_(down), relay_port_(relay_port), opts_(opts),
        progress_(kAssocs),
        sched_(order(kAssocs, opts.seed), tr.rounds(), opts.seed),
        inject_forged_(opts.inject == "forged"),
        a1_seen_(kAssocs, 0),
        s1_seen_(kAssocs, 0) {}

  // Counters, readable between drive() calls.
  std::uint64_t sent_auth = 0, sent_forged = 0, recv_auth = 0;
  std::uint64_t fwd_in_window = 0, msgs_in_window = 0;
  std::uint64_t bad_frame = 0, duplicate = 0, wrong_sink = 0;
  std::uint64_t forged_forwarded = 0;
  bool window_open = false, record = false;
  int slice = -1;  // latency samples go to this slice
  std::vector<LatencyHist> latency;  // per slice
  std::vector<double> late_us, init_us, resp_us;
  // Recorded send / receive times per frame key (traced phase).
  std::vector<std::pair<KeyId, std::uint64_t>> sends, recvs;

  std::uint64_t in_flight() const noexcept { return sent_auth - recv_auth; }
  bool exhausted() const noexcept { return sched_.done(); }

  /// Sends every HS1 (upstream), then every HS2 (downstream), each once
  /// the previous direction has crossed. Returns false on timeout.
  bool handshake(std::uint64_t deadline_ns) {
    for (std::size_t j = 0; j < 2; ++j) {
      GenSocket& from = j == 0 ? up_ : down_;
      GenSocket& sink = j == 0 ? down_ : up_;
      std::size_t next = 0, got = 0;
      while (got < kAssocs) {
        if (now_ns() > deadline_ns) return false;
        crypto::ByteView batch[kBatch];
        std::size_t n = 0;
        while (n < kBatch && next + n < kAssocs && next + n - got < kWindow) {
          batch[n] = tr_.handshake(next + n, j);
          ++n;
        }
        if (n > 0) next += from.send(relay_port_, batch, n);
        crypto::ByteView rx[kBatch];
        const std::size_t r = sink.recv(rx);
        for (std::size_t i = 0; i < r; ++i) {
          const FrameKey k = frame_key(rx[i]);
          const long a = tr_.index(k.assoc);
          if (a < 0 || !equal(rx[i], tr_.handshake(static_cast<std::size_t>(a), j))) {
            ++bad_frame;
          }
          ++got;
        }
        if (n == 0 && r == 0) wait(sink, 1);
      }
    }
    return true;
  }

  /// Runs the closed loop until `until_ns` (or the schedule ends).
  void drive(std::uint64_t until_ns) {
    if (inject_forged_) send_forged_past_relay();
    while (now_ns() < until_ns && !sched_.done()) {
      const std::size_t sent = send_some();
      const std::size_t got = receive(down_) + receive(up_);
      if (sent == 0 && got == 0) {
        wait(down_, 1);
      }
    }
  }

  /// Receives until nothing authentic is in flight (or the deadline).
  void drain(std::uint64_t deadline_ns) {
    while (in_flight() > 0 && now_ns() < deadline_ns) {
      if (receive(down_) + receive(up_) == 0) wait(down_, 1);
    }
  }

 private:
  static std::vector<std::uint32_t> order(std::size_t n, std::uint64_t seed) {
    std::vector<std::uint32_t> o(n);
    for (std::size_t i = 0; i < n; ++i) o[i] = static_cast<std::uint32_t>(i);
    Rng rng(mix64(seed ^ 0x0d3e));
    for (std::size_t i = n; i > 1; --i) std::swap(o[i - 1], o[rng.below(i)]);
    return o;
  }
  /// Self-test: one forged S2 goes from the upstream socket straight to
  /// the downstream sink, as if the relay had forwarded it. The sink's byte
  /// comparison and the relay's forwarded count must both report it.
  void send_forged_past_relay() {
    inject_forged_ = false;
    std::vector<std::uint8_t> f;
    forge_s2(tr_.frame(0, 0, 2), 0, f);
    const crypto::ByteView v{f.data(), f.size()};
    if (up_.send(down_.port(), &v, 1) != 1) ++bad_frame;
  }
  static bool equal(crypto::ByteView a, crypto::ByteView b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
  }
  void wait(GenSocket& s, int ms) {
    pollfd p[2] = {{s.fd(), POLLIN, 0},
                   {(&s == &down_ ? up_ : down_).fd(), POLLIN, 0}};
    ::poll(p, 2, ms);
  }

  /// The prerequisite of `it` has crossed the relay.
  bool ready(const Item& it) const {
    if (it.round >= tr_.ready()) return false;
    const Progress& p = progress_[it.a];
    if (it.j == 0) {
      return it.round == 0 || (p.round + 1 == it.round && p.mask == kFullRound);
    }
    if (p.round != it.round) return false;
    return it.j == 1 ? (p.mask & 1u) != 0 : (p.mask & 2u) != 0;
  }

  std::size_t send_some() {
    // Send only once a full batch fits the window: refilling one or two
    // slots at a time would cost a syscall per frame and make the
    // generator, not the relay, the bottleneck.
    if (in_flight() + kBatch > kWindow || sched_.done()) return 0;
    crypto::ByteView batch[kBatch];
    Item items[kBatch];
    std::size_t n = 0;
    GenSocket* from = nullptr;
    std::size_t scratch_used = 0;
    std::uint64_t auth = 0;
    while (n < kBatch && !sched_.done() && in_flight() + auth < kWindow) {
      const Item it = sched_.peek();
      if (it.round != consumer_round_) {
        consumer_round_ = it.round;
        tr_.consumer_at(it.round);
      }
      GenSocket* src = it.j == 1 ? &down_ : &up_;
      if ((from != nullptr && src != from) || !ready(it)) break;
      from = src;
      const crypto::ByteView f = tr_.frame(it.a, it.round, it.j);
      if (it.forged) {
        forge_s2(f, mix64(opts_.seed ^ sent_forged ^ scratch_used) % kPayload,
                 scratch_[scratch_used]);
        batch[n] = {scratch_[scratch_used].data(),
                    scratch_[scratch_used].size()};
        ++scratch_used;
      } else {
        batch[n] = f;
        ++auth;
      }
      items[n] = it;
      ++n;
      sched_.advance();
    }
    if (n == 0) return 0;
    // A frame the kernel refuses is never resent and fails the run: with
    // a 4 MiB send buffer on loopback, a refusal means a broken run.
    const std::size_t ok = from->send(relay_port_, batch, n);
    const std::uint64_t t = now_ns();
    if (ok < n) bad_frame += n - ok;
    for (std::size_t i = 0; i < ok; ++i) {
      const Item& it = items[i];
      if (it.forged) {
        ++sent_forged;
        continue;
      }
      ++sent_auth;
      Progress& p = progress_[it.a];
      if (it.j == 0) {
        p.round = it.round;
        p.mask = 0;
      }
      if (record) {
        if (it.j == 2) {
          // Initiator side of the synthetic endpoints: A1 in -> first S2 out.
          init_us.push_back(static_cast<double>(t - a1_seen_[it.a]) / 1e3);
        }
        if (it.j == 1) {
          resp_us.push_back(static_cast<double>(t - s1_seen_[it.a]) / 1e3);
        }
        sends.emplace_back(key(it), t);
        late_us.push_back(static_cast<double>(t - last_recv_ns_) / 1e3);
      }
      p.sent_ns[it.j] = t;
    }
    return ok;
  }

  KeyId key(const Item& it) const {
    const std::uint8_t type =
        it.j == 0 ? 1 : it.j == 1 ? 2 : 3;  // wire::PacketType S1/A1/S2
    return {tr_.ids()[it.a], it.round + 1,
            static_cast<std::uint16_t>(it.j >= 2 ? it.j - 2 : 0), type};
  }

  /// Drains `sink` (all queued frames, batch by batch).
  std::size_t receive(GenSocket& sink) {
    std::size_t total = 0;
    while (const std::size_t r = receive_batch(sink)) total += r;
    return total;
  }

  std::size_t receive_batch(GenSocket& sink) {
    crypto::ByteView rx[kBatch];
    const std::size_t r = sink.recv(rx);
    if (r == 0) return 0;
    const std::uint64_t t = now_ns();
    last_recv_ns_ = t;
    for (std::size_t i = 0; i < r; ++i) {
      const FrameKey k = frame_key(rx[i]);
      const long idx = tr_.index(k.assoc);
      // Only the current and the previous round can still be in flight.
      if (idx < 0 || k.seq == 0 || k.seq > tr_.ready() ||
          k.seq + 2 < tr_.ready() || k.type < 1 || k.type > 3) {
        ++bad_frame;
        continue;
      }
      const auto a = static_cast<std::uint32_t>(idx);
      const std::uint32_t round = k.seq - 1;
      const std::size_t j = k.type == 1 ? 0 : k.type == 2 ? 1 : 2 + k.msg_index;
      if (j >= kPerRound || !equal(rx[i], tr_.frame(a, round, j))) {
        ++forged_forwarded;  // not byte-identical to any authentic frame
        continue;
      }
      if ((j == 1) != (&sink == &up_)) ++wrong_sink;
      Progress& p = progress_[a];
      if (p.round != round || (p.mask & (1u << j)) != 0) {
        ++duplicate;
        continue;
      }
      p.mask |= 1u << j;
      ++recv_auth;
      if (j == 0) s1_seen_[a] = t;
      if (j == 1) a1_seen_[a] = t;
      if (window_open) {
        ++fwd_in_window;
        if (j >= 2) ++msgs_in_window;
        if (slice >= 0) {
          latency[static_cast<std::size_t>(slice)].add(t - p.sent_ns[j]);
        }
      }
      if (record) {
        recvs.emplace_back(KeyId{k.assoc, k.seq, k.msg_index, k.type}, t);
      }
    }
    return r;
  }

  Traffic& tr_;
  GenSocket& up_;
  GenSocket& down_;
  std::uint16_t relay_port_;
  const RunOptions& opts_;
  std::vector<Progress> progress_;
  Schedule sched_;
  bool inject_forged_;
  std::vector<std::uint8_t> scratch_[kBatch];
  std::vector<std::uint64_t> a1_seen_, s1_seen_;
  std::uint64_t last_recv_ns_ = 0;
  std::uint32_t consumer_round_ = 0;
};

}  // namespace

RunResult run_relay_mix(const RunOptions& opts) {
  RunResult res;
  const long tid = self_tid();
  // Enough rounds for 400k forwarded frames/s, over twice what the relay
  // reaches on a 4-core host; a faster relay exhausts the schedule, which
  // fails the run rather than measuring a starved generator.
  const auto rounds = static_cast<std::size_t>(
      400'000.0 * (opts.seconds + 3.0) / (kAssocs * (kPerRound + 2.0))) + 2;
  const std::uint64_t g0 = now_ns();
  Traffic traffic(opts, rounds);
  std::printf("pre-generation: %.3f s (%zu associations, %zu rounds each)\n",
              static_cast<double>(now_ns() - g0) / 1e9, kAssocs, rounds);

  GenSocket up, down;
  // One set-up: a fresh relay, then every handshake through it. Returns
  // the wall time in seconds, or a negative value on timeout.
  const auto set_up = [&](int rep, TapLog& tap,
                          std::unique_ptr<ShardedNode>& node,
                          std::unique_ptr<Generator>& g) -> double {
    const std::uint64_t t0 = now_ns();
    ShardedNode::Options o;
    o.shard.config = mix_config(false, rounds);
    o.shard.seed = mix64(opts.seed + static_cast<std::uint64_t>(rep));
    o.workers = 2;
    auto udp = std::make_unique<net::UdpTransport>();
    const std::uint16_t relay_port = udp->port();
    node = std::make_unique<ShardedNode>(
        std::make_unique<TapTransport>(std::move(udp), tap), o);
    node->add_relay(up.port(), down.port(), traffic.ids());
    node->poll(0);
    g = std::make_unique<Generator>(traffic, up, down, relay_port, opts);
    if (!g->handshake(t0 + 30'000'000'000ull)) return -1;
    return static_cast<double>(now_ns() - t0) / 1e9;
  };

  // The measured relay is the first set-up; the other set-ups are timed
  // after the run, once peak_rss_mb has been read, so it reflects one relay.
  std::vector<double> setup_s;
  auto log = std::make_unique<TapLog>();
  if (opts.trace) {
    log->capture_cap_bytes = 24u << 20;
    log->capture_bytes.reserve(log->capture_cap_bytes);
    log->capture.store(true);
  }
  std::unique_ptr<ShardedNode> relay;
  std::unique_ptr<Generator> gen;
  RssGrowth rss;
  const double first = set_up(0, *log, relay, gen);
  rss.sample();
  if (first < 0) {
    res.attempted += kAssocs;
    res.fail("associations not established within 30 s", kAssocs);
    return res;
  }
  setup_s.push_back(first);
  res.attempted += kAssocs;
  if (gen->bad_frame != 0) res.fail("handshake frame altered", gen->bad_frame);
  traffic.start_producer();
  while (traffic.producer_tid() == 0) std::this_thread::yield();
  const std::vector<long> bench_tids = {tid, traffic.producer_tid()};

  const auto secs_ns = [](double s) {
    return static_cast<std::uint64_t>(s * 1e9);
  };
  gen->drive(now_ns() + secs_ns(1.0));

  const auto snap = [&] { return relay->snapshot(); };
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const int kSlices = slice_count(untraced_s);
  // Untraced phase, in slices.
  gen->latency.resize(static_cast<std::size_t>(kSlices));
  std::vector<Slice> slices(static_cast<std::size_t>(kSlices));
  gen->window_open = true;
  const std::uint64_t t_a0 = now_ns();
  std::uint64_t t = t_a0, cpu = runtime_cpu_ns(bench_tids);
  std::uint64_t fwd = gen->fwd_in_window, msgs = gen->msgs_in_window;
  for (int k = 0; k < kSlices; ++k) {
    gen->slice = k;
    gen->drive(t_a0 + secs_ns(untraced_s * (k + 1) / kSlices));
    const std::uint64_t t1 = now_ns(), cpu1 = runtime_cpu_ns(bench_tids);
    Slice& sl = slices[static_cast<std::size_t>(k)];
    sl.seconds = static_cast<double>(t1 - t) / 1e9;
    sl.messages = static_cast<double>(gen->msgs_in_window - msgs);
    sl.forwarded = static_cast<double>(gen->fwd_in_window - fwd);
    sl.cpu_us = static_cast<double>(cpu1 - cpu) / 1e3;
    sl.cpu_ops = sl.forwarded;
    sl.latency = gen->latency[static_cast<std::size_t>(k)];
    t = t1;
    cpu = cpu1;
    fwd = gen->fwd_in_window;
    msgs = gen->msgs_in_window;
    rss.sample();
  }
  gen->slice = -1;
  gen->window_open = false;
  if (gen->exhausted()) res.fail("pre-generated traffic ran out");
  const double win_a = static_cast<double>(t - t_a0) / 1e9;
  double fwd_a = 0, msgs_a = 0;
  for (const Slice& sl : slices) {
    fwd_a += sl.forwarded;
    msgs_a += sl.messages;
  }
  const double fwd_pps_a = fwd_a / win_a;
  msgs_a /= win_a;

  double fwd_pps_b = 0, msgs_b = 0, win_b = 0;
  core::NodeSnapshot s_b0, s_b1;
  TapCounters tap_b0, tap_b1;
  std::uint64_t depth_max = 0, gen_cpu_b = 0;
  if (opts.trace) {
    log->event_cap = 400'000;
    log->events.reserve(log->event_cap);
    s_b0 = snap();
    tap_b0 = TapCounters::read(*log);
    const std::uint64_t fwd0 = gen->fwd_in_window, msg0 = gen->msgs_in_window;
    const std::uint64_t t0 = now_ns();
    gen_cpu_b = thread_cpu_ns(tid);
    log->record.store(true);
    gen->record = true;
    gen->window_open = true;
    const std::uint64_t until = t0 + secs_ns(opts.seconds - untraced_s);
    while (now_ns() < until && !gen->exhausted()) {
      gen->drive(std::min(until, now_ns() + 1'000'000));
      for (const auto& s : relay->shard_stats()) {
        depth_max = std::max<std::uint64_t>(depth_max, s.in_depth);
      }
    }
    gen->window_open = false;
    gen->record = false;
    log->record.store(false);
    win_b = static_cast<double>(now_ns() - t0) / 1e9;
    gen_cpu_b = thread_cpu_ns(tid) - gen_cpu_b;
    fwd_pps_b = static_cast<double>(gen->fwd_in_window - fwd0) / win_b;
    msgs_b = static_cast<double>(gen->msgs_in_window - msg0);
    tap_b1 = TapCounters::read(*log);
    s_b1 = snap();
    rss.sample();
  }

  gen->drain(now_ns() + secs_ns(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const core::NodeSnapshot fin = snap();
  std::uint64_t in_overflow = 0;
  for (const auto& s : relay->shard_stats()) in_overflow += s.in_overflows;
  rss.sample();
  std::printf("memory: VmRSS %.1f MiB before the relay, peak growth %.1f "
              "MiB, ru_maxrss %.1f MiB\n",
              rss.baseline_mib(), rss.growth_mib(), peak_rss_mib());
  relay.reset();  // joins the relay's threads
  ::malloc_trim(0);
  for (int rep = 1; rep < kSetupReps; ++rep) {
    TapLog tap;
    std::unique_ptr<ShardedNode> node;
    std::unique_ptr<Generator> g;
    const double s = set_up(rep, tap, node, g);
    if (s < 0 || g->bad_frame != 0) {
      res.fail("set-up repetition failed");
      break;
    }
    setup_s.push_back(s);
  }

  const Generator& g = *gen;
  res.attempted += g.sent_auth + g.sent_forged;
  res.fail("authentic frame not forwarded", g.in_flight());
  res.fail("forged or altered frame forwarded", g.forged_forwarded);
  res.fail("frame refused by the sending socket or unknown at a sink",
           g.bad_frame);
  res.fail("frame forwarded twice", g.duplicate);
  res.fail("frame forwarded toward the wrong endpoint", g.wrong_sink);
  const std::uint64_t hs_frames = 2 * kAssocs;
  if (fin.relay.forwarded != g.recv_auth + g.forged_forwarded + hs_frames) {
    res.fail("relay forwarded count != frames received at the sinks");
  }
  if (fin.relay.dropped_invalid != g.sent_forged) {
    res.fail("relay drops != forged frames sent");
  }
  if (fin.relay.forwarded + fin.relay.dropped_invalid +
          fin.relay.dropped_unsolicited + fin.malformed_frames +
          fin.demux_misses !=
      fin.frames_in) {
    res.fail("relay forwarded + dropped != frames it received");
  }
  if (fin.frames_in + in_overflow != log->recv_frames.load()) {
    res.fail("relay frames received != frames its socket delivered");
  }

  put_slice_medians(slices, !opts.trace, res);
  Metrics& e = res.end_to_end;
  put(e, "setup_s", quantile(setup_s, 0.5), "s");
  put(e, "peak_rss_mb", rss.growth_mib(), "MiB");

  if (opts.trace) {
    Metrics& m = res.layers;
    const double ops = msgs_b;
      put_net_layers(tap_b1 - tap_b0, ops, m);

    const core::RelayStats& ra = s_b0.relay;
    const core::RelayStats& rb = s_b1.relay;
    const double dropped = static_cast<double>(
        (rb.dropped_invalid - ra.dropped_invalid) +
        (rb.dropped_unsolicited - ra.dropped_unsolicited));
    // Share of the S2s the relay saw that it dropped: forged ones only.
    const double s2_seen = dropped + ops;
    put(m, "core.retransmits_per_msg",
        safe_div(static_cast<double>(s_b1.retransmits - s_b0.retransmits), ops),
        "count/msg");
    put(m, "core.duplicate_frames_per_msg",
        safe_div(static_cast<double>(g.duplicate), ops), "count/msg");
    put(m, "core.ring_overflows",
        static_cast<double>(s_b1.ring_overflows - s_b0.ring_overflows),
        "count");
    put(m, "core.ring_in_depth_max", static_cast<double>(depth_max), "frames");
    put(m, "core.timer_fires_per_msg",
        safe_div(static_cast<double>(s_b1.timer_fires - s_b0.timer_fires), ops),
        "count/msg");
    put(m, "core.rekeys",
        static_cast<double>(s_b1.rekeys_started - s_b0.rekeys_started),
        "count");
    put(m, "core.relay_forged_drop_share", safe_div(dropped, s2_seen), "ratio");
    put(m, "crypto.hashes_per_msg",
        safe_div(static_cast<double>(rb.hashes.total() - ra.hashes.total()), ops),
        "hashes/msg");

    // Spans: generator send -> relay in -> relay out -> sink receive. The
    // message span's only layer-owned child is the relay's residence; the
    // rest (its self time) is loopback and the generator's own I/O.
    const FirstSeen r_in = first_seen(log->events, Dir::kIn);
    const FirstSeen r_out = first_seen(log->events, Dir::kOut);
    FirstSeen g_in;
    for (const auto& [k, t] : g.recvs) g_in.emplace(k, t);
    SpanLog spans;
    std::vector<double> relay_us, loop_us, self_us;
    std::uint64_t msg_id = 0;
    for (const auto& [k, t_send] : g.sends) {
      const std::uint64_t ri = at(r_in, k), ro = at(r_out, k), gi = at(g_in, k);
      if (ri == 0 || ro < ri || gi < ro) continue;
      ++msg_id;
      spans.add({"message", msg_id, k.assoc, k.seq, k.type, k.msg_index,
                 t_send, gi});
      spans.add({"loopback", msg_id, k.assoc, k.seq, k.type, k.msg_index,
                 t_send, ri});
      spans.add({"relay", msg_id, k.assoc, k.seq, k.type, k.msg_index, ri,
                 ro});
      spans.add({"loopback", msg_id, k.assoc, k.seq, k.type, k.msg_index, ro,
                 gi});
      relay_us.push_back(static_cast<double>(ro - ri) / 1e3);
      if (ri >= t_send) loop_us.push_back(static_cast<double>(ri - t_send) / 1e3);
      loop_us.push_back(static_cast<double>(gi - ro) / 1e3);
      self_us.push_back(
          static_cast<double>(uncovered_ns(t_send, gi, {{ri, ro}})) / 1e3);
    }
    put(m, "initiator.residence_us_p50", quantile(g.init_us, 0.5), "us");
    put(m, "relay.residence_us_p50", quantile(relay_us, 0.5), "us");
    put(m, "relay.residence_us_p99", quantile(relay_us, 0.99), "us");
    put(m, "responder.residence_us_p50", quantile(g.resp_us, 0.5), "us");
    put(m, "loopback.us_p50", quantile(loop_us, 0.5), "us");
    put(m, "path.self_us_p50", quantile(self_us, 0.5), "us");
    put(m, "gen.late_us_p99", quantile(g.late_us, 0.99), "us");
    // The generator's share of one core while traced: near 1 means it, not
    // the relay, may have set relay_fwd_pps (compare net.empty_recv_share).
    put(m, "gen.busy_share", static_cast<double>(gen_cpu_b) / (win_b * 1e9),
        "ratio");
    // No retransmitting endpoints here: the generator sends every frame once.
    put(m, "core.msgs_past_default_budget", 0, "count");
    put(m, "trace.overhead_goodput_ratio", safe_div(msgs_b / win_b, msgs_a),
        "ratio");
    put(m, "trace.overhead_relay_fwd_ratio", safe_div(fwd_pps_b, fwd_pps_a),
        "ratio");

    ReplayInputs in;
    in.config = mix_config(false, rounds);
    in.payload_size = kPayload;
    in.relay_log = log.get();
    in.upstream = up.port();
    in.downstream = down.port();
    in.assoc_ids = traffic.ids();
    replay_layers(in, m);
    const std::string path = opts.trace_dir + "/relay-mix-spans.tsv";
    if (!spans.write(path)) res.fail("cannot write " + path);
  }
  return res;
}

}  // namespace pathbench
