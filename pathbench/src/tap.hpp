// Pass-through net::Transport that observes every frame entering and leaving
// one node, from outside the runtime.
//
// Every ShardedNode of the benchmark owns a TapTransport wrapped around its
// UdpTransport. The tap always counts batch calls and frames (one relaxed
// store per call on the node's I/O thread); when recording is on it also
// times each batch call and appends one FrameEvent per frame, keyed by
// (assoc id, round seq, packet type, msg index), to a TapLog that the
// benchmark owns. Spans between taps give node residence and loopback time.
// With capture on, inbound frames are copied in arrival order so the layers
// can be replayed through their public functions after the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "net/transport.hpp"

namespace pathbench {

/// Identity of one frame as seen on the wire.
struct FrameKey {
  std::uint8_t type = 0;        // wire::PacketType, 0 when unreadable
  std::uint32_t assoc = 0;
  std::uint32_t seq = 0;        // signature round
  std::uint16_t msg_index = 0;  // S2 / A2 only
  std::uint64_t msg_seq = 0;    // benchmark message number carried in an
                                // S2 payload (0 when absent)
};

/// Reads the key fields at their fixed offsets (bounds-checked, no CRC
/// check, no allocation) so recording stays cheap.
FrameKey frame_key(crypto::ByteView frame) noexcept;

/// Copy of an authentic S2 with the byte `back` places before the CRC
/// trailer (a payload byte) flipped and a valid trailer: it decodes and its
/// disclosed key is genuine, but its MAC is not.
void forge_s2(crypto::ByteView s2, std::size_t back,
              std::vector<std::uint8_t>& out);

enum class Dir : std::uint8_t { kIn = 0, kOut = 1 };

struct FrameEvent {
  std::uint64_t t_ns = 0;
  std::uint64_t msg_seq = 0;
  std::uint32_t assoc = 0;
  std::uint32_t seq = 0;
  std::uint16_t msg_index = 0;
  std::uint8_t type = 0;
  Dir dir = Dir::kIn;
};

/// Counters and recordings of one tap. Counters are written by the node's
/// I/O thread only and read with relaxed loads from the benchmark thread.
/// The benchmark sizes `events` before it sets `record` (the I/O thread
/// loads the flag with acquire ordering), and reads events and captures
/// only after the node (and so its I/O thread) is gone.
struct TapLog {
  std::atomic<std::uint64_t> recv_calls{0};
  std::atomic<std::uint64_t> recv_empty{0};
  std::atomic<std::uint64_t> recv_frames{0};
  std::atomic<std::uint64_t> recv_ns{0};
  std::atomic<std::uint64_t> send_calls{0};
  std::atomic<std::uint64_t> send_frames{0};
  std::atomic<std::uint64_t> send_ns{0};

  std::atomic<bool> record{false};
  std::size_t event_cap = 0;
  std::vector<FrameEvent> events;

  /// Self-test: the next S2 the node sends leaves forged (forge_s2). Set
  /// before the node is built; then only the node's I/O thread touches it.
  bool forge_one_s2 = false;

  std::atomic<bool> capture{false};
  std::size_t capture_cap_bytes = 0;
  std::vector<std::uint8_t> capture_bytes;
  struct Captured {
    std::size_t offset = 0;
    std::uint32_t size = 0;
    net::PeerAddr from = 0;
  };
  std::vector<Captured> captured;

  crypto::ByteView captured_frame(std::size_t i) const {
    return {capture_bytes.data() + captured[i].offset, captured[i].size};
  }
};

class TapTransport final : public net::Transport {
 public:
  TapTransport(std::unique_ptr<net::UdpTransport> inner, TapLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void set_receiver(ReceiveFn receiver) override {
    inner_->set_receiver(std::move(receiver));
  }
  bool send(net::PeerAddr peer, crypto::Bytes frame) override {
    return inner_->send(peer, std::move(frame));
  }
  std::size_t poll(int timeout_ms) override { return inner_->poll(timeout_ms); }
  std::uint64_t now_us() const override { return inner_->now_us(); }
  void schedule(std::uint64_t at_us, std::function<void()> fn) override {
    inner_->schedule(at_us, std::move(fn));
  }
  bool clock_thread_safe() const override { return true; }

  std::size_t recv_batch(int timeout_ms, net::RxFrame* out,
                         std::size_t max) override;
  std::size_t send_batch(const net::TxFrame* frames, std::size_t n) override;

 private:
  std::unique_ptr<net::UdpTransport> inner_;
  TapLog& log_;
};

/// The tap's counters at one instant (relaxed loads), summable across
/// taps and subtractable across instants.
struct TapCounters {
  std::uint64_t recv_calls = 0, recv_empty = 0, recv_frames = 0, recv_ns = 0;
  std::uint64_t send_calls = 0, send_frames = 0, send_ns = 0;

  static TapCounters read(const TapLog& log) noexcept {
    const auto r = [](const std::atomic<std::uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    return {r(log.recv_calls), r(log.recv_empty), r(log.recv_frames),
            r(log.recv_ns),    r(log.send_calls), r(log.send_frames),
            r(log.send_ns)};
  }
  TapCounters& operator+=(const TapCounters& o) noexcept {
    recv_calls += o.recv_calls;
    recv_empty += o.recv_empty;
    recv_frames += o.recv_frames;
    recv_ns += o.recv_ns;
    send_calls += o.send_calls;
    send_frames += o.send_frames;
    send_ns += o.send_ns;
    return *this;
  }
  TapCounters operator-(const TapCounters& o) const noexcept {
    return {recv_calls - o.recv_calls,   recv_empty - o.recv_empty,
            recv_frames - o.recv_frames, recv_ns - o.recv_ns,
            send_calls - o.send_calls,   send_frames - o.send_frames,
            send_ns - o.send_ns};
  }
};

/// Relaxed increment for a counter that has exactly one writer.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by) noexcept {
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

}  // namespace pathbench
