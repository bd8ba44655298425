#include "tap.hpp"

#include <cstring>

#include "common.hpp"
#include "wire/packets.hpp"

namespace pathbench {

namespace {
std::uint32_t be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
std::uint16_t be16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
}  // namespace

FrameKey frame_key(crypto::ByteView frame) noexcept {
  // Common header: version(1) type(1) assoc(4) seq(4). S2 body: mode(1)
  // chain_index(4) digest(1+d) msg_index(2) path_flag(1) [path]
  // payload(2+m). A2 body: ack_index(4) digest(1+d) scheme(1) kind(1)
  // msg_index(2) ...
  FrameKey k;
  const std::uint8_t* p = frame.data();
  const std::size_t n = frame.size();
  if (n < 10) return k;
  k.type = p[1];
  k.assoc = be32(p + 2);
  k.seq = be32(p + 6);
  if (k.type == static_cast<std::uint8_t>(wire::PacketType::kS2) && n > 15) {
    const std::size_t d = p[15];
    const std::size_t at = 16 + d;
    if (at + 5 > n) return k;
    k.msg_index = be16(p + at);
    const bool has_path = p[at + 2] != 0;
    const std::size_t payload_len = be16(p + at + 3);
    const std::size_t payload_at = at + 5;
    if (!has_path && payload_len >= 8 && payload_at + 8 <= n) {
      std::memcpy(&k.msg_seq, p + payload_at, 8);
    }
  } else if (k.type == static_cast<std::uint8_t>(wire::PacketType::kA2) &&
             n > 14) {
    const std::size_t d = p[14];
    const std::size_t at = 15 + d + 2;
    if (at + 2 <= n) k.msg_index = be16(p + at);
  }
  return k;
}

void forge_s2(crypto::ByteView s2, std::size_t back,
              std::vector<std::uint8_t>& out) {
  out.assign(s2.begin(), s2.end());
  const std::size_t body = out.size() - wire::kFrameChecksumSize;
  out[body - 1 - back] ^= 0x5a;
  const std::uint32_t crc = wire::frame_checksum({out.data(), body});
  for (int i = 0; i < 4; ++i) {
    out[body + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
}

namespace {
void note_frame(TapLog& log, bool rec, bool cap, Dir dir, std::uint64_t t,
                net::PeerAddr peer, crypto::ByteView frame) {
  if (rec && log.events.size() < log.event_cap) {
    const FrameKey k = frame_key(frame);
    log.events.push_back(
        {t, k.msg_seq, k.assoc, k.seq, k.msg_index, k.type, dir});
  }
  if (cap && log.capture_bytes.size() + frame.size() <= log.capture_cap_bytes) {
    log.captured.push_back({log.capture_bytes.size(),
                            static_cast<std::uint32_t>(frame.size()), peer});
    log.capture_bytes.insert(log.capture_bytes.end(), frame.begin(),
                             frame.end());
  }
}
}  // namespace

std::size_t TapTransport::recv_batch(int timeout_ms, net::RxFrame* out,
                                     std::size_t max) {
  const bool rec = log_.record.load(std::memory_order_acquire);
  const bool cap = log_.capture.load(std::memory_order_acquire);
  const std::uint64_t t0 = rec ? now_ns() : 0;
  const std::size_t got = inner_->recv_batch(timeout_ms, out, max);
  bump(log_.recv_calls, 1);
  bump(log_.recv_frames, got);
  if (got == 0) bump(log_.recv_empty, 1);
  if (rec || cap) {
    const std::uint64_t t1 = now_ns();
    if (rec) bump(log_.recv_ns, t1 - t0);
    for (std::size_t i = 0; i < got; ++i) {
      note_frame(log_, rec, cap, Dir::kIn, t1, out[i].from, out[i].data);
    }
  }
  return got;
}

std::size_t TapTransport::send_batch(const net::TxFrame* frames,
                                     std::size_t n) {
  std::vector<net::TxFrame> forged_batch;
  std::vector<std::uint8_t> forged;
  if (log_.forge_one_s2) {
    for (std::size_t i = 0; i < n; ++i) {
      if (frame_key(frames[i].data).type !=
          static_cast<std::uint8_t>(wire::PacketType::kS2)) {
        continue;
      }
      forge_s2(frames[i].data, 0, forged);
      forged_batch.assign(frames, frames + n);
      forged_batch[i].data = {forged.data(), forged.size()};
      frames = forged_batch.data();
      log_.forge_one_s2 = false;
      break;
    }
  }
  const bool rec = log_.record.load(std::memory_order_acquire);
  const std::uint64_t t0 = rec ? now_ns() : 0;
  const std::size_t sent = inner_->send_batch(frames, n);
  bump(log_.send_calls, 1);
  bump(log_.send_frames, sent);
  if (rec) {
    // Stamped before the syscall: the frame leaves the node when the
    // runtime hands it to the kernel.
    bump(log_.send_ns, now_ns() - t0);
    for (std::size_t i = 0; i < sent; ++i) {
      note_frame(log_, true, false, Dir::kOut, t0, frames[i].peer,
                 frames[i].data);
    }
  }
  return sent;
}

}  // namespace pathbench
