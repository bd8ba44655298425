// Spans between tap timestamps, and the per-run span file.
//
// A span is [start, end] on the steady clock, named after the layer that
// held the frame or message in that interval. Frames are matched across
// taps by their FrameKey; a message span (due or submitted -> delivered)
// is the parent of the hop spans its round and its S2 crossed, and its
// self time is the part of it no child span covers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "tap.hpp"

namespace pathbench {

struct KeyId {
  std::uint32_t assoc = 0;
  std::uint32_t seq = 0;
  std::uint16_t msg_index = 0;
  std::uint8_t type = 0;
  bool operator==(const KeyId&) const = default;
};

struct KeyIdHash {
  std::size_t operator()(const KeyId& k) const noexcept {
    std::uint64_t h = (std::uint64_t{k.assoc} << 32) ^ k.seq;
    h ^= (std::uint64_t{k.msg_index} << 8 | k.type) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

/// First time each frame key was seen in one direction of one tap (a
/// retransmitted frame keeps its first timestamp).
using FirstSeen = std::unordered_map<KeyId, std::uint64_t, KeyIdHash>;

inline FirstSeen first_seen(const std::vector<FrameEvent>& events, Dir dir) {
  FirstSeen m;
  m.reserve(events.size());
  for (const FrameEvent& e : events) {
    if (e.dir != dir) continue;
    m.emplace(KeyId{e.assoc, e.seq, e.msg_index, e.type}, e.t_ns);
  }
  return m;
}

/// Looks up `k`; returns 0 when absent.
inline std::uint64_t at(const FirstSeen& m, const KeyId& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

struct Span {
  const char* layer;
  std::uint64_t parent;  // message id of the enclosing message span (0: none)
  std::uint32_t assoc;
  std::uint32_t seq;
  std::uint8_t type;
  std::uint16_t msg_index;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Collects spans in memory during analysis; written out once at exit.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 300'000;

  /// Keeps at most kMaxSpans spans (the file stays a few tens of MB).
  void add(const Span& s) {
    if (s.end_ns >= s.start_ns && s.start_ns != 0 &&
        spans_.size() < kMaxSpans) {
      spans_.push_back(s);
    }
  }
  /// Writes one tab-separated line per span. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Length of [lo, hi] not covered by any of `children` (clipped to it).
std::uint64_t uncovered_ns(std::uint64_t lo, std::uint64_t hi,
                           std::vector<std::pair<std::uint64_t,
                                                 std::uint64_t>> children);

}  // namespace pathbench
