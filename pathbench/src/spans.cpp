#include "spans.hpp"

#include <algorithm>

namespace pathbench {

bool SpanLog::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "layer\tparent_msg\tassoc\tseq\ttype\tmsg_index\tstart_ns\t"
               "end_ns\tdur_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%u\t%u\t%u\t%u\t%llu\t%llu\t%llu\n", s.layer,
                 static_cast<unsigned long long>(s.parent), s.assoc, s.seq,
                 static_cast<unsigned>(s.type),
                 static_cast<unsigned>(s.msg_index),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.end_ns - s.start_ns));
  }
  return std::fclose(f) == 0;
}

std::uint64_t uncovered_ns(
    std::uint64_t lo, std::uint64_t hi,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  if (hi <= lo) return 0;
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = lo;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return (hi - lo) - covered;
}

}  // namespace pathbench
