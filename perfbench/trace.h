#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

/// \file trace.h
/// In-memory spans recorded by the benchmark around its own calls into
/// each layer's public entry points. Spans are kept in memory and written
/// as JSON lines when the run ends, so recording costs a clock read and a
/// vector append.

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process, every thread together, in ns. It does
/// not advance while the host runs something else on this machine's CPUs
/// (the kernel leaves steal time out of it), so it is steadier than NowNs
/// on a shared host.
inline std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;          ///< pass | cell | setup | iteration | request | queue
  std::string layer;         ///< engine or server layer the span times
  std::string ref;           ///< cell or request the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe span store. Ids start at 1 so 0 can mean "no parent".
class Tracer {
 public:
  std::uint64_t Add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Sets the end of a span added while still open (parents are added
  /// before their children so the children can name them).
  void Close(std::uint64_t id, std::int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = end_ns;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once;
/// child time outside the parent is ignored). Keyed by span id.
inline std::map<std::uint64_t, std::int64_t> SelfTimes(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    std::int64_t lo = std::max(s.start_ns, parent->second->start_ns);
    std::int64_t hi = std::min(s.end_ns, parent->second->end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::map<std::uint64_t, std::int64_t> self;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = iv.front().first, hi = iv.front().second;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

/// Writes one JSON object per span. Returns false if the file cannot be
/// written.
inline bool WriteJsonLines(const std::vector<Span>& spans,
                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"layer\": \"%s\", \"ref\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 s.layer.c_str(), s.ref.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
