// In-memory span recorder for the traced run. The benchmark wraps each call
// it makes into a library layer in a span (name, start, end, parent span,
// run id); spans stay in memory until the run ends and are then written out
// as JSON. A span's name is "<layer>.<operation>", and a layer's self time
// is the summed duration of its spans minus the part of each span's
// interval its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t run_id = 0;
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-threaded span recorder: spans nest by begin/end order.
class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id) : run_id_(run_id) {}

  std::int32_t begin(std::string name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{std::move(name), now_ns(), 0,
                          open_.empty() ? -1 : open_.back(), run_id_});
    open_.push_back(id);
    return id;
  }

  /// Closes the innermost open span and returns its duration in ns.
  std::int64_t end() {
    Span& s = spans_[static_cast<std::size_t>(open_.back())];
    open_.pop_back();
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }

  /// RAII span; a null tracer makes it a no-op. close() ends the span early
  /// and returns its duration in ns (0 when untraced).
  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t) {
      if (t_ != nullptr) t_->begin(name);
    }
    Scope(Tracer& t, const char* name) : Scope(&t, name) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t close() {
      if (t_ != nullptr) {
        ns_ = t_->end();
        t_ = nullptr;
      }
      return ns_;
    }

   private:
    Tracer* t_;
    std::int64_t ns_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t run_id() const noexcept { return run_id_; }

 private:
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
[[nodiscard]] inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

/// Layer of a span name: the text before the first '.'.
[[nodiscard]] inline std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Summed self time (ns) per layer.
[[nodiscard]] inline std::map<std::string, std::int64_t> layer_self_ns(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[layer_of(spans[i].name)] += self[i];
  return out;
}

/// Writes the spans as a JSON array; returns false when the file cannot be
/// written.
[[nodiscard]] inline bool write_spans_json(const std::vector<Span>& spans,
                                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"run_id\": %llu}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.run_id),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
