// Host-time spans the benchmark records around its own calls into ctesim
// layers. A span has a name, a group id shared by every span of one
// campaign or request, a parent (the span open when it began) and a call
// count for spans that wrap a loop of identical calls. Spans stay in
// memory and are written out once, at the end of a traced run; self time
// (span time minus child-span time) is derived by the reader.
//
// A disabled log records nothing, so the untraced path costs one branch.
// An enabled log reserves its storage up front and reads the clock last
// when a span opens and first when it closes, so a span's own bookkeeping
// falls outside the time it reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace simbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: a layer call site
  std::uint64_t group = 0;
  int parent = -1;  ///< index into the same log, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 1;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(kReserveSpans);
      stack_.reserve(kReserveDepth);
    }
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  int open(const char* name, std::uint64_t group, std::uint64_t calls) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, group, parent, 0, 0, calls});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start_ns = now_ns();
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    const std::int64_t end = now_ns();
    spans_[static_cast<std::size_t>(index)].end_ns = end;
    stack_.pop_back();
  }

  /// Appends another (finished) log, e.g. one per load-generator thread.
  void append(const SpanLog& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  /// One JSON array of [name, group, parent, start_ns, end_ns, calls].
  void write_json(std::FILE* out) const {
    std::fputc('[', out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%s[\"%s\",%llu,%d,%lld,%lld,%llu]", i ? "," : "",
                   s.name, static_cast<unsigned long long>(s.group),
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.calls));
    }
    std::fputc(']', out);
  }

 private:
  // Enough for a traced run's probes (a few thousand spans) without
  // reallocating inside a span.
  static constexpr std::size_t kReserveSpans = 1 << 15;
  static constexpr std::size_t kReserveDepth = 64;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t group,
             std::uint64_t calls = 1)
      : log_(log), index_(log.open(name, group, calls)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Small JSON object writer for the driver's one-line result record.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  JsonObject& strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ",\"" : "\"") + v[i] + "\"";
    }
    return raw(key, s + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace simbench
