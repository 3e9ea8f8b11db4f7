// Minimal leveled logger, safe to call from several threads at once: the
// server's workers run simulations concurrently and log from them. The
// threshold is a relaxed atomic, and each line goes out in one fprintf
// call, which stdio locks, so concurrent lines never interleave within a
// line; their order across threads is unspecified. A single simulation
// still runs all its actors on one host thread.
#pragma once

#include <sstream>
#include <string_view>

namespace ctesim::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are discarded.
Level threshold();
void set_threshold(Level level);

/// Emit one log line (used by the macros below).
void emit(Level level, std::string_view msg);

namespace detail {
class LineBuilder {
 public:
  explicit LineBuilder(Level level) : level_(level) {}
  ~LineBuilder() { emit(level_, os_.str()); }
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;

  template <typename T>
  LineBuilder& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  Level level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace ctesim::log

#define CTESIM_LOG(level)                                  \
  if (::ctesim::log::threshold() <= ::ctesim::log::level)  \
  ::ctesim::log::detail::LineBuilder(::ctesim::log::level)

#define CTESIM_DEBUG CTESIM_LOG(Level::kDebug)
#define CTESIM_INFO CTESIM_LOG(Level::kInfo)
#define CTESIM_WARN CTESIM_LOG(Level::kWarn)
#define CTESIM_ERROR CTESIM_LOG(Level::kError)
