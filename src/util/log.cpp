#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <string>

namespace ctesim::log {

namespace {
// Relaxed: the threshold guards no other data, and a worker that sees a
// change one message late logs or drops that one message.
std::atomic<Level> g_threshold{Level::kWarn};

const char* level_name(Level level) {
  switch (level) {
    case Level::kDebug:
      return "DEBUG";
    case Level::kInfo:
      return "INFO";
    case Level::kWarn:
      return "WARN";
    case Level::kError:
      return "ERROR";
    case Level::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

Level threshold() { return g_threshold.load(std::memory_order_relaxed); }

void set_threshold(Level level) {
  g_threshold.store(level, std::memory_order_relaxed);
}

void emit(Level level, std::string_view msg) {
  if (level < threshold()) return;
  std::string line(msg);
  std::fprintf(stderr, "[ctesim %-5s] %s\n", level_name(level), line.c_str());
}

}  // namespace ctesim::log
