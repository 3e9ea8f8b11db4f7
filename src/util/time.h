// Simulated time. Integer picoseconds: fine enough to resolve single FP
// instructions at GHz clocks, wide enough for ~3 months of simulated time,
// and exact — so event ordering (and therefore every result in
// EXPERIMENTS.md) is bit-reproducible across platforms.
//
// Lives in util/ (not core/) because it is the one core concept that the
// layers *below* the engine also speak: trace/ records event times without
// depending on the DES engine, which keeps the subsystem include graph a
// DAG (enforced by ctesim_lint's include-layering pass).
#pragma once

#include <cstdint>

namespace ctesim::sim {

using Time = std::int64_t;  ///< picoseconds

inline constexpr Time kPicosecond = 1;
inline constexpr Time kNanosecond = 1'000;
inline constexpr Time kMicrosecond = 1'000'000;
inline constexpr Time kMillisecond = 1'000'000'000;
inline constexpr Time kSecond = 1'000'000'000'000;

/// Convert seconds (as used by the cost models) to simulated time, rounding
/// to the nearest picosecond. Negative durations are a caller bug and are
/// checked at the scheduling boundary, not here.
constexpr Time from_seconds(double seconds) {
  return static_cast<Time>(seconds * 1e12 + (seconds >= 0 ? 0.5 : -0.5));
}

constexpr double to_seconds(Time t) { return static_cast<double>(t) * 1e-12; }

}  // namespace ctesim::sim
