// Layer probes of the traced run: calls into each ctesim layer's public
// API, made from the benchmark's own code, each wrapped in a span. Spans
// that wrap a loop of identical calls carry the call count, so the reader
// reports time per call. Simulated counts (alloc calls, fault outcomes,
// engine events, service statistics) go straight into `out`, and so does
// bench.trace_overhead_ratio: the span-dense probes' time with the log on
// over their time with it off.
#pragma once

#include <cstdint>

#include "span_log.h"

namespace simbench {

void run_probes(std::uint64_t seed, SpanLog& log, JsonObject& out);

}  // namespace simbench
