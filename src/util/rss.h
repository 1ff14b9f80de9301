// Process-memory measurement for the scaling experiments and the service
// telemetry.
//
// peak_rss_bytes() is the getrusage ru_maxrss high-water mark: monotone
// over the process lifetime, which is exactly the "did this flow fit the
// budget" number the memory-wall work tracks. To compare configurations
// fairly, measure each in its own process — bench/scaling_memory.cpp
// measures exactly one point per invocation for this reason.
//
// current_rss_bytes() reads /proc/self/statm for an instantaneous resident
// size; it returns 0 on platforms without procfs, so callers must treat 0
// as "unavailable", not "no memory".
#pragma once

#include <cstddef>

namespace mch::util {

/// Peak resident set size of this process in bytes (0 if unavailable).
std::size_t peak_rss_bytes();

/// Current resident set size in bytes (0 if unavailable).
std::size_t current_rss_bytes();

/// Convenience: peak RSS in mebibytes.
double peak_rss_mb();

/// Convenience: current RSS in mebibytes (0.0 if unavailable).
double current_rss_mb();

}  // namespace mch::util
