// Crash-time flight recorder — postmortem state that survives the process.
//
// A cache node that dies mid-transition takes its /metrics, /trace, and
// /timeseries surfaces with it; the flight recorder is the part of the
// observability stack that outlives the daemon. Periodic checkpoints
// (`maybe_checkpoint`, driven off the sampler thread's post-tick hook) and
// the daemon's clean-shutdown dump write `<dir>/flight.jsonl` with the
// journal's durable discipline — temp file, fsync, rename, fsync dir — so
// even `kill -9` leaves the last completed checkpoint intact. No signal
// handler dumps on a crash: rendering takes locks and allocates, so a dump
// from a handler could block forever on a lock the crashing thread holds.
// The last checkpoint is the postmortem.
//
// Artifact format (one JSON object per line):
//   {"type":"header","reason":...,"t_us":...,"series":N,...}
//   {"type":"point","metric":...,"tier_step_us":...,...}   (retained tsdb)
//   {"type":"trace","data":{...}}                          (TraceRing tail)
//   {"type":"span","data":{...}}                           (span tail)
//   {"type":"footer","lines":N}
// A reader treats a missing footer (or a line count mismatch) as a torn
// dump; scripts/crash_smoke.sh asserts this well-formedness after kill -9.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "common/time.h"

namespace proteus::obs {

class MetricsRegistry;
class TimeSeriesStore;
class TraceRing;

struct FlightRecorderConfig {
  std::string dir;  // dump directory; empty disables the recorder
  SimTime checkpoint_interval = 60 * kSecond;
};

class FlightRecorder {
 public:
  // `trace` and `spans_jsonl` may be null/empty; the store is required.
  // `spans_jsonl` returns one JSON object per line (the span-tail render).
  FlightRecorder(FlightRecorderConfig config, const TimeSeriesStore* store,
                 const TraceRing* trace = nullptr,
                 std::function<std::string()> spans_jsonl = nullptr);

  bool enabled() const noexcept { return !config_.dir.empty(); }

  // Writes one complete artifact to `<dir>/<basename>` (atomic replace).
  // Returns false when disabled or on I/O failure.
  bool dump(SimTime now, std::string_view reason, std::string_view basename);

  // Checkpoint cadence: dumps to flight.jsonl when `checkpoint_interval`
  // has elapsed since the last one. Called from the sampler's post-tick.
  void maybe_checkpoint(SimTime now);

  std::uint64_t dumps() const noexcept {
    return dumps_.load(std::memory_order_relaxed);
  }
  std::uint64_t dump_failures() const noexcept {
    return dump_failures_.load(std::memory_order_relaxed);
  }
  std::size_t last_dump_bytes() const noexcept {
    return last_dump_bytes_.load(std::memory_order_relaxed);
  }

  // proteus_flight_dumps_total / _failures_total / _last_dump_bytes.
  void register_metrics(MetricsRegistry& registry);

  const FlightRecorderConfig& config() const noexcept { return config_; }

 private:
  std::string render(SimTime now, std::string_view reason) const;

  FlightRecorderConfig config_;
  const TimeSeriesStore* store_;
  const TraceRing* trace_;
  std::function<std::string()> spans_jsonl_;

  std::mutex mu_;  // serializes dump() writers
  SimTime last_checkpoint_ = -1;
  std::atomic<std::uint64_t> dumps_{0};
  std::atomic<std::uint64_t> dump_failures_{0};
  std::atomic<std::size_t> last_dump_bytes_{0};
};

}  // namespace proteus::obs
