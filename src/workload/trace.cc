#include "workload/trace.h"

#include <charconv>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>

#include "common/check.h"

namespace proteus::workload {

std::string page_key(std::size_t page_id) {
  char buf[5 + std::numeric_limits<std::size_t>::digits10 + 1] = "page:";
  const char* end = std::to_chars(buf + 5, std::end(buf), page_id).ptr;
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

std::vector<TraceEvent> generate_trace(const TraceConfig& config) {
  PROTEUS_CHECK(config.duration > 0);
  PROTEUS_CHECK(config.num_pages > 0);

  DiurnalModel model(config.diurnal);
  ZipfSampler zipf(config.num_pages, config.zipf_alpha);
  Rng rng(config.seed);

  // Thinned Poisson process: draw candidate arrivals at the peak rate, keep
  // each with probability rate(t)/peak. Exact nonhomogeneous sampling.
  const double peak = model.peak_rate();
  PROTEUS_CHECK(peak > 0);

  std::vector<TraceEvent> trace;
  trace.reserve(static_cast<std::size_t>(
      to_seconds(config.duration) * model.config().mean_rate * 1.1));
  double t_sec = 0;
  const double horizon_sec = to_seconds(config.duration);
  for (;;) {
    t_sec += rng.next_exponential(1.0 / peak);
    if (t_sec >= horizon_sec) break;
    const SimTime t = from_seconds(t_sec);
    if (rng.next_double() * peak <= model.rate_at(t)) {
      trace.push_back(TraceEvent{t, page_key(zipf(rng))});
    }
  }
  return trace;
}

void write_trace(std::ostream& out, const std::vector<TraceEvent>& trace) {
  for (const TraceEvent& ev : trace) {
    out << ev.time << ' ' << ev.key << '\n';
  }
}

std::vector<TraceEvent> read_trace(std::istream& in) {
  std::vector<TraceEvent> trace;
  SimTime t;
  std::string key;
  while (in >> t >> key) {
    trace.push_back(TraceEvent{t, std::move(key)});
    key.clear();
  }
  return trace;
}

std::vector<std::uint64_t> requests_per_window(
    const std::vector<TraceEvent>& trace, SimTime window) {
  PROTEUS_CHECK(window > 0);
  std::vector<std::uint64_t> counts;
  for (const TraceEvent& ev : trace) {
    const auto idx = static_cast<std::size_t>(ev.time / window);
    if (idx >= counts.size()) counts.resize(idx + 1, 0);
    ++counts[idx];
  }
  return counts;
}

}  // namespace proteus::workload
