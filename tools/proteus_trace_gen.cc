// proteus_trace_gen — write a synthetic Wikipedia-like request trace in the
// "<microseconds> <key>" format consumed by trace_replay and read_trace().
//
//   proteus_trace_gen --hours=4 --rate=500 --pages=50000 --alpha=0.9 --seed=7
//       > trace.txt
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "workload/trace.h"

namespace {

bool parse_value(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace proteus;

  double hours = 1.0;
  workload::TraceConfig cfg;
  cfg.diurnal.mean_rate = 500;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_value(argv[i], "--hours", value)) {
      hours = std::atof(value.c_str());
    } else if (parse_value(argv[i], "--rate", value)) {
      cfg.diurnal.mean_rate = std::atof(value.c_str());
    } else if (parse_value(argv[i], "--pages", value)) {
      cfg.num_pages = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (parse_value(argv[i], "--alpha", value)) {
      cfg.zipf_alpha = std::atof(value.c_str());
    } else if (parse_value(argv[i], "--seed", value)) {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else {
      std::fprintf(stderr, "usage: see header of tools/proteus_trace_gen.cc\n");
      return 2;
    }
  }
  if (hours <= 0 || cfg.diurnal.mean_rate <= 0 || cfg.num_pages == 0) {
    std::fprintf(stderr, "invalid parameters\n");
    return 2;
  }
  cfg.duration = from_seconds(hours * 3600.0);

  const auto trace = workload::generate_trace(cfg);
  workload::write_trace(std::cout, trace);
  std::fprintf(stderr, "wrote %zu events (%.1f h, %.0f req/s mean, %zu pages)\n",
               trace.size(), hours, cfg.diurnal.mean_rate, cfg.num_pages);
  return 0;
}
