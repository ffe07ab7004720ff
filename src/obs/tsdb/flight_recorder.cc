#include "obs/tsdb/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstddef>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tsdb/tsdb.h"

namespace proteus::obs {

namespace {

bool write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config,
                               const TimeSeriesStore* store,
                               const TraceRing* trace,
                               std::function<std::string()> spans_jsonl)
    : config_(std::move(config)), store_(store), trace_(trace),
      spans_jsonl_(std::move(spans_jsonl)) {
  if (config_.checkpoint_interval < kSecond) {
    config_.checkpoint_interval = kSecond;
  }
}

std::string FlightRecorder::render(SimTime now, std::string_view reason)
    const {
  std::string body;
  body.reserve(1 << 16);
  store_->dump_jsonl(body);
  if (trace_ != nullptr) {
    for (const TraceEvent& e : trace_->snapshot()) {
      body += "{\"type\":\"trace\",\"data\":";
      body += to_json(e);
      body += "}\n";
    }
  }
  if (spans_jsonl_) {
    const std::string spans = spans_jsonl_();
    std::size_t start = 0;
    while (start < spans.size()) {
      std::size_t end = spans.find('\n', start);
      if (end == std::string::npos) end = spans.size();
      if (end > start) {
        body += "{\"type\":\"span\",\"data\":";
        body.append(spans, start, end - start);
        body += "}\n";
      }
      start = end + 1;
    }
  }
  std::size_t body_lines = 0;
  for (char c : body) {
    if (c == '\n') ++body_lines;
  }
  std::string out;
  out.reserve(body.size() + 160);
  out += "{\"type\":\"header\",\"reason\":\"";
  append_json_escaped(out, reason);
  out += "\",\"t_us\":" + std::to_string(now);
  out += ",\"series\":" + std::to_string(store_->series_count());
  out += "}\n";
  out += body;
  // lines = header + body; a reader that counts anything else sees a torn
  // or truncated dump.
  out += "{\"type\":\"footer\",\"lines\":" + std::to_string(body_lines + 1) +
         "}\n";
  return out;
}

bool FlightRecorder::dump(SimTime now, std::string_view reason,
                          std::string_view basename) {
  if (!enabled()) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string content = render(now, reason);
  const std::string path = config_.dir + '/' + std::string(basename);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  bool ok = fd >= 0 && write_all(fd, content);
  if (fd >= 0) {
    ok = ok && ::fsync(fd) == 0;
    ::close(fd);
  }
  ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (ok) {
    // fsync the directory so the rename itself is durable.
    const int dfd = ::open(config_.dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
    dumps_.fetch_add(1, std::memory_order_relaxed);
    last_dump_bytes_.store(content.size(), std::memory_order_relaxed);
  } else {
    ::unlink(tmp.c_str());
    dump_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

void FlightRecorder::maybe_checkpoint(SimTime now) {
  if (!enabled()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (last_checkpoint_ >= 0 &&
        now - last_checkpoint_ < config_.checkpoint_interval) {
      return;
    }
    last_checkpoint_ = now;
  }
  dump(now, "checkpoint", "flight.jsonl");
}

void FlightRecorder::register_metrics(MetricsRegistry& registry) {
  registry.counter_fn("proteus_flight_dumps_total",
                      "flight-recorder artifacts written",
                      [this] { return static_cast<double>(dumps()); });
  registry.counter_fn(
      "proteus_flight_dump_failures_total",
      "flight-recorder dump attempts that failed",
      [this] { return static_cast<double>(dump_failures()); });
  registry.gauge_fn("proteus_flight_last_dump_bytes",
                    "size of the most recent flight-recorder artifact",
                    [this] {
                      return static_cast<double>(last_dump_bytes());
                    });
}

}  // namespace proteus::obs
