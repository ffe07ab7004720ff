// Per-connection pipeline admission, applied by the text session
// (cache/text_protocol.h).
//
// A client that pipelines an unbounded burst of commands into one TCP
// segment can monopolize a cache shard's mutex for the whole batch,
// starving every other connection (the head-of-line variant of overload).
// The daemon therefore caps how many cache-touching commands one feed()
// batch may execute; excess commands are answered with an explicit,
// well-formed shed reply (`SERVER_ERROR overloaded`) so the client can
// degrade instead of timing out. Crucially the parser still CONSUMES shed
// storage payloads — shedding must never desync the stream.
//
// The cap is PER SHARD per batch: a burst aimed at one hot shard exhausts
// only that shard's budget, it cannot exempt (or starve) commands bound for
// the other shards. A 1-shard engine has one budget for the whole batch.
//
// `lock_deadline_us` bounds how long one command may wait for its shard's
// mutex before being shed (stale work is wasted work — the client has
// likely timed out). Zero means UNLIMITED — wait forever — matching
// `max_per_batch`'s zero convention. The two shed paths are mutually exclusive by
// construction: a command refused by the pipeline cap never attempts the
// lock, so no command can ever be double-counted across `sheds` and
// `deadline_sheds`.
//
// Cheap commands that do not touch the cache under a shard mutex (quit,
// version) and unparseable lines (answered ERROR) are exempt: they cost
// nothing and quit must always work.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/time.h"

namespace proteus::cache {

struct PipelinePolicy {
  // Max cache-touching commands served per shard per feed() batch;
  // 0 = unlimited.
  int max_per_batch = 0;
  // Daemon-wide pipeline-cap shed counter (exposed on /metrics); may be
  // null. Never incremented by a deadline shed.
  std::atomic<std::uint64_t>* sheds = nullptr;
  // Longest one command may wait for its shard's mutex before being shed.
  // 0 = unlimited (wait forever). Microseconds, same unit as the daemon
  // clock.
  SimTime lock_deadline_us = 0;
  // Daemon-wide queue-deadline shed counter; may be null. Never
  // incremented by a pipeline-cap shed.
  std::atomic<std::uint64_t>* deadline_sheds = nullptr;
};

}  // namespace proteus::cache
