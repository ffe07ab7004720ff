// Durable transition journal — a crash-recoverable record of Algorithm 2.
//
// The paper's smooth transition is a coordination-plane protocol whose
// state (old active count, broadcast digests, drain deadline) lives purely
// in memory: a coordinator crash mid-transition silently loses the
// in-flight plan, leaving web tiers routing on a stale view. This module
// makes the plan durable with a small append-only write-ahead log:
//
//   resize_begin(epoch, n_old -> n_new, drain_end)
//   digest_snapshot(server, encoded digest)   [one per old-mapping server]
//   drain_begin(server)                       [one per leaving server]
//   finalize(epoch)
//
// On construction, the Proteus facade (any `replicas`) replays the journal: a
// transition with no finalize record is resumed (drain deadline still
// ahead) or rolled forward (deadline passed — the crash outlived the drain
// window, so finalization is completed immediately). Records are fsync'd at
// append and individually CRC-checked; a torn tail — the partial record a
// crash can leave behind — is detected, counted, and truncated so the next
// append starts from the last durable record.
//
// Format (little-endian, one record):
//   kind(u32) server(i32) a(u64) b(u64) c(u64) payload_len(u32)
//   payload(bytes) crc32(u32, over everything before it)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace proteus::core {

enum class JournalRecordKind : std::uint32_t {
  kResizeBegin = 1,     // a=epoch, b=(n_old<<32)|n_new, c=drain end (SimTime)
  kDigestSnapshot = 2,  // server=old-mapping index, payload=encoded digest
  kDrainBegin = 3,      // server=leaving server index
  kFinalize = 4,        // a=epoch of the transition being closed
};

struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kResizeBegin;
  std::int32_t server = -1;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::string payload;
};

// CRC-32 (IEEE 802.3, reflected) — exposed for tests.
std::uint32_t journal_crc32(std::string_view bytes);

// Serialize one record (without fsync concerns) — exposed for tests that
// build torn/corrupt journals by hand.
std::string encode_journal_record(const JournalRecord& record);

class TransitionJournal {
 public:
  TransitionJournal() = default;
  ~TransitionJournal();
  TransitionJournal(const TransitionJournal&) = delete;
  TransitionJournal& operator=(const TransitionJournal&) = delete;

  // Opens (creating if absent) the journal at `path`, replays every intact
  // record into `replayed`, truncates any torn tail, and positions for
  // append. Returns false (journal stays closed) when the file cannot be
  // opened — callers degrade to volatile transitions.
  bool open(const std::string& path, std::vector<JournalRecord>& replayed);

  // Appends one fsync'd record. No-op when the journal is closed.
  void append(const JournalRecord& record);

  // Rewrites the journal to exactly `records` (atomically: temp file +
  // rename) — compaction after a finalized transition so the log does not
  // grow without bound. No-op when closed.
  void compact(const std::vector<JournalRecord>& records);

  void close();
  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }
  // Records dropped at open() because the tail was torn or corrupt.
  std::uint64_t torn_records() const noexcept { return torn_records_; }
  std::uint64_t appended() const noexcept { return appended_; }

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t torn_records_ = 0;
  std::uint64_t appended_ = 0;
};

// Interpretation of a replayed journal: the last unfinalized transition, if
// any — the thing a restarted coordinator must resume or roll forward.
struct PendingTransition {
  std::uint64_t epoch = 0;
  int n_old = 0;
  int n_new = 0;
  SimTime drain_end = 0;
  std::vector<int> draining;                        // servers left draining
  std::vector<std::pair<int, std::string>> digests; // (server, encoded)
};

// Scans `records` for a resize_begin with no matching finalize. Also
// returns the cluster epoch as of the journal tail via `epoch_out` (the
// highest epoch seen, so a restart resumes fencing where it left off).
std::optional<PendingTransition> interpret_journal(
    const std::vector<JournalRecord>& records, std::uint64_t& epoch_out);

}  // namespace proteus::core
