// Minimal deterministic discrete-event simulator.
//
// The paper evaluates on a 40-machine testbed; this repo substitutes a DES
// of the same topology (see DESIGN.md). The simulator is single-threaded and
// fully deterministic: events at equal timestamps fire in scheduling order.
//
// Event core: the heap orders small trivially-copyable (when, seq, slot)
// entries; the callbacks live in a slab indexed by slot, so sifting the heap
// never touches a std::function. Running an event moves its callback out of
// the slab and frees the slot before invoking it, so each callback is run
// exactly once and never copied, and may itself schedule (and grow the slab).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace proteus::sim {

class Simulation {
 public:
  using Callback = std::function<void()>;

  SimTime now() const noexcept { return now_; }

  void schedule_at(SimTime when, Callback cb) {
    PROTEUS_CHECK_MSG(when >= now_, "cannot schedule into the past");
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(cb));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(cb);
    }
    heap_.push_back(Entry{when, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  void schedule_after(SimTime delay, Callback cb) {
    PROTEUS_CHECK(delay >= 0);
    schedule_at(now_ + delay, std::move(cb));
  }

  // Runs events until the queue drains or the horizon is passed. Events
  // scheduled exactly at the horizon still run; later ones stay queued.
  void run_until(SimTime horizon) {
    while (!heap_.empty() && heap_.front().when <= horizon) run_next();
    now_ = std::max(now_, horizon);
  }

  void run() {
    while (!heap_.empty()) run_next();
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending_events() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // tie-breaker: FIFO among equal timestamps
    std::uint32_t slot;
  };

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void run_next() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    Callback cb = std::move(slab_[e.slot]);
    slab_[e.slot] = nullptr;  // a moved-from std::function is unspecified
    free_slots_.push_back(e.slot);
    now_ = e.when;
    cb();
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;                // min-heap on (when, seq)
  std::vector<Callback> slab_;             // callbacks of pending events
  std::vector<std::uint32_t> free_slots_;  // slab slots not in use
};

}  // namespace proteus::sim
