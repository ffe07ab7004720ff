// Minimal deterministic discrete-event simulator.
//
// The paper evaluates on a 40-machine testbed; this repo substitutes a DES
// of the same topology (see DESIGN.md). The simulator is single-threaded and
// fully deterministic: events at equal timestamps fire in scheduling order.
//
// Event core: each event's callable is constructed in place in a cell of a
// CallbackCells slab (callback.h), runs there and is destroyed there, so it
// is never copied or moved and allocates nothing unless its closure is
// larger than a cell. Small trivially-copyable (when, seq, cell) entries
// order the events, in two min-heaps: events scheduled less than
// kNearHorizon ahead go to the near heap, the rest to the far heap. In the
// cluster model nearly every pending event is a user's think timer 0.5 s
// ahead, while most events a request pops are hops and service completions
// a few hundred microseconds ahead; the split keeps those sifting through a
// heap of a handful of entries. Each step runs the earlier of the two tops
// by (when, seq), so the firing order is exactly that of one heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "sim/callback.h"

namespace proteus::sim {

class Simulation {
 public:
  // Split point between the near and far heaps: above every hop, service
  // and database time of the cluster model, below its 0.5 s think time and
  // its control and sampling periods.
  static constexpr SimTime kNearHorizon = 100 * kMillisecond;

  Simulation() = default;
  // Pending events may point at objects that point back at the simulation.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const noexcept { return now_; }

  template <class F>
  void schedule_at(SimTime when, F&& f) {
    PROTEUS_CHECK_MSG(when >= now_, "cannot schedule into the past");
    const CallbackCells::Handle cell = cells_.emplace(std::forward<F>(f));
    std::vector<Entry>& heap = when - now_ < kNearHorizon ? near_ : far_;
    heap.push_back(Entry{when, next_seq_++, cell});
    std::push_heap(heap.begin(), heap.end(), Later{});
  }

  template <class F>
  void schedule_after(SimTime delay, F&& f) {
    PROTEUS_CHECK(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(f));
  }

  // Runs events until the queue drains or the horizon is passed. Events
  // scheduled exactly at the horizon still run; later ones stay queued.
  void run_until(SimTime horizon) {
    while (!empty()) {
      std::vector<Entry>& heap = earliest();
      if (heap.front().when > horizon) break;
      run_top(heap);
    }
    now_ = std::max(now_, horizon);
  }

  void run() {
    while (!empty()) run_top(earliest());
  }

  bool empty() const noexcept { return near_.empty() && far_.empty(); }
  std::size_t pending_events() const noexcept {
    return near_.size() + far_.size();
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // tie-breaker: FIFO among equal timestamps
    CallbackCells::Handle cell;
  };
  static_assert(sizeof(Entry) == 24);

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // The heap whose top is the earliest pending event. Precondition: !empty().
  std::vector<Entry>& earliest() noexcept {
    if (far_.empty()) return near_;
    if (near_.empty()) return far_;
    return Later{}(near_.front(), far_.front()) ? far_ : near_;
  }

  void run_top(std::vector<Entry>& heap) {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const Entry e = heap.back();
    heap.pop_back();
    now_ = e.when;
    cells_.run(e.cell);
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> near_;  // min-heap on (when, seq)
  std::vector<Entry> far_;   // min-heap on (when, seq)
  CallbackCells cells_;      // callables of pending events
};

}  // namespace proteus::sim
