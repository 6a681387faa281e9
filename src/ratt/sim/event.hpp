// Minimal discrete-event scheduler driving the network simulation.
// Time is in simulated milliseconds.
//
// One EventQueue is single-threaded; the sharded Swarm scales out by
// giving every shard its own queue (devices never interact cross-shard),
// so no locking lives here — only the observability instruments the
// queues share are thread-safe (see obs/metrics.hpp).
//
// Events live in a hierarchical timing wheel — 4 levels x 64 slots at a
// 1 ms tick. Insertion is O(1); popping amortizes to O(1) because a
// level-k slot redistributes at most once per event per level. Events
// landing beyond the wheel span (~2^24 ticks) go to a small overflow
// heap, and events inside the current tick go straight to a "current"
// mini-heap that preserves exact (at_ms, seq) order. This is what lets
// a fleet-scale Swarm keep O(devices) pending events cheap.
//
// Execution order is globally sorted by (at_ms, seq), FIFO among
// same-time events. tests/sim/event_wheel_test.cpp checks it in
// lockstep against a plain binary-heap reference queue
// (tests/sim/reference_queue.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "ratt/obs/metrics.hpp"

namespace ratt::sim {

class EventQueue {
 public:
  using Action = std::function<void()>;

  double now_ms() const { return now_ms_; }

  /// Attach a metrics registry (nullable; nullptr detaches). Publishes
  ///   gauge     queue.backlog           — pending events (with high-water)
  ///   histogram queue.event_latency_ms  — schedule-to-execution delay
  ///   counter   queue.events_run
  ///   gauge     queue.runaway_leftover  — events stranded by run_all's bound
  void set_observer(obs::Registry* registry);

  /// Schedule `action` at absolute time `at_ms` (>= now). Non-finite
  /// times (NaN, ±inf) are rejected with std::invalid_argument: NaN
  /// compares false against every bound, so it would slip past the
  /// past-scheduling check and then corrupt the strict weak ordering
  /// the wheel's mini-heaps rely on.
  void schedule_at(double at_ms, Action action);

  /// Schedule `action` `delay_ms` from now.
  void schedule_in(double delay_ms, Action action);

  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return wheel_size_; }

  /// Pop and run the earliest event; returns false when none remain.
  /// The action is moved out of the queue (no copy, no extra allocation
  /// on the hot path), and the queue commits its state — event popped,
  /// now_ms advanced, backlog/latency instruments updated — *before* the
  /// action runs, so a throwing action leaves the queue fully consistent
  /// and the next run_next() continues with the following event.
  bool run_next();

  /// Run events until the queue empties or `until_ms` is reached; time
  /// advances to min(until_ms, last event). Events scheduled during
  /// execution are honored.
  void run_until(double until_ms);

  /// Drain everything, bounded by `max_events` as a runaway guard.
  /// Returns the number of events still pending when the bound was hit
  /// (0 = fully drained) — the stranded backlog is reported, not silently
  /// dropped, and is also surfaced on the queue.runaway_leftover gauge.
  std::size_t run_all(std::size_t max_events = 1'000'000);

 private:
  struct Event {
    double at_ms;
    std::uint64_t seq;  // FIFO among same-time events
    double scheduled_ms;  // when schedule_* was called (for latency)
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };

  // ---- timing wheel ----
  static constexpr double kTickMs = 1.0;
  static constexpr int kLevels = 4;
  static constexpr std::uint64_t kSlotBits = 6;
  static constexpr std::uint64_t kSlotsPerLevel = 1ull << kSlotBits;  // 64
  // Ticks reachable from the cursor without the overflow heap: 64^4.
  static constexpr std::uint64_t kWheelSpan = 1ull << (kSlotBits * kLevels);

  struct Slot {
    std::vector<Event> events;
    // Smallest tick currently stored in the slot. On levels >= 1 all
    // events in a slot share the same level coordinate (tick >> 6k), so
    // min_tick is enough to (a) find the level's earliest slot and (b)
    // detect whether an advance actually landed on this slot's epoch.
    std::uint64_t min_tick = 0;
  };

  static std::uint64_t tick_of(double at_ms);
  /// Route an event to current_/slot/overflow relative to cursor_
  /// (does not touch wheel_size_ — shared by insert and redistribution).
  void wheel_place(Event&& ev);
  /// Earliest pending tick across L0..L3 and the overflow heap.
  /// Pre: current_ empty, wheel_size_ > 0.
  std::uint64_t wheel_next_tick() const;
  /// Advance the cursor to `tick`: pull overflow events now within the
  /// span, cascade outer-level slots the cursor landed on down the
  /// hierarchy, and load the landed L0 slot into current_.
  void wheel_advance_to(std::uint64_t tick);
  /// Ensure current_ holds the next event (loads the next tick if
  /// needed). Pre: wheel_size_ > 0.
  void wheel_load_current();
  bool wheel_pop(Event& out);

  /// Earliest pending event time. Pre: !empty(). Non-const (it may load
  /// a tick into current_), but observable behavior is unchanged:
  /// now_ms_ only advances in run_next()/run_until().
  double next_time();

  // Slot array, level-major: slots_[level * 64 + index].
  std::vector<Slot> slots_ = std::vector<Slot>(kLevels * kSlotsPerLevel);
  // Per-level occupancy bitmaps: bit i set <=> slots_[level*64+i] holds
  // events. Finding a level's earliest slot is one rotate + countr_zero.
  std::array<std::uint64_t, kLevels> occupied_{};
  // Events at ticks <= cursor_ (the "now" tick), ordered by (at_ms, seq)
  // via a mini-heap — sub-tick ordering the wheel's 1 ms buckets cannot
  // provide on their own.
  std::vector<Event> current_;
  // Events beyond the wheel span (min-heap by Later).
  std::vector<Event> overflow_;
  std::uint64_t cursor_ = 0;
  std::size_t wheel_size_ = 0;

  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  obs::Gauge* obs_backlog_ = nullptr;
  obs::Histogram* obs_latency_ = nullptr;
  obs::Counter* obs_events_run_ = nullptr;
  obs::Gauge* obs_leftover_ = nullptr;
};

}  // namespace ratt::sim
