// EventQueue differential suite: the hierarchical timing wheel against
// the binary-heap ReferenceQueue (tests/sim/reference_queue.hpp).
// Execution order must be identical — globally sorted by (at_ms, seq),
// FIFO among same-time events — on both, for directed edge cases
// (same-tick bursts, far-future overflow, multi-level cascades,
// insert-after-peek) and for fuzzed self-scheduling workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ratt/sim/event.hpp"
#include "reference_queue.hpp"

namespace ratt::sim {
namespace {

/// One (event id, execution time) entry per run_next, in execution order.
using Log = std::vector<std::pair<int, double>>;

using reference::ReferenceQueue;

/// Run `body` once on the wheel and once on the reference heap; `body`
/// takes the queue and a label for failure messages.
template <typename Body>
void on_both(Body&& body) {
  EventQueue wheel;
  body(wheel, "wheel");
  ReferenceQueue heap;
  body(heap, "heap");
}

TEST(EventWheel, RejectsNonFiniteTimes) {
  on_both([](auto& q, const char* label) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(q.schedule_at(nan, [] {}), std::invalid_argument);
    EXPECT_THROW(q.schedule_at(inf, [] {}), std::invalid_argument);
    EXPECT_THROW(q.schedule_at(-inf, [] {}), std::invalid_argument);
    EXPECT_THROW(q.schedule_in(nan, [] {}), std::invalid_argument);
    // The queue stays fully usable after the rejections.
    EXPECT_TRUE(q.empty());
    int runs = 0;
    q.schedule_at(1.0, [&runs] { ++runs; });
    q.run_all();
    EXPECT_EQ(runs, 1) << label;
  });
}

TEST(EventWheel, SameTickEventsRunFifo) {
  // A burst inside one 1 ms tick: the wheel's bucket alone cannot order
  // these — the current mini-heap must fall back to (at_ms, seq).
  on_both([](auto& q, const char* label) {
    Log log;
    q.schedule_at(10.5, [&] { log.emplace_back(2, q.now_ms()); });
    q.schedule_at(10.25, [&] { log.emplace_back(1, q.now_ms()); });
    q.schedule_at(10.25, [&] { log.emplace_back(3, q.now_ms()); });
    q.schedule_at(10.0, [&] { log.emplace_back(0, q.now_ms()); });
    q.schedule_at(10.5, [&] { log.emplace_back(4, q.now_ms()); });
    q.run_all();
    const Log expected{{0, 10.0}, {1, 10.25}, {3, 10.25}, {2, 10.5},
                       {4, 10.5}};
    EXPECT_EQ(log, expected) << label;
  });
}

TEST(EventWheel, FarFutureEventsCrossTheOverflowBoundary) {
  // The wheel spans 2^24 ticks (~16.8e6 ms); events beyond it park in
  // the overflow heap and must still interleave correctly with near
  // events — including one scheduled mid-run once the cursor has moved.
  Log logs[2];
  int which = 0;
  on_both([&](auto& q, const char* label) {
    Log& log = logs[which++];
    q.schedule_at(20.0e6, [&] { log.emplace_back(3, q.now_ms()); });
    q.schedule_at(5.0, [&] {
      log.emplace_back(0, q.now_ms());
      // From t=5 the overflow boundary sits at ~16.8e6 + 5; 17e6 is
      // beyond it, 16e6 is within the span.
      q.schedule_at(17.0e6, [&] { log.emplace_back(2, q.now_ms()); });
      q.schedule_at(16.0e6, [&] { log.emplace_back(1, q.now_ms()); });
    });
    q.schedule_at(30.0e6, [&] { log.emplace_back(4, q.now_ms()); });
    q.run_all();
    const Log expected{{0, 5.0},
                       {1, 16.0e6},
                       {2, 17.0e6},
                       {3, 20.0e6},
                       {4, 30.0e6}};
    EXPECT_EQ(log, expected) << label;
  });
  EXPECT_EQ(logs[0], logs[1]);
}

TEST(EventWheel, CascadeThroughOuterLevels) {
  // Distances covering every level: L0 (< 64 ticks), L1 (< 64^2),
  // L2 (< 64^3), L3 (< 64^4). Outer-level slots must redistribute down
  // the hierarchy as the cursor lands on them, and events placed into an
  // already-passed coordinate (same tick as the cursor) still run.
  on_both([](auto& q, const char* label) {
    Log log;
    const double times[] = {3.0, 70.0, 4100.0, 262200.0, 1.7e7};
    for (int i = 0; i < 5; ++i) {
      const int id = i;
      q.schedule_at(times[i], [&, id] { log.emplace_back(id, q.now_ms()); });
    }
    // Mid-run insertion from inside an event: the child lands two levels
    // out (distance 4096 ticks) relative to the moving cursor and must
    // cascade back down before firing.
    q.schedule_at(100.0, [&] {
      log.emplace_back(5, q.now_ms());
      q.schedule_at(100.0 + 4096.0, [&] { log.emplace_back(6, q.now_ms()); });
    });
    q.run_all();
    const Log expected{{0, 3.0},      {1, 70.0},     {5, 100.0},
                       {2, 4100.0},   {6, 4196.0},   {3, 262200.0},
                       {4, 1.7e7}};
    EXPECT_EQ(log, expected) << label;
  });
}

TEST(EventWheel, InsertAfterPeekKeepsExactOrder) {
  // run_until() peeks next_time(), which may pull a tick into the
  // wheel's current mini-heap; events scheduled afterwards at or before
  // that tick must still sort exactly.
  on_both([](auto& q, const char* label) {
    Log log;
    q.schedule_at(100.25, [&] { log.emplace_back(1, q.now_ms()); });
    q.run_until(50.0);  // peeks 100.25, runs nothing
    EXPECT_EQ(q.now_ms(), 50.0) << label;
    q.schedule_at(100.5, [&] { log.emplace_back(2, q.now_ms()); });
    q.schedule_at(100.125, [&] { log.emplace_back(0, q.now_ms()); });
    q.run_all();
    const Log expected{{0, 100.125}, {1, 100.25}, {2, 100.5}};
    EXPECT_EQ(log, expected) << label;
  });
}

TEST(EventWheel, LazyChainRoundMillionLandsExactly) {
  // The Swarm's lazy periodic chain computes round k's time
  // multiplicatively (offset + k * period) on every re-arm. With an
  // inexact period (0.1 has no finite binary representation), additive
  // accumulation would drift by ~1e-9 ms over 10^6 rounds; the
  // multiplicative form rounds once and lands exactly.
  EventQueue q;
  const double offset = 0.7;
  const double period = 0.1;
  const std::uint64_t last = 1'000'000;
  std::uint64_t fired = 0;
  const std::function<void(std::uint64_t)> arm = [&](std::uint64_t k) {
    if (k > last) return;
    q.schedule_at(offset + static_cast<double>(k) * period, [&, k] {
      ++fired;
      arm(k + 1);
    });
  };
  arm(1);
  q.run_all(last + 1);
  EXPECT_EQ(fired, last);
  EXPECT_EQ(q.now_ms(), offset + static_cast<double>(last) * period);
}

// --- Fuzzed lockstep: identical self-scheduling workloads on the wheel
// and the reference heap must produce identical execution logs. ---

struct Lcg {
  std::uint64_t state;
  std::uint32_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  }
};

/// Delay for child c of event `id`: derived from (seed, id, c) alone, so
/// it cannot depend on execution interleaving. Mixed scales hit every
/// wheel level plus the overflow heap.
double child_delay(std::uint64_t seed, int id, int c) {
  Lcg rng{seed ^ (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull) ^
          (static_cast<std::uint64_t>(c) << 48)};
  (void)rng.next();
  const double scales[] = {0.25, 1.0, 63.0, 700.0, 40'000.0,
                           3.0e6, 2.0e7};
  const double scale = scales[rng.next() % 7];
  return scale * (1.0 + (rng.next() % 1000) / 1000.0);
}

template <typename Queue>
Log run_workload(std::uint64_t seed) {
  Queue q;
  Log log;
  int next_id = 0;
  // Each event logs itself and spawns 0-2 children until the id budget
  // is spent — insertion happens mid-drain at every wheel level.
  const std::function<void(int)> fire = [&](int id) {
    log.emplace_back(id, q.now_ms());
    Lcg rng{seed ^ static_cast<std::uint64_t>(id)};
    const int children = static_cast<int>(rng.next() % 3);
    for (int c = 0; c < children && next_id < 400; ++c) {
      const int child = next_id++;
      q.schedule_in(child_delay(seed, id, c), [&, child] { fire(child); });
    }
  };
  for (int i = 0; i < 60; ++i) {
    const int id = next_id++;
    q.schedule_at(child_delay(seed, -1 - i, 0), [&, id] { fire(id); });
  }
  // Half the seeds drain in run_until slices (exercising the peek path),
  // half in one run_all.
  if (seed % 2 == 0) {
    double t = 0.0;
    while (!q.empty()) {
      t += 123'456.789;
      q.run_until(t);
    }
  } else {
    q.run_all(std::numeric_limits<std::size_t>::max());
  }
  return log;
}

TEST(EventWheel, FuzzedWorkloadsMatchHeapLockstep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Log wheel_log = run_workload<EventQueue>(seed);
    const Log heap_log = run_workload<ReferenceQueue>(seed);
    ASSERT_FALSE(wheel_log.empty()) << "seed " << seed;
    EXPECT_EQ(wheel_log, heap_log) << "seed " << seed;
  }
}

TEST(EventWheel, BacklogInstrumentsMatchHeap) {
  // The queue instruments see the same pending counts and latencies on
  // the wheel and the reference heap for the same workload.
  obs::Registry reg[2];
  int which = 0;
  on_both([&](auto& q, const char* label) {
    q.set_observer(&reg[which++]);
    int runs = 0;
    for (int i = 0; i < 40; ++i) {
      q.schedule_at(child_delay(99, -1 - i, 0), [&runs] { ++runs; });
    }
    q.run_all();
    EXPECT_EQ(runs, 40) << label;
  });
  EXPECT_EQ(reg[0].to_text(), reg[1].to_text());
}

}  // namespace
}  // namespace ratt::sim
