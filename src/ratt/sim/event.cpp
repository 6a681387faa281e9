#include "ratt/sim/event.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace ratt::sim {

void EventQueue::set_observer(obs::Registry* registry) {
  if (registry == nullptr) {
    obs_backlog_ = nullptr;
    obs_latency_ = nullptr;
    obs_events_run_ = nullptr;
    obs_leftover_ = nullptr;
    return;
  }
  obs_backlog_ = &registry->gauge("queue.backlog");
  obs_latency_ = &registry->histogram("queue.event_latency_ms");
  obs_events_run_ = &registry->counter("queue.events_run");
  obs_leftover_ = &registry->gauge("queue.runaway_leftover");
}

void EventQueue::schedule_at(double at_ms, Action action) {
  if (!std::isfinite(at_ms)) {
    // NaN compares false against now_ms_ below AND against every other
    // event time, so it would both bypass the past-check and break the
    // strict weak ordering of the wheel's heaps. Infinities order but never run.
    throw std::invalid_argument("EventQueue: non-finite event time");
  }
  if (at_ms < now_ms_) {
    throw std::invalid_argument("EventQueue: scheduling into the past");
  }
  wheel_place(Event{at_ms, next_seq_++, now_ms_, std::move(action)});
  ++wheel_size_;
  if (obs_backlog_ != nullptr) {
    obs_backlog_->set(static_cast<double>(pending()));
  }
}

void EventQueue::schedule_in(double delay_ms, Action action) {
  schedule_at(now_ms_ + delay_ms, std::move(action));
}

std::uint64_t EventQueue::tick_of(double at_ms) {
  // Saturate far-future times: they live in the overflow heap, which
  // orders by exact at_ms anyway, so a clamped tick only affects when
  // they re-enter the wheel — never their execution order.
  constexpr double kMaxTick = 9.0e15;  // < 2^53, exactly representable
  if (at_ms >= kMaxTick * kTickMs) return static_cast<std::uint64_t>(kMaxTick);
  return static_cast<std::uint64_t>(at_ms / kTickMs);
}

void EventQueue::wheel_place(Event&& ev) {
  const std::uint64_t t = tick_of(ev.at_ms);
  if (t <= cursor_) {
    // At or behind the cursor tick: the mini-heap gives exact
    // (at_ms, seq) order, including sub-tick interleavings.
    current_.push_back(std::move(ev));
    std::push_heap(current_.begin(), current_.end(), Later{});
    return;
  }
  const std::uint64_t d = t - cursor_;
  if (d >= kWheelSpan) {
    overflow_.push_back(std::move(ev));
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    return;
  }
  // Level k covers distances [64^k, 64^(k+1)).
  int level = 0;
  while ((d >> (kSlotBits * (level + 1))) != 0) ++level;
  const std::uint64_t idx = (t >> (kSlotBits * level)) & (kSlotsPerLevel - 1);
  Slot& slot = slots_[static_cast<std::size_t>(level) * kSlotsPerLevel + idx];
  if (slot.events.empty() || t < slot.min_tick) slot.min_tick = t;
  slot.events.push_back(std::move(ev));
  occupied_[static_cast<std::size_t>(level)] |= 1ull << idx;
}

std::uint64_t EventQueue::wheel_next_tick() const {
  std::uint64_t best = ~0ull;
  for (int level = 0; level < kLevels; ++level) {
    const std::uint64_t bits = occupied_[static_cast<std::size_t>(level)];
    if (bits == 0) continue;
    // Pending slots on level k hold coordinates (tick >> 6k) in
    // (u, u+64] where u is the cursor's coordinate; rotating the
    // occupancy bitmap so slot u+1 lands at bit 0 makes the first set
    // bit the level's earliest slot.
    const std::uint64_t u = cursor_ >> (kSlotBits * level);
    const int rot = static_cast<int>((u + 1) & (kSlotsPerLevel - 1));
    const std::uint64_t rolled = std::rotr(bits, rot);
    const int j = std::countr_zero(rolled);
    std::uint64_t candidate;
    if (level == 0) {
      // An L0 slot holds exactly one tick value, cursor_ + distance.
      candidate = cursor_ + static_cast<std::uint64_t>(j) + 1;
    } else {
      const std::uint64_t idx =
          static_cast<std::uint64_t>(rot + j) & (kSlotsPerLevel - 1);
      candidate =
          slots_[static_cast<std::size_t>(level) * kSlotsPerLevel + idx]
              .min_tick;
    }
    // The cross-level min matters: an outer-level event that has not
    // cascaded yet can still precede every inner-level candidate.
    best = std::min(best, candidate);
  }
  if (!overflow_.empty()) {
    best = std::min(best, tick_of(overflow_.front().at_ms));
  }
  return best;
}

void EventQueue::wheel_advance_to(std::uint64_t tick) {
  cursor_ = tick;
  // Overflow events now inside the wheel span re-enter the hierarchy.
  while (!overflow_.empty()) {
    const std::uint64_t t = tick_of(overflow_.front().at_ms);
    if (t - cursor_ >= kWheelSpan) break;
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Event ev = std::move(overflow_.back());
    overflow_.pop_back();
    wheel_place(std::move(ev));
  }
  // Cascade outer levels first: a slot spilled from L3 can land in
  // L2/L1/L0 slots that the lower iterations then visit.
  for (int level = kLevels - 1; level >= 1; --level) {
    const std::uint64_t idx =
        (tick >> (kSlotBits * level)) & (kSlotsPerLevel - 1);
    Slot& slot = slots_[static_cast<std::size_t>(level) * kSlotsPerLevel + idx];
    if (slot.events.empty()) continue;
    // Same slot index also serves ticks a whole level period later; the
    // slot only cascades when its stored epoch is the one landed on.
    if ((slot.min_tick >> (kSlotBits * level)) !=
        (tick >> (kSlotBits * level))) {
      continue;
    }
    std::vector<Event> moved;
    moved.swap(slot.events);
    occupied_[static_cast<std::size_t>(level)] &= ~(1ull << idx);
    for (auto& ev : moved) wheel_place(std::move(ev));
  }
  // The landed L0 slot holds exactly tick `tick`; the whole bucket moves
  // to the current mini-heap.
  const std::uint64_t idx0 = tick & (kSlotsPerLevel - 1);
  Slot& slot0 = slots_[idx0];
  if (!slot0.events.empty()) {
    for (auto& ev : slot0.events) {
      current_.push_back(std::move(ev));
      std::push_heap(current_.begin(), current_.end(), Later{});
    }
    slot0.events.clear();
    occupied_[0] &= ~(1ull << idx0);
  }
}

void EventQueue::wheel_load_current() {
  // The next tick always yields at least one event into current_: it is
  // the min over L0 candidates, level min_ticks and the overflow top,
  // and advancing to it drains the structure that produced it.
  wheel_advance_to(wheel_next_tick());
}

bool EventQueue::wheel_pop(Event& out) {
  if (wheel_size_ == 0) return false;
  if (current_.empty()) wheel_load_current();
  std::pop_heap(current_.begin(), current_.end(), Later{});
  out = std::move(current_.back());
  current_.pop_back();
  --wheel_size_;
  return true;
}

double EventQueue::next_time() {
  // May load a tick into current_; harmless — later insertions with a
  // tick at or behind the cursor route to current_ and still sort in
  // exact (at_ms, seq) order, and now_ms_ is untouched here.
  if (current_.empty()) wheel_load_current();
  return current_.front().at_ms;
}

bool EventQueue::run_next() {
  Event ev;
  if (!wheel_pop(ev)) return false;
  // Commit queue state before invoking the action: if it throws, the
  // event is consumed, now_ms has advanced and the instruments agree
  // with the pending set — the caller can keep running the queue.
  now_ms_ = ev.at_ms;
  if (obs_backlog_ != nullptr) {
    obs_backlog_->set(static_cast<double>(pending()));
    obs_latency_->observe(ev.at_ms - ev.scheduled_ms);
    obs_events_run_->inc();
  }
  ev.action();
  return true;
}

void EventQueue::run_until(double until_ms) {
  while (!empty() && next_time() <= until_ms) {
    run_next();
  }
  now_ms_ = std::max(now_ms_, until_ms);
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && run_next()) ++n;
  const std::size_t leftover = pending();
  if (obs_leftover_ != nullptr) {
    obs_leftover_->set(static_cast<double>(leftover));
  }
  return leftover;
}

}  // namespace ratt::sim
