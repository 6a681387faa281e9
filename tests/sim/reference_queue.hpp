// Reference event queue for differential tests of sim::EventQueue: a
// plain binary heap ordered by (at_ms, seq). It has the same public
// surface and publishes the same instruments as the timing wheel, so a
// test can run one workload on both and compare execution logs and
// registry text. Test-only — the simulator schedules on the wheel.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "ratt/obs/metrics.hpp"

namespace ratt::sim::reference {

class ReferenceQueue {
 public:
  using Action = std::function<void()>;

  double now_ms() const { return now_ms_; }

  void set_observer(obs::Registry* registry) {
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

  void schedule_at(double at_ms, Action action) {
    if (!std::isfinite(at_ms)) {
      throw std::invalid_argument("ReferenceQueue: non-finite event time");
    }
    if (at_ms < now_ms_) {
      throw std::invalid_argument("ReferenceQueue: scheduling into the past");
    }
    heap_.push_back(Event{at_ms, next_seq_++, now_ms_, std::move(action)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    if (obs_backlog_ != nullptr) {
      obs_backlog_->set(static_cast<double>(pending()));
    }
  }

  void schedule_in(double delay_ms, Action action) {
    schedule_at(now_ms_ + delay_ms, std::move(action));
  }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  bool run_next() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ms_ = ev.at_ms;
    if (obs_backlog_ != nullptr) {
      obs_backlog_->set(static_cast<double>(pending()));
      obs_latency_->observe(ev.at_ms - ev.scheduled_ms);
      obs_events_run_->inc();
    }
    ev.action();
    return true;
  }

  void run_until(double until_ms) {
    while (!heap_.empty() && heap_.front().at_ms <= until_ms) run_next();
    now_ms_ = std::max(now_ms_, until_ms);
  }

  std::size_t run_all(std::size_t max_events = 1'000'000) {
    std::size_t n = 0;
    while (n < max_events && run_next()) ++n;
    if (obs_leftover_ != nullptr) {
      obs_leftover_->set(static_cast<double>(pending()));
    }
    return pending();
  }

 private:
  struct Event {
    double at_ms;
    std::uint64_t seq;
    double scheduled_ms;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  obs::Gauge* obs_backlog_ = nullptr;
  obs::Histogram* obs_latency_ = nullptr;
  obs::Counter* obs_events_run_ = nullptr;
  obs::Gauge* obs_leftover_ = nullptr;
};

}  // namespace ratt::sim::reference
