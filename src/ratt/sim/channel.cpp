#include "ratt/sim/channel.hpp"

#include <algorithm>

namespace ratt::sim {

void Channel::deliver(const Sink& sink, Bytes payload, double delay_ms) {
  if (!sink) return;
  // The sink is copied into the event: a delivery outlives any later
  // set_*_sink() call — and the Channel itself — without dangling. The
  // delay is clamped so no tap disposition (e.g. a negative extra delay)
  // can schedule a delivery into the past, which the queue rejects.
  queue_->schedule_in(std::max(delay_ms, 0.0),
                      [sink, payload = std::move(payload)] { sink(payload); });
}

void Channel::dispatch(const Sink& sink, Bytes payload,
                       ChannelTap::Disposition d,
                       std::uint64_t& delivery_count) {
  Bytes delivered =
      d.mutated.has_value() ? std::move(*d.mutated) : std::move(payload);
  for (const double dup_delay : d.duplicate_delays_ms) {
    ++delivery_count;
    deliver(sink, delivered, latency_ms_ + dup_delay);
  }
  ++delivery_count;
  deliver(sink, std::move(delivered), latency_ms_ + d.extra_delay_ms);
}

void Channel::verifier_send(Bytes payload) {
  // Ids advance on every send, tapped or not, so a tap attached later
  // sees the same ids; the message copy is made only for a tap.
  const std::uint64_t id = next_id_++;
  ChannelTap::Disposition d;
  if (tap_ != nullptr) {
    d = tap_->on_to_prover(TappedMessage{payload, queue_->now_ms(), id});
  }
  if (!d.deliver) return;
  dispatch(prover_sink_, std::move(payload), std::move(d),
           to_prover_count_);
}

void Channel::prover_send(Bytes payload) {
  const std::uint64_t id = next_id_++;
  ChannelTap::Disposition d;
  if (tap_ != nullptr) {
    d = tap_->on_to_verifier(TappedMessage{payload, queue_->now_ms(), id});
  }
  if (!d.deliver) return;
  dispatch(verifier_sink_, std::move(payload), std::move(d),
           to_verifier_count_);
}

void Channel::inject_to_prover(Bytes payload, double delay_ms) {
  ++to_prover_count_;
  deliver(prover_sink_, std::move(payload), delay_ms);
}

void Channel::inject_to_verifier(Bytes payload, double delay_ms) {
  ++to_verifier_count_;
  deliver(verifier_sink_, std::move(payload), delay_ms);
}

}  // namespace ratt::sim
