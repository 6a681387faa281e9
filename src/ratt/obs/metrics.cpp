#include "ratt/obs/metrics.hpp"

#include <charconv>
#include <stdexcept>

namespace ratt::obs {

namespace {

// Shortest round-trip double — deterministic across runs and locales.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

std::vector<double> default_latency_bounds_ms() {
  return {0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0};
}

void Histogram::absorb(Histogram& other) {
  if (other.bounds_ != bounds_) {
    throw std::invalid_argument(
        "Histogram::absorb: bucket bounds differ");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(
        other.buckets_[i].exchange(0, std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.exchange(0, std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.exchange(0.0, std::memory_order_relaxed),
                 std::memory_order_relaxed);
  detail::atomic_min(
      min_, other.min_.exchange(std::numeric_limits<double>::infinity(),
                                std::memory_order_relaxed));
  detail::atomic_max(
      max_, other.max_.exchange(-std::numeric_limits<double>::infinity(),
                                std::memory_order_relaxed));
}

void Registry::absorb(Registry& shard) {
  const std::scoped_lock lock(mutex_, shard.mutex_);
  for (auto& [name, c] : shard.counters_) {
    counters_.try_emplace(name).first->second.absorb(c);
  }
  for (auto& [name, g] : shard.gauges_) {
    gauges_.try_emplace(name).first->second.absorb(g);
  }
  for (auto& [name, h] : shard.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, Histogram(h.bounds())).first;
    }
    it->second.absorb(h);
  }
}

const Counter* Registry::find_counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string Registry::to_text() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += "counter ";
    out += name;
    out += " value=";
    append_double(out, c.value());
    out += " count=";
    append_double(out, static_cast<double>(c.count()));
    out += '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out += "gauge ";
    out += name;
    out += " value=";
    append_double(out, g.value());
    out += " max=";
    append_double(out, g.max());
    out += '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out += "histogram ";
    out += name;
    out += " count=";
    append_double(out, static_cast<double>(h.count()));
    out += " sum=";
    append_double(out, h.sum());
    out += " min=";
    append_double(out, h.min());
    out += " max=";
    append_double(out, h.max());
    out += " buckets=[";
    const std::vector<std::uint64_t> buckets = h.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i != 0) out += ',';
      append_double(out, static_cast<double>(buckets[i]));
    }
    out += "]\n";
  }
  return out;
}

}  // namespace ratt::obs
