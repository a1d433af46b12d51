#include "obs/stats.h"

namespace sg {
namespace obs {

u32 Counter::AssignStripe() {
  static std::atomic<u32> next{0};
  tl_stripe_ = next.fetch_add(1, std::memory_order_relaxed);
  return tl_stripe_;
}

Stats& Stats::Global() {
  static Stats* g = new Stats();  // leaked: see header
  return *g;
}

Counter& Stats::counter(std::string_view name) {
  MutexGuard l(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Stats::gauge(std::string_view name) {
  MutexGuard l(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LatencyHisto& Stats::histo(std::string_view name) {
  MutexGuard l(mu_);
  auto it = histos_.find(name);
  if (it == histos_.end()) {
    it = histos_.emplace(std::string(name), std::make_unique<LatencyHisto>()).first;
  }
  return *it->second;
}

u64 Stats::CounterValue(std::string_view name) const {
  MutexGuard l(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

u64 Stats::HistoCount(std::string_view name) const {
  MutexGuard l(mu_);
  auto it = histos_.find(name);
  return it == histos_.end() ? 0 : it->second->count();
}

std::string Stats::RenderText() const {
  MutexGuard l(mu_);
  std::string out;
  out.reserve(1024);
  for (const auto& [name, c] : counters_) {
    out += name;
    out += ' ';
    out += std::to_string(c->value());
    out += '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out += name;
    out += ' ';
    out += std::to_string(g->value());
    out += '\n';
  }
  for (const auto& [name, h] : histos_) {
    const u64 n = h->count();
    out += name + ".count " + std::to_string(n) + '\n';
    out += name + ".sum_ns " + std::to_string(h->sum_ns()) + '\n';
    out += name + ".avg_ns " + std::to_string(n == 0 ? 0 : h->sum_ns() / n) + '\n';
    for (u32 b = 0; b < LatencyHisto::kBuckets; ++b) {
      const u64 v = h->bucket(b);
      if (v != 0) {
        out += name + ".le_2e" + std::to_string(b) + " " + std::to_string(v) + '\n';
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace sg
