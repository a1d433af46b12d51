// Measurement plumbing of the end-to-end benchmark: exact latency samples
// for the end-to-end metrics, and, for the traced run, per-layer span
// histograms plus a sampled span log that links one request's spans across
// processes and exports as Chrome trace-event JSON.
//
// Everything here is benchmark-owned and lives outside the kernel: a span
// is timed around the benchmark's own call into a layer's public function.
// Each simulated process records into its own ThreadBuf, so the hot path
// takes no lock.
#ifndef PERFBENCH_BENCH_TRACE_H_
#define PERFBENCH_BENCH_TRACE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

inline u64 NowNs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// SplitMix64: every generated input derives from the run's --seed.
class Rng {
 public:
  explicit Rng(u64 seed) : s_(seed) {}
  u64 Next() {
    u64 z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  u64 Below(u64 n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Below(i)]);
    }
  }

 private:
  u64 s_;
};

// Quantile of `n` sorted samples, interpolated between order statistics.
inline double SortedQuantile(const u32* s, size_t n, double q) {
  if (n == 0) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(s[lo]) * (1.0 - frac) + static_cast<double>(s[hi]) * frac;
}

// Op latencies (ns) of one recording thread: a fixed-capacity uniform
// reservoir. The buffer is written once at construction, so the run's
// resident set does not grow with the number of ops completed.
class Reservoir {
 public:
  Reservoir(size_t cap, u64 seed) : buf_(cap, 0), rng_(seed) {}

  void Add(u64 ns) {
    const u32 v = static_cast<u32>(std::min<u64>(ns, UINT32_MAX));
    ++seen_;
    if (n_ < buf_.size()) {
      buf_[n_++] = v;
    } else if (const u64 j = rng_.Below(seen_); j < buf_.size()) {
      buf_[j] = v;
    }
  }
  // Copies the kept samples to `dst` (room for `cap` values) and returns
  // their number. Merging reservoirs that overflowed weights each
  // thread by its capacity, not its op count; the workloads that merge
  // several (one per member) run members at equal rates.
  size_t CopyTo(u32* dst) const {
    std::copy(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n_), dst);
    return n_;
  }

 private:
  std::vector<u32> buf_;
  size_t n_ = 0;
  u64 seen_ = 0;
  Rng rng_;
};

// Log-linear histogram of span durations (ns): exact below 64 ns, then 64
// sub-buckets per power of two (under 1.6% relative width).
class Histo {
 public:
  static constexpr u32 kSub = 64;
  static constexpr u32 kBuckets = kSub + 40 * kSub;

  void Add(u64 ns) {
    ++b_[Index(ns)];
    ++count_;
  }
  void Merge(const Histo& o) {
    for (u32 i = 0; i < kBuckets; ++i) {
      b_[i] += o.b_[i];
    }
    count_ += o.count_;
  }
  u64 count() const { return count_; }
  // Quantile with linear interpolation inside the bucket that holds it.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(count_);
    double cum = 0;
    for (u32 i = 0; i < kBuckets; ++i) {
      if (b_[i] == 0) {
        continue;
      }
      if (cum + static_cast<double>(b_[i]) >= target) {
        const double lo = Lower(i);
        const double hi = Lower(i + 1);
        return lo + (hi - lo) * (target - cum) / static_cast<double>(b_[i]);
      }
      cum += static_cast<double>(b_[i]);
    }
    return Lower(kBuckets - 1);
  }

 private:
  static u32 Index(u64 v) {
    if (v < kSub) {
      return static_cast<u32>(v);
    }
    const u32 e = 63 - static_cast<u32>(__builtin_clzll(v));  // >= 6
    const u32 idx = kSub + (e - 6) * kSub + static_cast<u32>((v >> (e - 6)) & (kSub - 1));
    return std::min(idx, kBuckets - 1);
  }
  static double Lower(u32 i) {
    if (i < kSub) {
      return i;
    }
    const u32 e = (i - kSub) / kSub + 6;
    const u32 sub = (i - kSub) % kSub;
    return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(e) - 6);
  }

  std::array<u64, kBuckets> b_{};
  u64 count_ = 0;
};

// Span names. The three roots are one op each: a request (the servers), a
// map→touch→unmap cycle, a pass over the table. Every other name is a
// call into one layer's public function; its histogram is the per-layer
// `<name>_ns` metric.
enum class S : std::uint8_t {
  kRequest,
  kVmOp,
  kScanPass,
  kFsOpen,
  kFsClose,
  kFsRead,
  kFsWrite,
  kPipeWrite,
  kPipeRead,
  kSemPost,
  kSemWait,
  kQueueWait,
  kReplyWait,
  kMailboxLock,
  kFirstEntry,
  kCompute,
  kVmMmap,
  kVmFirstTouch,
  kVmMunmap,
  kVmLoad,
  kCount
};
inline constexpr u32 kNumSpans = static_cast<u32>(S::kCount);
inline constexpr std::array<const char*, kNumSpans> kSpanNames = {
    "request",       "vm.op",          "scan.pass",     "fs.open",       "fs.close",
    "fs.read",       "fs.write",       "fs.pipe_write", "fs.pipe_read",  "ipc.sem_post",
    "ipc.sem_wait",  "proc.queue_wait", "proc.reply_wait", "sync.mailbox_lock", "core.first_entry",
    "app.compute",
    "vm.mmap",       "vm.first_touch", "vm.munmap",     "vm.load"};
inline bool IsRoot(S s) { return s == S::kRequest || s == S::kVmOp || s == S::kScanPass; }
// Hand-over gaps the benchmark times from its own timestamps, not around a
// call into a layer: they must not count as time a layer explains.
inline bool IsWait(S s) { return s == S::kQueueWait || s == S::kReplyWait; }

struct Span {
  u64 t0;
  u64 t1;
  u64 req;  // request / op id; 0 = not tied to one op
  u32 tid;
  S name;
  S parent;
};

// One simulated process's recording buffer.
struct ThreadBuf {
  u32 tid = 0;
  std::string label;
  std::array<Histo, kNumSpans> histos{};
  std::vector<Span> spans;  // sampled ops only, up to capacity
};

class Tracer {
 public:
  // Spans of op ids that are multiples of kSampleEvery are kept for
  // linking and export; every span feeds the histograms.
  static constexpr u64 kSampleEvery = 64;
  static constexpr size_t kSpanCap = size_t{1} << 15;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // The recording buffer of the process playing `label`; null when tracing
  // is off for the whole run (nothing is recorded then). Boots run one
  // after another, so each label has one process at a time, and every
  // boot's process of one role records into the same buffer.
  ThreadBuf* Attach(const std::string& label) {
    if (!enabled_) {
      return nullptr;
    }
    std::lock_guard<std::mutex> l(mu_);
    for (const auto& b : bufs_) {
      if (b->label == label) {
        return b.get();
      }
    }
    auto b = std::make_unique<ThreadBuf>();
    b->tid = static_cast<u32>(bufs_.size() + 1);
    b->label = label;
    b->spans.reserve(kSpanCap);
    bufs_.push_back(std::move(b));
    return bufs_.back().get();
  }

  static void Record(ThreadBuf* b, S name, S parent, u64 req, u64 t0, u64 t1) {
    b->histos[static_cast<u32>(name)].Add(t1 - t0);
    if (req != 0 && req % kSampleEvery == 0 && b->spans.size() < kSpanCap) {
      b->spans.push_back(Span{t0, t1, req, b->tid, name, parent});
    }
  }

  // Read after every recording process has exited.
  Histo Merged(S name) const {
    Histo h;
    for (const auto& b : bufs_) {
      h.Merge(b->histos[static_cast<u32>(name)]);
    }
    return h;
  }

  // Share of the sampled ops' end-to-end time covered by the union of
  // their child spans for which `pick(name)` holds, clipped to the root,
  // summed over ops. With the layer calls picked, this is the time on the
  // op's path that some layer call explains.
  template <typename Pick>
  double Coverage(Pick pick) const {
    std::map<u64, std::pair<const Span*, std::vector<const Span*>>> ops;
    for (const auto& b : bufs_) {
      for (const Span& s : b->spans) {
        auto& e = ops[s.req];
        if (IsRoot(s.name)) {
          e.first = &s;
        } else if (pick(s.name)) {
          e.second.push_back(&s);
        }
      }
    }
    double covered = 0;
    double total = 0;
    std::vector<std::pair<u64, u64>> iv;
    for (auto& [req, e] : ops) {
      const Span* root = e.first;
      if (root == nullptr || root->t1 <= root->t0) {
        continue;
      }
      iv.clear();
      for (const Span* c : e.second) {
        const u64 a = std::max(c->t0, root->t0);
        const u64 z = std::min(c->t1, root->t1);
        if (a < z) {
          iv.emplace_back(a, z);
        }
      }
      std::sort(iv.begin(), iv.end());
      u64 cov = 0;
      u64 cur_a = 0;
      u64 cur_z = 0;
      for (const auto& [a, z] : iv) {
        if (a > cur_z) {
          cov += cur_z - cur_a;
          cur_a = a;
          cur_z = z;
        } else {
          cur_z = std::max(cur_z, z);
        }
      }
      cov += cur_z - cur_a;
      covered += static_cast<double>(cov);
      total += static_cast<double>(root->t1 - root->t0);
    }
    return total > 0 ? covered / total : 0.0;
  }

  // Writes up to `max_spans` sampled spans (earliest first) as Chrome
  // trace-event JSON, which Perfetto and about:tracing open.
  bool ExportChromeJson(const std::string& path, size_t max_spans) const {
    std::vector<const Span*> all;
    for (const auto& b : bufs_) {
      for (const Span& s : b->spans) {
        all.push_back(&s);
      }
    }
    std::sort(all.begin(), all.end(), [](const Span* a, const Span* b) { return a->t0 < b->t0; });
    if (all.size() > max_spans) {
      all.resize(max_spans);
    }
    const u64 base = all.empty() ? 0 : all.front()->t0;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    for (const auto& b : bufs_) {
      std::fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"name\":\"%s\"}}",
                   first ? "" : ",\n", b->tid, b->label.c_str());
      first = false;
    }
    for (const Span* s : all) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,\"parent\":\"%s\"}}",
                   kSpanNames[static_cast<u32>(s->name)], LayerOf(s->name).c_str(), s->tid,
                   static_cast<double>(s->t0 - base) / 1e3,
                   static_cast<double>(s->t1 - s->t0) / 1e3,
                   static_cast<unsigned long long>(s->req),
                   IsRoot(s->name) ? "" : kSpanNames[static_cast<u32>(s->parent)]);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::string LayerOf(S name) {
    const std::string n = kSpanNames[static_cast<u32>(name)];
    return n.substr(0, n.find('.'));
  }

  const bool enabled_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

}  // namespace pb

#endif  // PERFBENCH_BENCH_TRACE_H_
