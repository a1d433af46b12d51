#include "inject/inject.h"

#include <thread>

#include "base/check.h"
#include "obs/trace.h"

namespace sg {
namespace inject {

namespace internal {
std::atomic<InjectionPlan*> g_active{nullptr};
}  // namespace internal

namespace {

// splitmix64 finalizer: full-avalanche mix so consecutive hit indices and
// near-identical seeds produce unrelated decisions.
u64 Mix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a over the point name: the decision depends on WHERE it is drawn,
// so moving a point or adding one upstream changes only that stream.
u64 HashName(const char* s) {
  u64 h = 0xcbf29ce484222325ull;
  for (; *s != '\0'; ++s) {
    h = (h ^ static_cast<u64>(static_cast<unsigned char>(*s))) * 0x100000001b3ull;
  }
  return h;
}

// Each plan gets a fresh epoch so the per-thread hit counters restart at
// zero for every plan — run N of a seed draws the same stream as run 1.
std::atomic<u64> g_epoch{0};

struct ThreadStream {
  u64 epoch = 0;
  u64 hits = 0;
};
thread_local ThreadStream tl_stream;

}  // namespace

InjectionPlan::InjectionPlan(u64 seed, const PlanConfig& cfg)
    : seed_(seed),
      epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1),
      cfg_(cfg) {}

u64 InjectionPlan::Draw(const char* point) {
  if (tl_stream.epoch != epoch_) {
    tl_stream.epoch = epoch_;
    tl_stream.hits = 0;
  }
  const u64 hit = tl_stream.hits++;
  // A simulated process is pinned to one host thread, so the thread-local
  // hit index IS the per-process hit index; pid 0 covers bare test threads.
  const u64 pid = static_cast<u64>(static_cast<u32>(obs::CurrentTraceContext().pid));
  const u64 h = Mix(seed_ ^ Mix(pid) ^ Mix(hit) ^ HashName(point));
  digest_.fetch_xor(Mix(h), std::memory_order_relaxed);
  decisions_.fetch_add(1, std::memory_order_relaxed);
  return h;
}

void InjectionPlan::Perturb(const char* point) {
  if (cfg_.on_point) {
    cfg_.on_point(point);
  }
  const u64 h = Draw(point);
  const u32 u = static_cast<u32>(h % 1000000);
  if (u < cfg_.yield_ppm) {
    SG_OBS_INC("inject.yields");
    std::this_thread::yield();
  } else if (u < cfg_.yield_ppm + cfg_.delay_ppm) {
    SG_OBS_INC("inject.delays");
    const u32 spins = static_cast<u32>((h >> 32) % (cfg_.max_delay_spins + 1));
    for (u32 i = 0; i < spins; ++i) {
      // Compiler barrier only: stretches the window without a syscall.
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
  }
}

bool InjectionPlan::ShouldFail(const char* point) {
  const u64 h = Draw(point);
  if (static_cast<u32>(h % 1000000) < cfg_.fault_ppm) {
    SG_OBS_INC("inject.faults_fired");
    return true;
  }
  return false;
}

ScopedInjection::ScopedInjection(InjectionPlan& plan) : plan_(&plan) {
  InjectionPlan* expected = nullptr;
  SG_CHECK(internal::g_active.compare_exchange_strong(expected, plan_,
                                                      std::memory_order_acq_rel));
}

ScopedInjection::~ScopedInjection() {
  InjectionPlan* expected = plan_;
  SG_CHECK(internal::g_active.compare_exchange_strong(expected, nullptr,
                                                      std::memory_order_acq_rel));
}

void PointHit(const char* point) {
  InjectionPlan* p = ActivePlan();
  if (p != nullptr) {
    p->Perturb(point);
  }
}

bool FaultHit(const char* point) {
  InjectionPlan* p = ActivePlan();
  return p != nullptr && p->ShouldFail(point);
}

}  // namespace inject
}  // namespace sg
