// E4 — "normal UNIX processes experience no penalty for the addition of
// share group support" (§7, and design goal 4 of §6).
//
// The share-group hook on the syscall path is one AND of p_flag (§6.3) and
// one null check of p->shaddr. Measured with manual timing (the group
// setup is excluded from the clock):
//   * syscall latency in a plain process (no group anywhere);
//   * syscall latency in a group member whose sync bits are clean;
//   * syscall latency when every call finds a dirty bit (the slow path the
//     fast test avoids);
//   * fork()+wait() latency with zero groups in the system;
//   * one kernel stat-counter increment from 1 to 8 threads at once (every
//     syscall entry and TLB refill pays one).
#include <chrono>

#include "bench/bench_util.h"
#include "obs/stats.h"

namespace sg {
namespace {

constexpr int kCalls = 4096;

double TimeCalls(Env& env) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    benchmark::DoNotOptimize(env.UlimitGet());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void BM_SyscallPlain(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) { elapsed = TimeCalls(env); });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}

BENCHMARK(BM_SyscallPlain)->UseManualTime();

void BM_SyscallGroupClean(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      env.Sproc([](Env&, long) {}, PR_SALL);
      env.WaitChild();  // still a member; bits stay clean from here on
      elapsed = TimeCalls(env);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}

BENCHMARK(BM_SyscallGroupClean)->UseManualTime();

void BM_SyscallGroupDirty(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      env.Sproc([](Env&, long) {}, PR_SALL);
      env.WaitChild();
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Force the slow path: pretend another member updated the umask.
        env.proc().p_flag.fetch_or(kPfSyncUmask, std::memory_order_relaxed);
        benchmark::DoNotOptimize(env.UlimitGet());
      }
      elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}

BENCHMARK(BM_SyscallGroupDirty)->UseManualTime();

void BM_ForkWaitNoGroups(benchmark::State& state) {
  Kernel k;
  constexpr int kPairs = 32;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kPairs; ++i) {
        env.Fork([](Env&, long) {});
        env.WaitChild();
      }
      elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kPairs);
}

BENCHMARK(BM_ForkWaitNoGroups)->UseManualTime()->Unit(benchmark::kMicrosecond);

// All threads bump one registry counter, as every CPU does with
// "sys.entries" and "tlb.misses".
void BM_ObsCounterInc(benchmark::State& state) {
  static obs::Counter& c = obs::Stats::Global().counter("bench.counter_inc");
  for (auto _ : state) {
    c.Inc();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ObsCounterInc)->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

}  // namespace
}  // namespace sg
