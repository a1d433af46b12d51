// E9 — the §6.3 attribute-synchronization machinery itself:
//   * the kernel-entry fast path (clean bits) vs slow path (dirty bits) —
//     see also bench_no_penalty for the plain-process baseline;
//   * the cost of UPDATING a shared scalar as group size grows (the update
//     flags every other sharing member: linear in members);
//   * the pull cost a member pays on its first entry after being flagged;
//   * the group descriptor table: open/close while other members look
//     descriptors up, and the locked lookup against a private table's.
#include <atomic>
#include <chrono>

#include "bench/bench_util.h"
#include "core/shaddr.h"

namespace sg {
namespace {

double Secs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Sleeping members so the group has `members` extra entries to flag.
std::vector<pid_t> SpawnSleepers(Env& env, int members) {
  std::vector<pid_t> pids;
  for (int i = 0; i < members; ++i) {
    const pid_t pid = env.Sproc(
        [](Env& c, long) {
          while (true) {
            c.Pause();
          }
        },
        PR_SALL);
    if (pid > 0) {
      pids.push_back(pid);
    }
  }
  return pids;
}

void ReapSleepers(Env& env, const std::vector<pid_t>& pids) {
  for (pid_t pid : pids) {
    env.Kill(pid, kSigKill);
  }
  for (size_t i = 0; i < pids.size(); ++i) {
    env.WaitChild();
  }
}

void BM_UmaskUpdateVsGroupSize(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Kernel k;
  constexpr int kCalls = 1024;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      auto pids = SpawnSleepers(env, members);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        env.Umask(static_cast<mode_t>(i & 0777));  // update + flag the others
      }
      elapsed = Secs(t0);
      ReapSleepers(env, pids);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["members"] = members;
}

BENCHMARK(BM_UmaskUpdateVsGroupSize)->Arg(0)->Arg(1)->Arg(3)->Arg(7)->Arg(15)
    ->UseManualTime();

void BM_PullCostAfterFlag(benchmark::State& state) {
  Kernel k;
  constexpr int kCalls = 1024;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      env.Sproc([](Env&, long) {}, PR_SALL);
      env.WaitChild();
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Flag ourselves dirty on every resource, then pay one entry-sync.
        env.proc().p_flag.fetch_or(kPfSyncAny, std::memory_order_relaxed);
        benchmark::DoNotOptimize(env.UlimitGet());
      }
      elapsed = Secs(t0);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}

BENCHMARK(BM_PullCostAfterFlag)->UseManualTime();

// One member opens and closes while the other `members - 1` members issue
// lseek(2)s on a shared descriptor in a loop: every call of either kind
// takes the group table's bracket lock (s_fupdsema).
void BM_FdOpenCloseVsGroupSize(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Kernel k;
  constexpr int kCalls = 1024;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      const int fd = env.Open("/seek", kOpenRdwr | kOpenCreat);
      std::atomic<bool> done{false};
      std::atomic<int> running{0};
      env.Sproc([](Env&, long) {}, PR_SALL);  // a group even at members=1
      env.WaitChild();
      for (int i = 1; i < members; ++i) {
        env.Sproc(
            [&](Env& c, long) {
              running.fetch_add(1);
              while (!done.load(std::memory_order_relaxed)) {
                benchmark::DoNotOptimize(c.Lseek(fd, 0));
              }
            },
            PR_SALL);
      }
      while (running.load() < members - 1) {
        env.Yield();
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        env.Close(env.Open("/churn", kOpenWrite | kOpenCreat));
      }
      elapsed = Secs(t0);
      done = true;
      for (int i = 1; i < members; ++i) {
        env.WaitChild();
      }
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["members"] = members;
}

BENCHMARK(BM_FdOpenCloseVsGroupSize)->Arg(1)->Arg(2)->Arg(4)->UseManualTime();

// The price of fget on a shared table — bracket lock, one reference taken
// and dropped — against a private table's plain slot read, measured as
// lseek(2) on one descriptor (arg 1 = PR_SFDS group of one, 0 = no group).
void BM_FdLookupSharedVsPrivate(benchmark::State& state) {
  const bool shared = state.range(0) != 0;
  Kernel k;
  constexpr int kCalls = 4096;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      const int fd = env.Open("/lookup", kOpenRdwr | kOpenCreat);
      if (shared) {
        env.Sproc([](Env&, long) {}, PR_SALL);
        env.WaitChild();
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        benchmark::DoNotOptimize(env.Lseek(fd, 0));
      }
      elapsed = Secs(t0);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["shared"] = shared ? 1 : 0;
}

BENCHMARK(BM_FdLookupSharedVsPrivate)->Arg(0)->Arg(1)->UseManualTime();

// Scalar update cost vs group size after the generation rework: the update
// bumps one lane instead of walking the member chain, so the curve should
// be flat in `members` (compare BM_UmaskUpdateVsGroupSize in BENCH_4).
// `members` counts OTHER live members: every point runs inside a share
// group (a group of one at members=0), so the series isolates scaling from
// the fixed private-path-vs-group-path delta that
// BM_UmaskUpdateVsGroupSize/0 already records.
void BM_ScalarUpdateVsGroupSize(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Kernel k;
  constexpr int kCalls = 1024;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      env.Sproc([](Env&, long) {}, PR_SALL);  // ensure the group exists
      env.WaitChild();
      auto pids = SpawnSleepers(env, members);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Alternate two shared scalars so both Update paths stay hot.
        if ((i & 1) == 0) {
          env.Umask(static_cast<mode_t>(i & 0777));
        } else {
          (void)env.UlimitSet(u64{1} << 30);
        }
      }
      elapsed = Secs(t0);
      ReapSleepers(env, pids);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["members"] = members;
}

BENCHMARK(BM_ScalarUpdateVsGroupSize)->Arg(0)->Arg(1)->Arg(3)->Arg(7)->Arg(15)
    ->UseManualTime();

}  // namespace
}  // namespace sg
