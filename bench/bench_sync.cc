// E6 — synchronization cost (§3 "Synchronization"): "The best performance
// is obtained using some form of busy-waiting ... synchronization speeds
// can approach memory access speeds", versus mechanisms that require
// kernel interaction (System V semaphores, pipes, signals).
//
// Two measurements per mechanism:
//   * UNCONTENDED cost — acquire/release (or send/recv) with no partner;
//     this isolates the kernel-interaction tax the paper talks about;
//   * PING-PONG — two tasks alternating, counting round trips (on a small
//     host this is scheduling-bound for every mechanism, so the uncontended
//     numbers plus the syscalls-per-round counter carry the §3 argument).
#include <atomic>
#include <thread>

#include "bench/bench_util.h"

namespace sg {
namespace {

void BM_UncontendedSpinlock(benchmark::State& state) {
  Kernel k;
  constexpr int kOps = 4096;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const vaddr_t lock = env.Mmap(kPageSize);
      for (int i = 0; i < kOps; ++i) {
        env.SpinLock(lock);
        env.SpinUnlock(lock);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

BENCHMARK(BM_UncontendedSpinlock);

void BM_UncontendedSysvSem(benchmark::State& state) {
  Kernel k;
  constexpr int kOps = 4096;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const int sem = env.Semget(0, 1);
      for (int i = 0; i < kOps; ++i) {
        env.SemOp(sem, -1);  // kernel entry
        env.SemOp(sem, 1);   // kernel entry
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

BENCHMARK(BM_UncontendedSysvSem);

void BM_UncontendedPipeToken(benchmark::State& state) {
  Kernel k;
  constexpr int kOps = 4096;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      int rd = -1, wr = -1;
      env.Pipe(&rd, &wr);
      std::byte token{1};
      for (int i = 0; i < kOps; ++i) {
        env.WriteBuf(wr, std::span<const std::byte>(&token, 1));
        env.ReadBuf(rd, std::span<std::byte>(&token, 1));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

BENCHMARK(BM_UncontendedPipeToken);

// Raw simulated memory op, the floor busy-waiting approaches.
void BM_AtomicMemoryOp(benchmark::State& state) {
  Kernel k;
  constexpr int kOps = 16384;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const vaddr_t word = env.Mmap(kPageSize);
      for (int i = 0; i < kOps; ++i) {
        benchmark::DoNotOptimize(env.FetchAdd32(word, 1));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

BENCHMARK(BM_AtomicMemoryOp);

// One plain simulated load of a resident page: the TLB hit path every user
// access takes (§6.2). The page is faulted in before the clock starts, so
// each iteration is a translate-and-access on the owner path (hw/tlb.h): a
// pin store, a sequence-checked entry read and a release store, no lock.
void BM_TlbHitLoad(benchmark::State& state) {
  Kernel k;
  u64 hits = 0;
  RunSim(k, [&](Env& env) {
    const vaddr_t word = env.Mmap(kPageSize);
    env.Store32(word, 1);
    const u64 hits0 = env.proc().as.tlb().hits();
    for (auto _ : state) {
      benchmark::DoNotOptimize(env.Load32(word));
    }
    hits = env.proc().as.tlb().hits() - hits0;
  });
  state.SetItemsProcessed(state.iterations());
  state.counters["tlb_hits_per_load"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
}

BENCHMARK(BM_TlbHitLoad)->UseRealTime();

// The other side of BM_TlbHitLoad: one FlushAll of a process's TLB issued
// by a host thread that is not its owner, while the owner loads a word in
// a loop (refaulting after every flush). This is what a shootdown pays per
// member: the lock, the host barrier (hw/tlb.h) and the wait for the
// owner's in-flight access.
void BM_RemoteFlushWithRunningOwner(benchmark::State& state) {
  Kernel k;
  std::atomic<Tlb*> tlb{nullptr};
  std::atomic<bool> stop{false};
  auto pid = k.Launch([&](Env& env, long) {
    const vaddr_t word = env.Mmap(kPageSize);
    env.Store32(word, 1);
    tlb.store(&env.proc().as.tlb(), std::memory_order_release);
    while (!stop.load(std::memory_order_relaxed)) {
      benchmark::DoNotOptimize(env.Load32(word));
    }
  });
  if (!pid.ok()) {
    std::abort();
  }
  while (tlb.load(std::memory_order_acquire) == nullptr) {
    std::this_thread::yield();
  }
  Tlb& t = *tlb.load(std::memory_order_acquire);
  const u64 misses0 = t.misses();
  for (auto _ : state) {
    t.FlushAll();
  }
  const u64 misses = t.misses() - misses0;
  stop.store(true, std::memory_order_relaxed);
  k.WaitAll();
  state.SetItemsProcessed(state.iterations());
  state.counters["owner_refills_per_flush"] =
      static_cast<double>(misses) / static_cast<double>(state.iterations());
}

BENCHMARK(BM_RemoteFlushWithRunningOwner)->UseRealTime();

// ---- ping-pong round trips between two tasks ----
//
// Caveat recorded in EXPERIMENTS.md: on a single-core HOST, a busy-wait
// ping-pong is bounded by host context switches, so the spin variant's
// wall-clock advantage only materializes on multi-core hosts; the
// syscalls_per_round counter carries the architectural point regardless.

constexpr int kRounds = 512;

void BM_PingPongSpin(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const vaddr_t turn = env.Mmap(kPageSize);
      env.Sproc(
          [turn](Env& c, long) {
            for (int i = 0; i < kRounds; ++i) {
              while (c.AtomicRead32(turn) != 1) {
                c.Yield();
              }
              c.AtomicWrite32(turn, 0);
            }
          },
          PR_SADDR);
      const u64 sys0 = env.proc().syscalls.load();
      for (int i = 0; i < kRounds; ++i) {
        env.AtomicWrite32(turn, 1);
        while (env.AtomicRead32(turn) != 0) {
          env.Yield();
        }
      }
      state.counters["syscalls_per_round"] = static_cast<double>(
          env.proc().syscalls.load() - sys0) / kRounds;
      env.WaitChild();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

BENCHMARK(BM_PingPongSpin)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_PingPongSysvSem(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const int ping = env.Semget(0, 0);
      const int pong = env.Semget(0, 0);
      env.Fork([ping, pong](Env& c, long) {
        for (int i = 0; i < kRounds; ++i) {
          c.SemOp(ping, -1);
          c.SemOp(pong, 1);
        }
      });
      const u64 sys0 = env.proc().syscalls.load();
      for (int i = 0; i < kRounds; ++i) {
        env.SemOp(ping, 1);
        env.SemOp(pong, -1);
      }
      state.counters["syscalls_per_round"] = static_cast<double>(
          env.proc().syscalls.load() - sys0) / kRounds;
      env.WaitChild();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

BENCHMARK(BM_PingPongSysvSem)->Unit(benchmark::kMillisecond);

void BM_PingPongPipe(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      int a_rd = -1, a_wr = -1, b_rd = -1, b_wr = -1;
      if (env.Pipe(&a_rd, &a_wr) != 0 || env.Pipe(&b_rd, &b_wr) != 0) {
        state.SkipWithError("pipe failed");
        return;
      }
      env.Fork([a_rd, b_wr](Env& c, long) {
        std::byte t{0};
        for (int i = 0; i < kRounds; ++i) {
          c.ReadBuf(a_rd, std::span<std::byte>(&t, 1));
          c.WriteBuf(b_wr, std::span<const std::byte>(&t, 1));
        }
      });
      const u64 sys0 = env.proc().syscalls.load();
      std::byte t{0};
      for (int i = 0; i < kRounds; ++i) {
        env.WriteBuf(a_wr, std::span<const std::byte>(&t, 1));
        env.ReadBuf(b_rd, std::span<std::byte>(&t, 1));
      }
      state.counters["syscalls_per_round"] = static_cast<double>(
          env.proc().syscalls.load() - sys0) / kRounds;
      env.WaitChild();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

BENCHMARK(BM_PingPongPipe)->Unit(benchmark::kMillisecond);

void BM_PingPongSignal(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      static std::atomic<int> parent_hits{0};
      static std::atomic<int> child_hits{0};
      parent_hits = 0;
      child_hits = 0;
      env.Signal(kSigUsr1, [](int) { parent_hits.fetch_add(1); });
      std::atomic<pid_t> child_pid{0};
      const pid_t me = env.Pid();
      env.Fork([&, me](Env& c, long) {
        c.Signal(kSigUsr2, [](int) { child_hits.fetch_add(1); });
        child_pid = c.Pid();
        for (int i = 0; i < kRounds; ++i) {
          while (child_hits.load() <= i) {
            c.Sigpause();  // race-free sleep until our SIGUSR2 lands
          }
          c.Kill(me, kSigUsr1);
        }
      });
      while (child_pid.load() == 0) {
        env.Yield();
      }
      const u64 sys0 = env.proc().syscalls.load();
      for (int i = 0; i < kRounds; ++i) {
        env.Kill(child_pid.load(), kSigUsr2);
        while (parent_hits.load() <= i) {
          env.Sigpause();
        }
      }
      state.counters["syscalls_per_round"] = static_cast<double>(
          env.proc().syscalls.load() - sys0) / kRounds;
      env.WaitChild();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

BENCHMARK(BM_PingPongSignal)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sg
