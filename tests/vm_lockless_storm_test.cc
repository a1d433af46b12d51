// VM lockless-fault storm: fault workers sweeping the shared image race
// mmap/munmap, sbrk grow/shrink, unshare and member-exit churn under
// thousands of seeded injection schedules (src/inject/). The lockless
// fault path (DESIGN.md §4h) has four seams a schedule can stretch —
// vm.fault.lockless (between the seqcount snapshot and the resolution),
// vm.fault.undo (revalidation failed, the possibly-stale TLB entry still
// installed, the epoch guard still pinning the updater's quiescence wait),
// vm.fault.retry (after the undo flush) and vm.fault.fallback (entering
// the classic ReadGuard path) — plus vm.layout.await_drain in the
// writer's quiescence wait. A stale-pregion dereference, a stale TLB
// entry surviving a shootdown, or a leaked frame shows up as a crash,
// tsan report, lockdep report or failed teardown invariant.
//
// Reproducing a failure: rerun the printed schedule with
//
//   SG_STORM_SEED=<seed> ctest -R VmLocklessStorm.ReplayEnvSeed
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "api/kernel.h"
#include "api/user_env.h"
#include "core/share_mask.h"
#include "hw/cpu_set.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "sync/lockdep.h"
#include "sync/shared_read_lock.h"
#include "vm/access.h"
#include "vm/shared_space.h"

#if defined(__SANITIZE_THREAD__)
#define SG_STORM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SG_STORM_TSAN 1
#endif
#endif

namespace sg {
namespace {

#if defined(SG_INJECT_ENABLED)

// Deterministic per-worker op stream (splitmix64), seeded from the plan
// seed and the worker's index — not from pids, which are
// interleaving-dependent (same scheme as lifecycle_storm_test.cc).
struct Rng {
  u64 s;
  u64 Next() {
    s += 0x9e3779b97f4a7c15ull;
    u64 z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  u32 Pick(u32 n) { return static_cast<u32>(Next() % n); }
};

u64 WorkerSeed(u64 seed, u32 worker) { return seed * 0x100000001b3ull + worker; }

// The shared fault window is wider than the 64-entry direct-mapped TLB, so
// random touches keep missing and re-entering HandleFault for the lifetime
// of the storm — lockless lookups under continuous layout churn.
constexpr u64 kWindowPages = 96;

// One seeded schedule: boot, storm, teardown, check invariants.
void RunVmStorm(u64 seed, const inject::PlanConfig& cfg) {
  SCOPED_TRACE("replay with SG_STORM_SEED=" + std::to_string(seed));

  BootParams bp;
  bp.ncpus = 4;
  bp.phys_mem_bytes = u64{32} << 20;
  bp.max_procs = 16;
  Kernel k(bp);
  const u64 free_at_boot = k.mem().FreeFrames();

  inject::InjectionPlan plan(seed, cfg);
  {
    inject::ScopedInjection active(plan);
    auto root = k.Launch([seed](Env& env, long) {
      const vaddr_t win = env.Mmap(kWindowPages * kPageSize);
      int members = 0;

      // Workers 1-3 — fault workers: random read/write sweeps over the
      // window, re-faulting on nearly every touch. Stores force COW-free
      // demand-zero resolutions AND shared-image writes whose translations
      // a racing shrink/unmap must revoke. The occasional atomic exercises
      // the kEINVAL/kEFAULT split's fast path too.
      for (u32 w = 1; w <= 3 && win != 0; ++w) {
        if (env.Sproc(
                [seed, w, win](Env& c, long) {
                  Rng rng{WorkerSeed(seed, w)};
                  for (int round = 0; round < 48; ++round) {
                    const vaddr_t va = win + rng.Pick(kWindowPages) * kPageSize;
                    switch (rng.Pick(4)) {
                      case 0:
                        c.Store32(va, static_cast<u32>(round));
                        break;
                      case 1:
                        (void)c.FetchAdd32(va + 4 * rng.Pick(16), 1);
                        break;
                      default:
                        (void)c.Load32(va);
                        break;
                    }
                  }
                },
                PR_SADDR) >= 0) {
          ++members;
        }
      }

      // Worker 4 — layout churn: attach/detach and grow/shrink the shared
      // image as fast as the schedule allows. Every op is a seqcount bump
      // plus a shootdown (detach/shrink also retire frames), forcing the
      // fault workers through the retry and fallback seams.
      if (env.Sproc(
              [seed](Env& c, long) {
                Rng rng{WorkerSeed(seed, 4)};
                for (int i = 0; i < 24; ++i) {
                  switch (rng.Pick(4)) {
                    case 0: {
                      const vaddr_t a = c.Mmap((1 + rng.Pick(4)) * kPageSize);
                      if (a != 0) {
                        c.Store32(a, 1);
                        c.Munmap(a);
                      }
                      break;
                    }
                    case 1: {
                      const i64 pages = 1 + rng.Pick(3);
                      if (c.Sbrk(pages * static_cast<i64>(kPageSize)) != 0) {
                        c.Store32(c.Sbrk(0) - kPageSize, 2);  // make a frame real
                        c.Sbrk(-pages * static_cast<i64>(kPageSize));
                      }
                      break;
                    }
                    default:
                      c.Yield();
                      break;
                  }
                }
              },
              PR_SADDR) >= 0) {
        ++members;
      }

      // Worker 5 — membership churn: faults on the shared window, then
      // leaves the group via PR_UNSHARE mid-storm (the UnshareVm COW seam:
      // its stack extraction and group-wide COW marking race every other
      // worker), and keeps faulting on its now-private image.
      if (win != 0 &&
          env.Sproc(
              [seed, win](Env& c, long) {
                Rng rng{WorkerSeed(seed, 5)};
                for (int i = 0; i < 8; ++i) {
                  (void)c.Load32(win + rng.Pick(kWindowPages) * kPageSize);
                }
                (void)c.Prctl(PR_UNSHARE, PR_SADDR);
                for (int i = 0; i < 8; ++i) {
                  c.Store32(win + rng.Pick(kWindowPages) * kPageSize, 5);
                }
              },
              PR_SADDR) >= 0) {
        ++members;
      }

      // Root joins the fault storm too, then reaps. Each member exit is a
      // RemoveMember: stack retirement + member-TLB unpublish racing the
      // remaining faulters.
      if (win != 0) {
        Rng rng{WorkerSeed(seed, 0)};
        for (int round = 0; round < 24; ++round) {
          (void)env.Load32(win + rng.Pick(kWindowPages) * kPageSize);
        }
      }
      for (int i = 0; i < members; ++i) {
        env.WaitChild();
      }
    });
    (void)root;
    k.WaitAll();
  }  // plan uninstalled only after every host thread has quiesced

  EXPECT_GT(plan.decisions(), 0u);
  EXPECT_EQ(k.LiveBlocks(), 0u);
  // Every frame back in the allocator: no translation outlived its frame,
  // no graveyard pregion leaked its region's pages or their group charge.
  EXPECT_EQ(k.mem().FreeFrames(), free_at_boot);
  // Under the lockdep preset every schedule must keep the lock-order graph
  // acyclic — the pregion lock nests inside the group lock's read side on
  // the fallback path and stands alone on the lockless path.
  EXPECT_EQ(lockdep::Reports(), 0u) << lockdep::RenderReport();
}

inject::PlanConfig StormConfig() {
  inject::PlanConfig cfg;
  cfg.yield_ppm = 300000;
  cfg.delay_ppm = 200000;
  // No resource-fault injection here: this storm is about interleavings
  // through the lockless seams, and the window mmap failing at boot would
  // no-op most workers. FaultsUnwindCleanly in the lifecycle storm covers
  // allocation-failure unwinding.
  cfg.fault_ppm = 0;
  return cfg;
}

// 4 shards so ctest -j overlaps them; the default-build sweep is 4 x 24 =
// 96 schedules with 6 racing workers each. Under tsan every schedule costs
// ~10x, so the sweep shrinks — the tsan preset's job is race detection.
#if defined(SG_STORM_TSAN)
constexpr int kSeedsPerShard = 4;
#else
constexpr int kSeedsPerShard = 24;
#endif
constexpr u64 kSeedBase = 0xFA170000;

void RunShard(int shard) {
  const inject::PlanConfig cfg = StormConfig();
  for (int i = 0; i < kSeedsPerShard; ++i) {
    const u64 seed = kSeedBase + static_cast<u64>(shard) * kSeedsPerShard + i;
    RunVmStorm(seed, cfg);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(VmLocklessStorm, Shard0) { RunShard(0); }
TEST(VmLocklessStorm, Shard1) { RunShard(1); }
TEST(VmLocklessStorm, Shard2) { RunShard(2); }
TEST(VmLocklessStorm, Shard3) { RunShard(3); }

// Replays one schedule named in the environment — the repro path printed
// by a failing storm assertion.
TEST(VmLocklessStorm, ReplayEnvSeed) {
  const char* s = std::getenv("SG_STORM_SEED");
  if (s == nullptr || *s == '\0') {
    GTEST_SKIP() << "set SG_STORM_SEED=<seed> to replay a failing schedule";
  }
  RunVmStorm(std::strtoull(s, nullptr, 0), StormConfig());
}

// The storm actually drives the seams it claims to: across a few
// schedules the lockless path must both hit and (thanks to the injected
// delays between snapshot and revalidation) retry or fall back.
TEST(VmLocklessStorm, SeamsExercised) {
  obs::Stats& stats = obs::Stats::Global();
  const u64 hits0 = stats.CounterValue("vm.fault.lockless_hits");
  const u64 slow0 = stats.CounterValue("vm.fault.retries") +
                    stats.CounterValue("vm.fault.fallbacks");
  const inject::PlanConfig cfg = StormConfig();
  for (u64 seed = 1; seed <= 8; ++seed) {
    RunVmStorm(0xF00D0000 + seed, cfg);
    if (HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(stats.CounterValue("vm.fault.lockless_hits"), hits0);
  EXPECT_GT(stats.CounterValue("vm.fault.retries") +
                stats.CounterValue("vm.fault.fallbacks"),
            slow0);
}

// Regression: EpochGuard used to load the parity and then increment that
// side without re-checking it. A reader delayed between the two across one
// writer's parity flip ended up registered on the side the NEXT writer
// treats as new, so the second writer's AwaitQuiescent returned (and freed
// the graveyard) while the reader could still hold a snapshot from before
// it: the use-after-free behind the vm_churn crash in FindSharedFast. Park
// a reader at vm.epoch.enter across the first writer's flip; the second
// writer must then wait for the reader's guard to drop.
TEST(VmLocklessStorm, EpochReaderParkedAcrossParityFlipIsDrained) {
  CpuSet cpus(4);
  SharedSpace ss(cpus);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::atomic<int> flips{0};
  std::atomic<bool> in_guard{false};
  std::atomic<bool> w2_returned{false};
  bool reader_saw_w2_return = false;

  inject::PlanConfig cfg;
  cfg.on_point = [&](const char* point) {
    if (std::strcmp(point, "vm.layout.await_drain") == 0) {
      flips.fetch_add(1);
    } else if (std::strcmp(point, "vm.epoch.enter") == 0 && !parked.exchange(true)) {
      // First registration attempt only: stay between the parity load and
      // the increment until the first writer has flipped.
      while (!release.load()) {
        std::this_thread::yield();
      }
    }
  };
  inject::InjectionPlan plan(0x5EED0E00ull, cfg);
  inject::ScopedInjection active(plan);

  std::thread reader([&] {
    SharedSpace::EpochGuard g(ss);
    in_guard = true;
    while (flips.load() < 2) {
      std::this_thread::yield();
    }
    // Hold the guard until the second writer returns, which it must not do
    // while this reader is registered; give up after a bound.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (!w2_returned.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    reader_saw_w2_return = w2_returned.load();
  });

  const auto park_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!parked.load() && std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::yield();
  }
  const bool reader_parked = parked.load();
  {
    UpdateGuard g(ss.lock());
    ss.AwaitQuiescent();  // first writer: flips while the reader is parked
  }
  release = true;
  while (!in_guard.load()) {
    std::this_thread::yield();
  }
  std::thread w2([&] {
    UpdateGuard g(ss.lock());
    ss.AwaitQuiescent();
    w2_returned = true;
  });
  reader.join();
  w2.join();
  ASSERT_TRUE(reader_parked) << "the reader never reached vm.epoch.enter";
  EXPECT_EQ(flips.load(), 2);
  EXPECT_FALSE(reader_saw_w2_return)
      << "the second writer's drain returned while an epoch reader was registered";
}

#else  // !SG_INJECT_ENABLED

TEST(VmLocklessStorm, SkippedWithoutInjection) {
  GTEST_SKIP() << "configure with -DSG_INJECT=ON to run the storm";
}

#endif

// A member keeps reading a shared page while another member unmaps it and
// reuses the freed frame for a fresh mapping filled with poison. The §6.2
// shootdown must drop the reader's translation, and wait out a read already
// in flight through it, before munmap frees the frame: the reader may fault
// (the page is gone) but must never see the poison or the zeroes the frame
// passed through. Reads alternate between single words and whole-page
// copies, whose long in-flight window is the one a flush must wait for.
TEST(VmLocklessStorm, ReaderNeverSeesReusedFrameAfterMunmap) {
#if defined(SG_STORM_TSAN)
  constexpr int kRounds = 40;
#else
  constexpr int kRounds = 300;
#endif
  constexpr u32 kGood = 0x600D600Du;
  constexpr u8 kPoison = 0xA5;
  constexpr u64 kWords = kPageSize / sizeof(u32);
  BootParams bp;
  bp.ncpus = 4;
  bp.phys_mem_bytes = u64{16} << 20;
  Kernel k(bp);
  const u64 free_at_boot = k.mem().FreeFrames();
  std::atomic<u64> bad_reads{0};
  std::atomic<u64> reads{0};
  std::atomic<int> faulted_readers{0};
  int reused_frames = 0;
  auto root = k.Launch([&](Env& env, long) {
    for (int round = 0; round < kRounds; ++round) {
      const vaddr_t page = env.Mmap(kPageSize);
      const vaddr_t fresh = env.Mmap(kPageSize);  // a different VA than `page`
      ASSERT_NE(page, 0u);
      ASSERT_NE(fresh, 0u);
      for (u64 w = 0; w < kWords; ++w) {
        env.Store32(page + w * sizeof(u32), kGood);
      }
      std::atomic<u64> round_reads{0};
      env.Sproc(
          [&, page](Env& c, long) {
            u32 buf[kWords];
            for (u64 i = 0;; ++i) {
              bool ok = true;
              if (i % 4 == 0) {
                if (!CopyIn(c.proc().as, buf, page, kPageSize).ok()) {
                  break;  // unmapped: the expected end of this reader
                }
                for (u32 w : buf) {
                  ok = ok && w == kGood;
                }
              } else {
                auto r = Load<u32>(c.proc().as, page + (i % kWords) * sizeof(u32));
                if (!r.ok()) {
                  break;
                }
                ok = r.value() == kGood;
              }
              if (!ok) {
                bad_reads.fetch_add(1);
                return;
              }
              round_reads.fetch_add(1, std::memory_order_relaxed);
            }
            faulted_readers.fetch_add(1);
          },
          PR_SADDR);
      while (round_reads.load(std::memory_order_relaxed) < 64) {
        env.Yield();
      }
      Tlb& tlb = env.proc().as.tlb();
      const pfn_t old_frame = tlb.Probe(PageOf(page), false).pfn;
      ASSERT_EQ(env.Munmap(page), 0);
      // The frame allocator hands out the most recently freed frame first,
      // so this first touch normally lands on the frame `page` just gave up.
      ASSERT_TRUE(FillUser(env.proc().as, fresh, kPoison, kPageSize).ok());
      if (old_frame != 0 && tlb.Probe(PageOf(fresh), false).pfn == old_frame) {
        ++reused_frames;
      }
      env.WaitChild();
      reads.fetch_add(round_reads.load());
      ASSERT_EQ(env.Munmap(fresh), 0);
    }
  });
  ASSERT_TRUE(root.ok());
  k.WaitAll();
  EXPECT_EQ(bad_reads.load(), 0u) << "a reader saw a frame after munmap freed it";
  EXPECT_EQ(faulted_readers.load(), kRounds);
  EXPECT_GE(reads.load(), u64{64} * kRounds);
  EXPECT_GT(reused_frames, kRounds / 2) << "the poison fill rarely reused the unmapped frame";
  EXPECT_EQ(k.mem().FreeFrames(), free_at_boot);
}

}  // namespace
}  // namespace sg
