// Unit tests for hw/: physical frame allocation/refcounts, the software-
// managed TLB, and the cross-processor flush accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "hw/cpu_set.h"
#include "hw/phys_mem.h"
#include "hw/tlb.h"

namespace sg {
namespace {

TEST(PhysMem, AllocZeroedAndExhaustion) {
  PhysMem mem(4 * kPageSize);
  EXPECT_EQ(mem.TotalFrames(), 4u);
  std::vector<pfn_t> frames;
  for (int i = 0; i < 4; ++i) {
    auto f = mem.AllocFrame();
    ASSERT_TRUE(f.ok());
    // Demand-zero: a fresh frame reads as zeroes.
    const std::byte* d = mem.FrameData(f.value());
    for (u64 b = 0; b < kPageSize; b += 512) {
      EXPECT_EQ(d[b], std::byte{0});
    }
    frames.push_back(f.value());
  }
  EXPECT_EQ(mem.FreeFrames(), 0u);
  EXPECT_EQ(mem.AllocFrame().error(), Errno::kENOMEM);
  mem.Unref(frames[0]);
  EXPECT_EQ(mem.FreeFrames(), 1u);
  EXPECT_TRUE(mem.AllocFrame().ok());
  for (size_t i = 1; i < frames.size(); ++i) {
    mem.Unref(frames[i]);
  }
}

TEST(PhysMem, RefcountSharing) {
  PhysMem mem(4 * kPageSize);
  pfn_t f = mem.AllocFrame().value();
  EXPECT_EQ(mem.RefCount(f), 1u);
  EXPECT_TRUE(mem.TakeExclusive(f));  // sole owner
  mem.Ref(f);
  EXPECT_EQ(mem.RefCount(f), 2u);
  EXPECT_FALSE(mem.TakeExclusive(f));  // shared: caller must copy
  mem.Unref(f);
  mem.Unref(f);
  EXPECT_EQ(mem.FreeFrames(), 4u);
}

TEST(PhysMem, DirtyFrameIsRezeroedOnReuse) {
  PhysMem mem(2 * kPageSize);
  pfn_t f = mem.AllocFrame().value();
  std::memset(mem.FrameData(f), 0xab, kPageSize);
  mem.Unref(f);
  pfn_t g = mem.AllocFrame().value();
  EXPECT_EQ(mem.FrameData(g)[0], std::byte{0});
  EXPECT_EQ(mem.FrameData(g)[kPageSize - 1], std::byte{0});
  mem.Unref(g);
}

TEST(PhysMem, ConcurrentAllocFree) {
  PhysMem mem(256 * kPageSize);
  std::vector<std::thread> ts;
  for (int i = 0; i < 8; ++i) {
    ts.emplace_back([&] {
      for (int n = 0; n < 500; ++n) {
        auto f = mem.AllocFrame();
        if (f.ok()) {
          mem.Unref(f.value());
        }
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_EQ(mem.FreeFrames(), 256u);
}

TEST(Tlb, ProbeInsertFlush) {
  Tlb tlb(64);
  EXPECT_EQ(tlb.Probe(5, false).kind, TlbProbe::Kind::kMiss);
  tlb.Insert(5, 42, /*writable=*/false);
  auto p = tlb.Probe(5, false);
  EXPECT_EQ(p.kind, TlbProbe::Kind::kHit);
  EXPECT_EQ(p.pfn, 42u);
  // Write access to a read-only entry: protection fault (COW trap path).
  EXPECT_EQ(tlb.Probe(5, true).kind, TlbProbe::Kind::kWriteProt);
  tlb.Insert(5, 42, /*writable=*/true);
  EXPECT_EQ(tlb.Probe(5, true).kind, TlbProbe::Kind::kHit);
  tlb.FlushPage(5);
  EXPECT_EQ(tlb.Probe(5, false).kind, TlbProbe::Kind::kMiss);
}

TEST(Tlb, DirectMappedConflict) {
  Tlb tlb(64);
  tlb.Insert(3, 10, true);
  tlb.Insert(3 + 64, 11, true);  // same slot: evicts vpn 3
  EXPECT_EQ(tlb.Probe(3, false).kind, TlbProbe::Kind::kMiss);
  EXPECT_EQ(tlb.Probe(3 + 64, false).pfn, 11u);
}

TEST(Tlb, FlushRangeAndAll) {
  Tlb tlb(64);
  for (u64 v = 0; v < 32; ++v) {
    tlb.Insert(v, static_cast<pfn_t>(v + 100), true);
  }
  tlb.FlushRange(8, 16);
  for (u64 v = 0; v < 32; ++v) {
    const bool expect_hit = v < 8 || v >= 16;
    EXPECT_EQ(tlb.Probe(v, false).kind == TlbProbe::Kind::kHit, expect_hit) << v;
  }
  tlb.FlushAll();
  EXPECT_EQ(tlb.Probe(0, false).kind, TlbProbe::Kind::kMiss);
  EXPECT_GE(tlb.flushes(), 2u);
}

TEST(Tlb, WithEntryPinsTranslation) {
  Tlb tlb(64);
  tlb.Insert(7, 70, true);
  bool ran = false;
  EXPECT_TRUE(tlb.WithEntry(7, true, [&](pfn_t pfn) {
    EXPECT_EQ(pfn, 70u);
    ran = true;
  }));
  EXPECT_TRUE(ran);
  EXPECT_FALSE(tlb.WithEntry(8, false, [](pfn_t) { FAIL(); }));
  // Write permission enforced.
  tlb.Insert(9, 90, false);
  EXPECT_FALSE(tlb.WithEntry(9, true, [](pfn_t) { FAIL(); }));
  EXPECT_TRUE(tlb.WithEntry(9, false, [](pfn_t) {}));
}

TEST(Tlb, GenerationFlushInvalidatesLazily) {
  // FlushAll is a generation bump, not a scan: entries installed before the
  // flush must read as dead, entries installed after must be live, and a
  // pre-flush entry must not resurrect a post-flush probe of the same slot.
  Tlb tlb(64);
  tlb.Insert(4, 40, true);
  tlb.Insert(5, 50, true);
  tlb.FlushAll();
  EXPECT_EQ(tlb.Probe(4, false).kind, TlbProbe::Kind::kMiss);
  EXPECT_EQ(tlb.Probe(5, false).kind, TlbProbe::Kind::kMiss);
  EXPECT_FALSE(tlb.WithEntry(4, false, [](pfn_t) { FAIL(); }));
  // Reinstall after the flush: stamped with the new generation, so it hits.
  tlb.Insert(4, 41, true);
  EXPECT_EQ(tlb.Probe(4, false).pfn, 41u);
  // A second flush kills the reinstalled entry too.
  tlb.FlushAll();
  EXPECT_EQ(tlb.Probe(4, false).kind, TlbProbe::Kind::kMiss);
}

TEST(Tlb, FlushOpsVsFlushedEntriesSplit) {
  Tlb tlb(64);
  const u64 ops0 = tlb.flushes();
  const u64 ent0 = tlb.flushed_entries();

  // A flush of an absent translation is one operation, zero entries.
  tlb.FlushPage(9);
  EXPECT_EQ(tlb.flushes(), ops0 + 1);
  EXPECT_EQ(tlb.flushed_entries(), ent0);

  // A flush of a present translation is one operation, one entry.
  tlb.Insert(9, 90, true);
  tlb.FlushPage(9);
  EXPECT_EQ(tlb.flushes(), ops0 + 2);
  EXPECT_EQ(tlb.flushed_entries(), ent0 + 1);

  // FlushAll counts every live entry exactly once, even though it scans
  // nothing — and re-inserting into a dead slot keeps the count honest.
  tlb.Insert(1, 10, true);
  tlb.Insert(2, 20, true);
  tlb.Insert(2, 21, true);  // replaces a LIVE entry: no new live count
  tlb.FlushAll();
  EXPECT_EQ(tlb.flushes(), ops0 + 3);
  EXPECT_EQ(tlb.flushed_entries(), ent0 + 3);

  // An empty FlushAll (everything already dead) invalidates nothing.
  tlb.FlushAll();
  EXPECT_EQ(tlb.flushes(), ops0 + 4);
  EXPECT_EQ(tlb.flushed_entries(), ent0 + 3);

  // FlushRange only counts entries it actually killed.
  tlb.Insert(3, 30, true);
  tlb.Insert(40, 44, true);
  tlb.FlushRange(0, 8);  // kills vpn 3, not vpn 40
  EXPECT_EQ(tlb.flushes(), ops0 + 5);
  EXPECT_EQ(tlb.flushed_entries(), ent0 + 4);
  EXPECT_EQ(tlb.Probe(40, false).pfn, 44u);
}

TEST(Tlb, StatsCount) {
  Tlb tlb(64);
  tlb.Insert(1, 11, true);
  (void)tlb.Probe(1, false);
  (void)tlb.Probe(2, false);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

// An accessor translating while a remote CPU storms shootdowns must lose no
// counter increment. `bind` selects the owner path (the accessor thread is
// the TLB's bound owner) or the locked path.
void CheckCountersExactUnderConcurrentFlushes(bool bind) {
  Tlb tlb(64);
  constexpr u64 kAccesses = 200000;
  std::atomic<bool> done{false};
  u64 flush_calls = 0;
  std::thread flusher([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (flush_calls % 2 == 0) {
        tlb.FlushAll();
      } else {
        tlb.FlushPage(flush_calls % 8);
      }
      ++flush_calls;
    }
  });
  u64 seen_hits = 0;
  std::thread accessor([&] {
    if (bind) {
      EXPECT_TRUE(tlb.BindOwner());
    }
    for (u64 i = 0; i < kAccesses; ++i) {
      const u64 vpn = i % 8;
      if (tlb.WithEntry(vpn, false, [&](pfn_t pfn) { EXPECT_EQ(pfn, vpn + 100); })) {
        ++seen_hits;
      } else {
        tlb.Insert(vpn, vpn + 100, true);
      }
    }
    tlb.UnbindOwner();
  });
  accessor.join();
  done.store(true, std::memory_order_release);
  flusher.join();
  EXPECT_EQ(tlb.hits(), seen_hits);
  EXPECT_EQ(tlb.hits() + tlb.misses(), kAccesses);
  EXPECT_EQ(tlb.flushes(), flush_calls);
}

TEST(Tlb, CountersExactUnderConcurrentFlushes) { CheckCountersExactUnderConcurrentFlushes(false); }

TEST(Tlb, CountersExactUnderConcurrentFlushesWithBoundOwner) {
  if (!Tlb(64).BindOwner()) {
    GTEST_SKIP() << "host has no expedited private membarrier";
  }
  CheckCountersExactUnderConcurrentFlushes(true);
}

// The §6.2 guarantee: a flush issued by another thread returns only after
// an access already translating through the dropped entry has finished.
// The accessor parks inside `fn` until told to leave; the flush must still
// be waiting when it is released, and the translation is gone afterwards.
void CheckFlushWaitsForParkedAccess(bool bind, bool whole_tlb) {
  Tlb tlb(64);
  tlb.Insert(7, 70, true);
  std::atomic<int> stage{0};  // 1: accessor inside fn, 2: released
  bool hit_after = true;
  std::thread accessor([&] {
    if (bind) {
      EXPECT_TRUE(tlb.BindOwner());
    }
    EXPECT_TRUE(tlb.WithEntry(7, false, [&](pfn_t pfn) {
      EXPECT_EQ(pfn, 70u);
      stage.store(1);
      while (stage.load() != 2) {
        std::this_thread::yield();
      }
    }));
    // Whatever the flush killed stays dead for the accessor itself.
    while (stage.load() != 3) {
      std::this_thread::yield();
    }
    hit_after = tlb.WithEntry(7, false, [](pfn_t) {});
    tlb.UnbindOwner();
  });
  while (stage.load() != 1) {
    std::this_thread::yield();
  }
  std::atomic<bool> returned{false};
  std::thread flusher([&] {
    if (whole_tlb) {
      tlb.FlushAll();
    } else {
      tlb.FlushPage(7);
    }
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load()) << "the flush returned while an access through its entry ran";
  stage.store(2);
  flusher.join();
  EXPECT_TRUE(returned.load());
  stage.store(3);
  accessor.join();
  EXPECT_FALSE(hit_after);
}

TEST(Tlb, RemoteFlushWaitsForParkedAccessLockedPath) {
  CheckFlushWaitsForParkedAccess(/*bind=*/false, /*whole_tlb=*/true);
  CheckFlushWaitsForParkedAccess(/*bind=*/false, /*whole_tlb=*/false);
}

TEST(Tlb, RemoteFlushWaitsForParkedAccessOwnerPath) {
  if (!Tlb(64).BindOwner()) {
    GTEST_SKIP() << "host has no expedited private membarrier";
  }
  CheckFlushWaitsForParkedAccess(/*bind=*/true, /*whole_tlb=*/true);
  CheckFlushWaitsForParkedAccess(/*bind=*/true, /*whole_tlb=*/false);
}

// A sibling thread (one that shares the TLB without owning it, like a Mach
// task thread) keeps replacing the translation in one slot while the owner
// translates through it. Every hit must carry a whole entry: the pfn and
// write permission installed together with the vpn it matched.
TEST(Tlb, OwnerNeverSeesTornEntryUnderSiblingInserts) {
  Tlb tlb(64);
  if (!tlb.BindOwner()) {
    GTEST_SKIP() << "host has no expedited private membarrier";
  }
  tlb.UnbindOwner();
  constexpr u64 kA = 5;
  constexpr u64 kB = kA + 64;  // same direct-mapped slot as kA
  constexpr u64 kMinHits = 20000;  // of each translation
  tlb.Insert(kA, 1000, /*writable=*/true);
  std::atomic<bool> owner_bound{false};
  std::atomic<bool> done{false};
  std::thread sibling([&] {
    while (!owner_bound.load()) {
      std::this_thread::yield();
    }
    for (u64 i = 0; !done.load(std::memory_order_relaxed); ++i) {
      if (i % 2 == 0) {
        tlb.Insert(kB, 2000, /*writable=*/false);
      } else {
        tlb.Insert(kA, 1000, /*writable=*/true);
      }
      // Leave the owner windows between inserts, as faults do.
      for (int j = 0; j < 32; ++j) {
        CpuRelax();
      }
    }
  });
  u64 torn = 0;
  u64 hits_a = 0;
  u64 hits_b = 0;
  std::thread owner([&] {
    EXPECT_TRUE(tlb.BindOwner());
    owner_bound.store(true);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (u64 i = 0; (hits_a < kMinHits || hits_b < kMinHits) &&
                    (i % 1024 != 0 || std::chrono::steady_clock::now() < deadline);
         ++i) {
      const u64 vpn = i % 2 == 0 ? kA : kB;
      const bool want_write = i % 3 == 0;
      if (tlb.WithEntry(vpn, want_write, [&](pfn_t pfn) {
            torn += (pfn != (vpn == kA ? 1000u : 2000u)) ? 1 : 0;
          })) {
        ++(vpn == kA ? hits_a : hits_b);
        torn += (vpn == kB && want_write) ? 1 : 0;  // kB is read-only
      }
    }
    tlb.UnbindOwner();
    done.store(true);
  });
  owner.join();
  sibling.join();
  EXPECT_EQ(torn, 0u);
  EXPECT_GE(hits_a, kMinHits);
  EXPECT_GE(hits_b, kMinHits);
}

TEST(CpuSet, SynchronousFlushHitsAllTargets) {
  CpuSet cpus(4);
  EXPECT_EQ(cpus.ncpus(), 4u);
  Tlb a(64), b(64);
  a.Insert(1, 10, true);
  b.Insert(2, 20, true);
  Tlb* targets[] = {&a, &b};
  cpus.SynchronousFlush(targets);
  EXPECT_EQ(a.Probe(1, false).kind, TlbProbe::Kind::kMiss);
  EXPECT_EQ(b.Probe(2, false).kind, TlbProbe::Kind::kMiss);
  EXPECT_EQ(cpus.shootdowns(), 1u);
  EXPECT_EQ(cpus.ipis(), 4u);  // one interrupt per processor
}

}  // namespace
}  // namespace sg
