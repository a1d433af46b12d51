#include "hw/tlb.h"

#include <thread>

#include "base/check.h"
#include "obs/stats.h"

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace sg {

namespace {
constexpr bool IsPowerOfTwo(u32 v) { return v != 0 && (v & (v - 1)) == 0; }

// Publishes a finished flush operation that killed `killed` entries to the
// kernel-wide counters. Called after the TLB lock is dropped.
void RecordFlush(u64 killed) {
  SG_OBS_INC("tlb.flushes");
  SG_OBS_ADD("tlb.flushed_entries", killed);
}

#if defined(__linux__)
// Registers the host process for expedited private membarrier, once.
bool HostBarrierReady() {
  static const bool ready = [] {
    const long cmds = syscall(__NR_membarrier, MEMBARRIER_CMD_QUERY, 0, 0);
    return cmds >= 0 && (cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) != 0 &&
           syscall(__NR_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0, 0) == 0;
  }();
  return ready;
}

// A full memory barrier on every running thread of the host process. Only
// reached after a successful BindOwner, i.e. after registration succeeded.
void HostBarrier() {
  SG_CHECK(syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0) == 0);
}
#else
bool HostBarrierReady() { return false; }
void HostBarrier() {}
#endif
}  // namespace

Tlb::Tlb(u32 entries) : nentries_(entries), entries_(new Entry[entries]) {
  SG_CHECK(IsPowerOfTwo(entries));
}

bool Tlb::BindOwner() {
  if (!HostBarrierReady()) {
    return false;
  }
  // Under lock_: a flush either ran before the binding (so every owner
  // access sees it) or reads the binding and waits for the owner.
  SpinGuard g(lock_);
  owner_.store(ThisThread(), std::memory_order_relaxed);
  return true;
}

void Tlb::UnbindOwner() {
  SpinGuard g(lock_);
  if (owner_.load(std::memory_order_relaxed) == ThisThread()) {
    owner_.store(nullptr, std::memory_order_relaxed);
  }
}

void Tlb::OwnerMiss() {
  owner_misses_.store(owner_misses_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  SG_OBS_INC("tlb.misses");
}

bool Tlb::RemoteOwnerBound() const {
  const void* owner = owner_.load(std::memory_order_relaxed);
  return owner != nullptr && owner != ThisThread();
}

TlbProbe Tlb::Probe(u64 vpn, bool want_write) {
  TlbProbe out;
  {
    SpinGuard g(lock_);
    const Entry& e = entries_[SlotFor(vpn)];
    if (Live(e) && e.vpn.load(std::memory_order_relaxed) == vpn) {
      out.pfn = e.pfn.load(std::memory_order_relaxed);
      // A write to a read-only entry is counted as a miss for stats
      // purposes: it enters the fault path.
      out.kind = want_write && !e.writable.load(std::memory_order_relaxed)
                     ? TlbProbe::Kind::kWriteProt
                     : TlbProbe::Kind::kHit;
    }
    if (out.kind == TlbProbe::Kind::kHit) {
      ++hits_;
      return out;
    }
    ++misses_;
  }
  SG_OBS_INC("tlb.misses");
  return out;
}

void Tlb::Insert(u64 vpn, pfn_t pfn, bool writable) {
  SpinGuard g(lock_);
  Entry& e = entries_[SlotFor(vpn)];
  if (!Live(e)) {
    ++live_count_;  // replacing a stale/empty slot brings a new live entry
  }
  BeginWrite();
  e.vpn.store(vpn, std::memory_order_release);
  e.pfn.store(pfn, std::memory_order_release);
  e.writable.store(writable, std::memory_order_release);
  e.gen.store(flush_gen_.load(std::memory_order_relaxed), std::memory_order_release);
  EndWrite();
}

u64 Tlb::KillAll(bool* remote) {
  // O(1): advance the generation; every entry stamped with the old one is
  // now dead.
  SpinGuard g(lock_);
  BeginWrite();
  flush_gen_.store(flush_gen_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  EndWrite();
  const u64 killed = live_count_;
  flushed_entries_ += killed;
  live_count_ = 0;
  ++flushes_;
  *remote |= RemoteOwnerBound();
  return killed;
}

u64 Tlb::KillRange(u64 vpn_begin, u64 vpn_end, bool* remote) {
  SpinGuard g(lock_);
  u64 killed = 0;
  BeginWrite();
  const auto kill = [&](Entry& e) {
    if (Live(e)) {
      const u64 v = e.vpn.load(std::memory_order_relaxed);
      if (v >= vpn_begin && v < vpn_end) {
        e.gen.store(0, std::memory_order_release);
        ++killed;
      }
    }
  };
  if (vpn_end - vpn_begin == 1) {
    kill(entries_[SlotFor(vpn_begin)]);
  } else {
    for (u32 i = 0; i < nentries_; ++i) {
      kill(entries_[i]);
    }
  }
  EndWrite();
  SG_DCHECK(live_count_ >= killed);
  live_count_ -= static_cast<u32>(killed);
  flushed_entries_ += killed;
  ++flushes_;
  *remote |= RemoteOwnerBound();
  return killed;
}

void Tlb::AwaitOwnerAccess() const {
  if (!RemoteOwnerBound()) {
    return;
  }
  const u64 seen = pin_.load(std::memory_order_acquire);
  if ((seen & 1) == 0) {
    return;
  }
  // The owner is inside an access that may have translated through a
  // dropped entry; it is short and never blocks, but its host thread may
  // be preempted, so yield past a bound as Spinlock does.
  u32 spins = 0;
  while (pin_.load(std::memory_order_acquire) == seen) {
    CpuRelax();
    if (++spins == 1024) {
      spins = 0;
      std::this_thread::yield();
    }
  }
}

void Tlb::AwaitOwners(std::span<Tlb* const> tlbs, bool any_remote) {
  if (!any_remote) {
    return;
  }
  HostBarrier();
  for (const Tlb* t : tlbs) {
    t->AwaitOwnerAccess();
  }
}

void Tlb::FlushAll() {
  bool remote = false;
  const u64 killed = KillAll(&remote);
  Tlb* self = this;
  AwaitOwners({&self, 1}, remote);
  RecordFlush(killed);
}

void Tlb::FlushPage(u64 vpn) {
  bool remote = false;
  const u64 killed = KillRange(vpn, vpn + 1, &remote);
  Tlb* self = this;
  AwaitOwners({&self, 1}, remote);
  RecordFlush(killed);
}

void Tlb::FlushRange(u64 vpn_begin, u64 vpn_end) {
  bool remote = false;
  const u64 killed = KillRange(vpn_begin, vpn_end, &remote);
  Tlb* self = this;
  AwaitOwners({&self, 1}, remote);
  RecordFlush(killed);
}

void Tlb::FlushAllOf(std::span<Tlb* const> tlbs) {
  bool remote = false;
  for (Tlb* t : tlbs) {
    RecordFlush(t->KillAll(&remote));
  }
  AwaitOwners(tlbs, remote);
}

void Tlb::FlushPageOf(std::span<Tlb* const> tlbs, u64 vpn) {
  bool remote = false;
  for (Tlb* t : tlbs) {
    RecordFlush(t->KillRange(vpn, vpn + 1, &remote));
  }
  AwaitOwners(tlbs, remote);
}

}  // namespace sg
