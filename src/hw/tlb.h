// Software-managed TLB in the style of the MIPS R2000 the paper targets.
//
// Every simulated user load/store translates through a Tlb; a miss raises a
// (software) TLB-miss exception handled by the VM fault path, which refills
// the TLB after walking the pregion lists. Because the TLB is software
// managed, the kernel can *synchronously* invalidate entries on every
// processor before shrinking or detaching a shared region (§6.2) — a
// running share-group member then immediately misses, enters the kernel,
// and blocks on the shared read lock until the update completes.
//
// Each simulated process owns one Tlb (its translation context on whichever
// processor runs it); a cross-processor shootdown is modelled by flushing
// the Tlbs of all affected processes (see CpuSet::SynchronousFlush).
//
// FlushAll is O(1): instead of scanning and clearing every entry, it bumps a
// flush generation; an entry stamped with an older generation is invalid
// (lazy invalidation), so a shootdown costs O(1) per member.
//
// Translate-and-access. On real hardware a TLB hit costs nothing and only
// the shootdown pays; the simulation keeps that asymmetry for the thread
// that runs the process (its *owner*, bound by Kernel::ProcMain):
//
//   * Owner path: the owner announces an access by making a per-TLB pin
//     word odd with a plain store (a compiler fence orders it before the
//     entry read), reads the entry under a sequence word that every entry
//     writer bumps, runs the access, and makes the pin even with a release
//     store. No locked instruction.
//   * Flush from any other thread: mutate under lock_, then one
//     membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) call — a full barrier on
//     every running thread of the host process — then wait until the
//     owner's pin has left the odd value it read. Either the owner's pin
//     store was visible after the barrier (the flusher waits out that
//     access) or its entry read came after the barrier (it saw the flush).
//     A shootdown of N TLBs makes one barrier call (FlushAllOf/FlushPageOf).
//   * Every other accessor (Mach task threads sharing the process's TLB,
//     tests, any thread when the host has no usable membarrier) holds
//     lock_ across the access, which every flush and insert also takes.
//
// Either way a flush returns only after every in-flight access through a
// translation it dropped has finished — the §6.2 guarantee.
//
// Counters: the locked path's hits/misses and the flush counters are plain
// fields under lock_; the owner's hits/misses are single-writer atomics it
// bumps with a load and a store. The kernel-wide obs counters (tlb.misses,
// tlb.flushes, tlb.flushed_entries) are bumped outside lock_.
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <atomic>
#include <memory>
#include <span>
#include <thread>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "obs/stats.h"
#include "sync/spinlock.h"

namespace sg {

// Result of a TLB probe.
struct TlbProbe {
  enum class Kind {
    kHit,        // translation present with sufficient permission
    kMiss,       // no translation: refill required (page fault path)
    kWriteProt,  // translation present but read-only and a write was asked
  };
  Kind kind = Kind::kMiss;
  pfn_t pfn = 0;
};

class Tlb {
 public:
  // The R2000 TLB holds 64 entries; the default follows it.
  explicit Tlb(u32 entries = 64);
  Tlb(const Tlb&) = delete;
  Tlb& operator=(const Tlb&) = delete;

  // Makes the calling thread this TLB's owner: its WithEntry calls take the
  // lock-free owner path. Returns false, binding nothing, when the host
  // cannot register for membarrier (the process then keeps the locked
  // path). UnbindOwner must be called by the owner before its thread exits.
  bool BindOwner();
  void UnbindOwner();

  // Probes for virtual page `vpn`; `want_write` distinguishes a write access
  // (read-only entries then report kWriteProt, which the fault path treats
  // as a potential copy-on-write break).
  TlbProbe Probe(u64 vpn, bool want_write);

  // Atomic translate-and-access: if a matching entry with sufficient
  // permission exists, runs `fn(pfn)` while the translation is pinned — a
  // flush of it returns only after `fn` does, which models the
  // per-instruction atomicity of translation and access on real hardware —
  // and returns true. Returns false on miss or write-protection; the caller
  // then takes the fault path and retries. `fn` must be short and must
  // neither block nor throw.
  // Out of line: inlined into every user access, the owner path measured
  // slower in BM_TlbHitLoad.
  template <typename Fn>
  [[gnu::noinline]] bool WithEntry(u64 vpn, bool want_write, Fn&& fn) {
    if (owner_.load(std::memory_order_relaxed) != ThisThread()) {
      return LockedWithEntry(vpn, want_write, fn);
    }
    const u64 pin = pin_.load(std::memory_order_relaxed) + 1;
    pin_.store(pin, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    pfn_t pfn = 0;
    const bool hit = ReadEntry(vpn, want_write, &pfn);
    if (hit) {
      fn(pfn);
    }
    pin_.store(pin + 1, std::memory_order_release);
    if (!hit) {
      OwnerMiss();
      return false;
    }
    owner_hits_.store(owner_hits_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    return true;
  }

  // Installs (or replaces) the translation for `vpn`.
  void Insert(u64 vpn, pfn_t pfn, bool writable);

  // Invalidation. FlushAll is what a cross-processor shootdown delivers;
  // it is O(1) (generation bump, see file comment).
  void FlushAll();
  void FlushPage(u64 vpn);
  void FlushRange(u64 vpn_begin, u64 vpn_end);  // [begin, end)

  // The same flushes applied to a set of TLBs with one host barrier for the
  // whole set.
  static void FlushAllOf(std::span<Tlb* const> tlbs);
  static void FlushPageOf(std::span<Tlb* const> tlbs, u64 vpn);

  // Counter reads take the lock; they are for tests and benches, never a
  // hot path.
  u64 hits() const {
    SpinGuard g(lock_);
    return hits_ + owner_hits_.load(std::memory_order_relaxed);
  }
  u64 misses() const {
    SpinGuard g(lock_);
    return misses_ + owner_misses_.load(std::memory_order_relaxed);
  }
  // Flush *operations* (every FlushAll/FlushPage/FlushRange call) vs
  // entries actually invalidated — a FlushPage of an absent translation
  // performs work-free, and the split keeps /proc/stat's view of shootdown
  // cost honest ("tlb.flushes" / "tlb.flushed_entries").
  u64 flushes() const {
    SpinGuard g(lock_);
    return flushes_;
  }
  u64 flushed_entries() const {
    SpinGuard g(lock_);
    return flushed_entries_;
  }

 private:
  // Fields are written only under lock_, each inside a BeginWrite/EndWrite
  // bracket; the owner path reads them without the lock. An entry is live
  // iff `gen` equals the current flush generation (0 never is).
  struct Entry {
    std::atomic<u64> vpn{0};
    std::atomic<u64> gen{0};
    std::atomic<pfn_t> pfn{0};
    std::atomic<bool> writable{false};
  };

  // A token unique to the calling host thread while it runs.
  static const void* ThisThread() {
    static thread_local const char token = 0;
    return &token;
  }

  bool Live(const Entry& e) const SG_REQUIRES(lock_) {
    return e.gen.load(std::memory_order_relaxed) == flush_gen_.load(std::memory_order_relaxed);
  }

  u32 SlotFor(u64 vpn) const { return static_cast<u32>(vpn) & (nentries_ - 1); }

  // WithEntry for every thread but the owner: the access runs under lock_.
  template <typename Fn>
  [[gnu::noinline]] bool LockedWithEntry(u64 vpn, bool want_write, Fn& fn) {
    {
      SpinGuard g(lock_);
      Entry& e = entries_[SlotFor(vpn)];
      if (Live(e) && e.vpn.load(std::memory_order_relaxed) == vpn &&
          (!want_write || e.writable.load(std::memory_order_relaxed))) {
        ++hits_;
        fn(e.pfn.load(std::memory_order_relaxed));
        return true;
      }
      ++misses_;
    }
    SG_OBS_INC("tlb.misses");
    return false;
  }

  // Miss accounting of the owner path, kept out of line.
  void OwnerMiss();

  // Seqlock read of the slot for `vpn` (owner path). The entry loads are
  // acquire so the closing sequence load cannot move above them; a writer's
  // release stores pair with them (see BeginWrite).
  bool ReadEntry(u64 vpn, bool want_write, pfn_t* pfn) const {
    const Entry& e = entries_[SlotFor(vpn)];
    for (u32 spins = 1;; ++spins) {
      const u64 s = seq_.load(std::memory_order_acquire);
      if ((s & 1) == 0) {
        const bool hit =
            e.gen.load(std::memory_order_acquire) == flush_gen_.load(std::memory_order_acquire) &&
            e.vpn.load(std::memory_order_acquire) == vpn &&
            (!want_write || e.writable.load(std::memory_order_acquire));
        *pfn = e.pfn.load(std::memory_order_acquire);
        if (seq_.load(std::memory_order_relaxed) == s) {
          return hit;
        }
      }
      // A writer holds lock_ mid-update; its host thread may be preempted.
      CpuRelax();
      if (spins % 1024 == 0) {
        std::this_thread::yield();
      }
    }
  }

  // Entry-writer bracket: `seq_` is odd inside it. Field stores inside are
  // release, so a reader that sees one of them also sees the odd sequence.
  void BeginWrite() SG_REQUIRES(lock_) {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void EndWrite() SG_REQUIRES(lock_) {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  // Flush bodies: mutate and count under lock_, return the entries killed.
  // `*remote` is set when an owner other than the caller is bound.
  u64 KillAll(bool* remote);
  u64 KillRange(u64 vpn_begin, u64 vpn_end, bool* remote);
  bool RemoteOwnerBound() const;

  // After a flush by a non-owner: waits until the owner is no longer inside
  // an access it may have begun before the flush (caller issued the barrier).
  void AwaitOwnerAccess() const;
  static void AwaitOwners(std::span<Tlb* const> tlbs, bool any_remote);

  // sgcheck:allow(guarded-fields): set in the constructor, immutable after
  u32 nentries_;  // power of two; direct-mapped by low vpn bits
  // Owner thread probes/inserts; shootdowns flush remotely. Mutable so the
  // const counter accessors can take it.
  mutable Spinlock lock_{"tlb"};
  const std::unique_ptr<Entry[]> entries_;
  // Bumped around every entry or flush_gen_ write (odd while one runs).
  std::atomic<u64> seq_{0};
  // Advances on every FlushAll; live_count_ tracks entries live under the
  // current generation so FlushAll can account flushed entries without
  // scanning.
  std::atomic<u64> flush_gen_{1};
  u32 live_count_ SG_GUARDED_BY(lock_) = 0;

  // Locked-path and flush counters: plain integers under lock_.
  u64 hits_ SG_GUARDED_BY(lock_) = 0;
  u64 misses_ SG_GUARDED_BY(lock_) = 0;
  u64 flushes_ SG_GUARDED_BY(lock_) = 0;
  u64 flushed_entries_ SG_GUARDED_BY(lock_) = 0;

  // The owner's words, on their own cache line: written by the owner thread
  // only (owner_ by Bind/UnbindOwner, under lock_), read by flushers.
  alignas(64) std::atomic<const void*> owner_{nullptr};
  std::atomic<u64> pin_{0};  // odd while the owner is inside an access
  std::atomic<u64> owner_hits_{0};
  std::atomic<u64> owner_misses_{0};
};

}  // namespace sg

#endif  // SRC_HW_TLB_H_
