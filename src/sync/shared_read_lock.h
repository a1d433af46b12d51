// SharedReadLock — the multi-reader/single-updater lock the paper places
// around every scan of a share group's pregion list (§6.2).
//
// The paper's argument is asymmetric: "Since operations that require the
// update lock are relatively rare (fork, exec, mmap, sbrk, etc.) compared
// to the operations that scan (page fault, pager) the shared lock is
// almost always available and multiple processes do not collide." The
// original s_acclck/s_acccnt construction serialized every reader through
// one spinlock and one shared counter cache line anyway, so parallel
// faulting members collided on the lock *implementation* even when the
// lock itself was free. This version shards the reader count percpu-rwsem
// style so the read fast path touches no shared cache line:
//
//   * slots_[]   — cacheline-padded per-slot reader counts (active holders
//                  and the grant statistic packed into one word). A reader
//                  does one fetch_add on its (thread-hashed) slot, checks
//                  the writer-intent flag, and is in. Release is one
//                  fetch_sub. One atomic RMW per side, none of it shared.
//   * writer_intent_ — raised by AcquireUpdate before it sums the slots
//                  and waits for the active count to drain. A reader that
//                  observes the flag backs its increment out and queues on
//                  the channel behind the writer, so updaters never starve.
//   * acclck_ / waitcnt_ / the wait channel — the slow path keeps the
//                  paper's s_acclck/s_waitcnt/s_updwait sleep protocol
//                  (and ExecutionContext::WillBlock semantics), it is just
//                  no longer on the reader fast path.
//
// Memory-order argument (store-buffering between the two sides): a reader
// increments its slot then loads writer_intent_; an updater stores
// writer_intent_ then sums the slots. All four accesses are seq_cst, so in
// the single total order S either the reader's load precedes the store
// (reader in, and its increment — earlier in S — is seen by the updater's
// sum) or it follows (reader sees the flag and backs out). There is no
// interleaving in which a reader slips in unseen. Writer drain wakeups
// ride a drain-channel generation: the updater snapshots the generation
// *before* summing, so a release that decrements-to-zero and bumps the
// generation after the sum cannot be lost. Queued readers sleep on a
// separate release channel bumped only by ReleaseUpdate, so the back-out
// traffic of a drain never thunders the whole wait queue. See DESIGN.md
// §4c.
#ifndef SRC_SYNC_SHARED_READ_LOCK_H_
#define SRC_SYNC_SHARED_READ_LOCK_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "obs/stats.h"
#include "sync/spinlock.h"

namespace sg {

class SG_CAPABILITY("shared_read_lock") SharedReadLock {
 public:
  // Enough slots that a machine's worth of faulting members hash apart;
  // power of two so slot choice is a mask.
  static constexpr u32 kSlots = 16;

  SharedReadLock() = default;
  SharedReadLock(const SharedReadLock&) = delete;
  SharedReadLock& operator=(const SharedReadLock&) = delete;

  // Reader side: any number of concurrent holders. Uninterruptible (a
  // faulting process must complete its scan once the updater finishes).
  // Release must happen on the thread that acquired (slot-local count).
  void AcquireRead() SG_ACQUIRE_SHARED();
  void ReleaseRead() SG_RELEASE_SHARED();

  // Updater side: exclusive. Waits for all readers to drain.
  void AcquireUpdate() SG_ACQUIRE();
  void ReleaseUpdate() SG_RELEASE();

  // True if the calling relationship permits an update right now without
  // waiting (used only by tests; inherently racy otherwise).
  bool TryAcquireUpdate() SG_TRY_ACQUIRE(true);

  // Names the lock for /proc/share/<gid> ("lock.name"), which reports the
  // per-lock numbers below from the lock's own fields. No per-lock names
  // enter the global registry: it only ever grows, and groups come and go.
  // Call before the lock is shared; not thread-safe against concurrent
  // acquisition.
  void SetName(std::string_view name) { name_ = name; }
  const std::string& name() const { return name_; }

  // Stats for the E8 benchmark and /proc/share/<gid>.
  u64 reads() const;  // successful read acquisitions (sums the slots)
  u64 updates() const { return updates_.load(std::memory_order_relaxed); }
  u64 read_waits() const { return read_waits_.load(std::memory_order_relaxed); }
  u64 update_waits() const { return update_waits_.load(std::memory_order_relaxed); }
  // Read acquisitions that fell off the fast path (writer present).
  u64 read_slow() const { return read_slow_.load(std::memory_order_relaxed); }
  // Per-lock writer entry-to-grant latency (the §7 shrink/detach cost).
  const obs::LatencyHisto& update_wait_histo() const { return wait_histo_; }

 private:
  // One padded shard of the reader count. Both per-slot counts live in one
  // word so the read fast path is a single atomic RMW (percpu-rwsem keeps
  // its fast path to one RMW for the same reason): the low kActiveBits are
  // the in-flight holder count via this slot, the high bits count granted
  // acquisitions (the reads() statistic). The active field cannot
  // underflow into the grant field because a reader releases on the slot
  // it acquired on (slot choice is per-thread, and guards do not migrate
  // threads), and it cannot overflow into the grant field short of 2^16
  // simultaneous holders on one slot.
  struct alignas(64) Slot {
    std::atomic<u64> state{0};
  };
  static constexpr u32 kActiveBits = 16;
  static constexpr u64 kActiveOne = 1;
  static constexpr u64 kActiveMask = (u64{1} << kActiveBits) - 1;
  static constexpr u64 kGrantOne = u64{1} << kActiveBits;

  static u32 SlotIndex();

  // Sum of in-flight readers across all slots (seq_cst loads; see header
  // comment for why this pairs with the readers' seq_cst fetch_adds).
  i64 SumActive() const;

  // Slow-path read acquisition: queue on the release channel until no
  // writer holds or awaits the lock, then enter under acclck_.
  void AcquireReadSlow(Slot& slot);

  // Two wait channels share chan_m_ but have separate generations and
  // condition variables, so wakeups stay targeted:
  //   * the DRAIN channel (drain_gen_/drain_cv_) — bumped by reader
  //     decrements and back-outs while writer_intent_ is up; only the one
  //     draining updater sleeps here.
  //   * the RELEASE channel (release_gen_/release_cv_) — bumped by
  //     ReleaseUpdate; queued readers and queued updaters sleep here. A
  //     reader stream backing out during a drain never wakes them.

  // Sleeps until the release generation changes, releasing both the
  // spinlock (already held by the caller) and the simulated CPU. On return
  // the spinlock is re-held.
  void SleepUntilReleased() SG_REQUIRES(acclck_);
  // Wakes the release channel (all queued readers/updaters). Any thread.
  void WakeReleased();
  // Wakes the drain channel (the draining updater, if any). Any thread.
  void WakeDrain();
  // Current drain generation (for the updater's pre-sum snapshot).
  u64 DrainGen();
  // Blocks until the drain generation differs from `gen` (no spinlock
  // held). Returns immediately if it already moved.
  void WaitDrainChangedFrom(u64 gen);

  Slot slots_[kSlots];

  // Raised for the whole time an updater holds *or is draining toward* the
  // lock; the only lock-wide line the read fast path touches, and only
  // with a load.
  std::atomic<bool> writer_intent_{false};

  Spinlock acclck_{"sharedlock.acclck"};
  // An updater holds or is draining toward the lock.
  bool writer_claimed_ SG_GUARDED_BY(acclck_) = false;
  // Sleepers waiting for the lock.
  unsigned waitcnt_ SG_GUARDED_BY(acclck_) = 0;

  std::mutex chan_m_;
  std::condition_variable drain_cv_;
  std::condition_variable release_cv_;
  // sgcheck:allow(guarded-fields): guarded by chan_m_ (std::mutex is not an
  // SG capability type, so SG_GUARDED_BY cannot name it)
  u64 drain_gen_ = 0;
  // sgcheck:allow(guarded-fields): guarded by chan_m_, see above
  u64 release_gen_ = 0;

  std::atomic<u64> updates_{0};
  std::atomic<u64> read_waits_{0};
  std::atomic<u64> update_waits_{0};
  std::atomic<u64> read_slow_{0};

  obs::LatencyHisto wait_histo_;  // per-lock update entry-to-grant

  // sgcheck:allow(guarded-fields): written by SetName before the lock is
  // shared (documented contract), read-only afterwards
  std::string name_;
};

// RAII guards. Scoped capabilities with an early-release escape: clang
// models Release() (annotated SG_RELEASE) on a scoped object, so the
// destructor's implicit release does not double-count.
class SG_SCOPED_CAPABILITY ReadGuard {
 public:
  explicit ReadGuard(SharedReadLock& l) SG_ACQUIRE_SHARED(l) : l_(&l) { l_->AcquireRead(); }
  ~ReadGuard() SG_RELEASE() { Unwind(); }
  void Release() SG_RELEASE() { Unwind(); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

 private:
  // Unannotated so both the destructor and Release() may call it.
  void Unwind() SG_NO_THREAD_SAFETY_ANALYSIS {
    if (l_ != nullptr) {
      l_->ReleaseRead();
      l_ = nullptr;
    }
  }

  SharedReadLock* l_;
};

class SG_SCOPED_CAPABILITY UpdateGuard {
 public:
  explicit UpdateGuard(SharedReadLock& l) SG_ACQUIRE(l) : l_(&l) { l_->AcquireUpdate(); }
  ~UpdateGuard() SG_RELEASE() { Unwind(); }
  void Release() SG_RELEASE() { Unwind(); }
  UpdateGuard(const UpdateGuard&) = delete;
  UpdateGuard& operator=(const UpdateGuard&) = delete;

 private:
  void Unwind() SG_NO_THREAD_SAFETY_ANALYSIS {
    if (l_ != nullptr) {
      l_->ReleaseUpdate();
      l_ = nullptr;
    }
  }

  SharedReadLock* l_;
};

}  // namespace sg

#endif  // SRC_SYNC_SHARED_READ_LOCK_H_
