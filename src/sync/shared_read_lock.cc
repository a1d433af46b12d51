#include "sync/shared_read_lock.h"

#include <chrono>

#include "base/check.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sync/execution_context.h"
#include "sync/lockdep.h"

namespace sg {

namespace {
u64 NowNsSince(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}

// All SharedReadLock instances share one lockdep class: every instance
// guards the same kind of object (a share group's pregion list) and no
// path nests two of them.
lockdep::ClassId SharedLockClass() {
  static const lockdep::ClassId id =
      lockdep::RegisterClass("sharedlock", lockdep::Kind::kSleep);
  return id;
}
}  // namespace

namespace {
// Threads are striped across the slots round-robin at first use; the
// index is process-global so every lock hashes a given thread to the same
// slot (release must decrement what acquire incremented). Constant-
// initialized with a sentinel rather than dynamically initialized so the
// fast-path access is a plain TLS load with no init-guard check.
constexpr u32 kSlotUnassigned = ~u32{0};
thread_local u32 tl_slot = kSlotUnassigned;

u32 AssignSlot() {
  static std::atomic<u32> next{0};
  tl_slot = next.fetch_add(1, std::memory_order_relaxed);
  return tl_slot;
}
}  // namespace

u32 SharedReadLock::SlotIndex() {
  u32 idx = tl_slot;
  if (idx == kSlotUnassigned) {
    idx = AssignSlot();
  }
  return idx & (kSlots - 1);
}

i64 SharedReadLock::SumActive() const {
  i64 sum = 0;
  for (const Slot& s : slots_) {
    sum += static_cast<i64>(s.state.load(std::memory_order_seq_cst) & kActiveMask);
  }
  return sum;
}

u64 SharedReadLock::reads() const {
  u64 sum = 0;
  for (const Slot& s : slots_) {
    sum += s.state.load(std::memory_order_relaxed) >> kActiveBits;
  }
  return sum;
}

void SharedReadLock::SleepUntilReleased() {
  // Caller holds acclck_ and has already incremented waitcnt_.
  ExecutionContext* ctx = CurrentExecutionContext();
  {
    // sgcheck:allow(sleep-in-atomic): wait-channel handoff — chan_m_ must be
    // held before acclck_ drops or a concurrent ReleaseUpdate's generation
    // bump is lost; chan_m_ sections are O(1) and take no other lock.
    std::unique_lock<std::mutex> cl(chan_m_);
    const u64 gen = release_gen_;
    // Release the spinlock only after chan_m_ is held: ReleaseUpdate clears
    // writer_claimed_ under acclck_ (which we still hold) and must then take
    // chan_m_ to bump the generation, so the wakeup cannot be lost.
    acclck_.Unlock();
    if (ctx != nullptr) {
      ctx->WillBlock();
    }
    release_cv_.wait(cl, [&] { return release_gen_ != gen; });
  }
  if (ctx != nullptr) {
    ctx->DidWake();  // may block for a CPU; no internal mutex held
  }
  acclck_.Lock();
}

void SharedReadLock::WakeReleased() {
  {
    std::lock_guard<std::mutex> cl(chan_m_);
    ++release_gen_;
  }
  release_cv_.notify_all();
}

void SharedReadLock::WakeDrain() {
  {
    std::lock_guard<std::mutex> cl(chan_m_);
    ++drain_gen_;
  }
  drain_cv_.notify_all();
}

u64 SharedReadLock::DrainGen() {
  std::lock_guard<std::mutex> cl(chan_m_);
  return drain_gen_;
}

void SharedReadLock::WaitDrainChangedFrom(u64 gen) {
  ExecutionContext* ctx = CurrentExecutionContext();
  bool blocked = false;
  {
    std::unique_lock<std::mutex> cl(chan_m_);
    if (drain_gen_ == gen) {
      blocked = true;
      if (ctx != nullptr) {
        ctx->WillBlock();
      }
      drain_cv_.wait(cl, [&] { return drain_gen_ != gen; });
    }
  }
  if (blocked && ctx != nullptr) {
    ctx->DidWake();
  }
}

void SharedReadLock::AcquireRead() {
  // Even the fast path is a violation under a spinlock: whether THIS call
  // sleeps depends on a racing updater, and the discipline must hold on
  // every schedule.
  lockdep::MaySleep("sharedlock.AcquireRead");
  Slot& slot = slots_[SlotIndex()];
  // One RMW: raise the active count and (optimistically) the grant
  // statistic together. The only shared state touched after it is a load
  // of the (rarely written) intent flag.
  slot.state.fetch_add(kGrantOne | kActiveOne, std::memory_order_seq_cst);
  if (!writer_intent_.load(std::memory_order_seq_cst)) {
    lockdep::OnAcquire(SharedLockClass(), this);
    return;
  }
  // A writer holds the lock or is draining readers: back the increment out
  // (grant included — this acquisition was not granted) and queue behind
  // it, so updaters are never starved by a reader stream.
  slot.state.fetch_sub(kGrantOne | kActiveOne, std::memory_order_seq_cst);
  SG_INJECT_POINT("sharedlock.read.backout");
  WakeDrain();  // the writer may be drain-waiting on our transient count
  AcquireReadSlow(slot);
  // Recorded after AcquireReadSlow drops acclck_, so lockdep never sees an
  // acclck -> sharedlock edge (the implementation lock is strictly inside).
  lockdep::OnAcquire(SharedLockClass(), this);
}

void SharedReadLock::AcquireReadSlow(Slot& slot) {
  acclck_.Lock();
  while (writer_claimed_) {
    ++waitcnt_;
    read_waits_.fetch_add(1, std::memory_order_relaxed);
    SG_OBS_INC("sharedlock.read_waits");
    obs::Trace(obs::TraceKind::kLockReadWait);
    // sgcheck:allow(sleep-in-atomic): handoff — SleepUntilReleased drops
    // acclck_ before sleeping and re-holds it before returning.
    SleepUntilReleased();
    --waitcnt_;
  }
  // Enter while holding acclck_: the next writer must take acclck_ to
  // claim, which orders after our release, so its drain sum sees this
  // increment.
  slot.state.fetch_add(kGrantOne | kActiveOne, std::memory_order_seq_cst);
  read_slow_.fetch_add(1, std::memory_order_relaxed);
  acclck_.Unlock();
}

void SharedReadLock::ReleaseRead() {
  lockdep::OnRelease(SharedLockClass(), this);
  Slot& slot = slots_[SlotIndex()];
  slot.state.fetch_sub(kActiveOne, std::memory_order_seq_cst);
  if (writer_intent_.load(std::memory_order_seq_cst)) {
    // Seq_cst pairing mirrors the acquire side: either our decrement lands
    // before the writer's drain sum, or we see its intent and wake it.
    WakeDrain();
  }
}

void SharedReadLock::AcquireUpdate() {
  lockdep::MaySleep("sharedlock.AcquireUpdate");
  // Writer-wait latency is the paper's §7 cost of shrink/detach: every
  // update acquisition records entry-to-grant time, so /proc/stat exposes
  // how long updaters stall behind the reader population.
  const auto t0 = std::chrono::steady_clock::now();

  acclck_.Lock();
  while (writer_claimed_) {
    ++waitcnt_;
    update_waits_.fetch_add(1, std::memory_order_relaxed);
    SG_OBS_INC("sharedlock.update_waits");
    obs::Trace(obs::TraceKind::kLockUpdateWait);
    // sgcheck:allow(sleep-in-atomic): handoff — SleepUntilReleased drops
    // acclck_ before sleeping and re-holds it before returning.
    SleepUntilReleased();
    --waitcnt_;
  }
  writer_claimed_ = true;
  writer_intent_.store(true, std::memory_order_seq_cst);
  acclck_.Unlock();
  SG_INJECT_POINT("sharedlock.update.pre_drain");

  // Drain the in-flight readers. New readers see writer_intent_ and back
  // out; each release (or back-out) with the flag up bumps the drain
  // generation, and the generation is snapshotted BEFORE the sum, so a
  // decrement-to-zero between the sum and the sleep is never lost.
  for (;;) {
    const u64 gen = DrainGen();
    if (SumActive() == 0) {
      break;
    }
    update_waits_.fetch_add(1, std::memory_order_relaxed);
    SG_OBS_INC("sharedlock.update_waits");
    obs::Trace(obs::TraceKind::kLockUpdateWait);
    WaitDrainChangedFrom(gen);
  }

  lockdep::OnAcquire(SharedLockClass(), this);
  updates_.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("sharedlock.updates");
  static obs::LatencyHisto& global_wait_histo =
      obs::Stats::Global().histo("sharedlock.update_wait_ns");
  const u64 wait_ns = NowNsSince(t0);
  global_wait_histo.Record(wait_ns);
  wait_histo_.Record(wait_ns);
}

bool SharedReadLock::TryAcquireUpdate() {
  acclck_.Lock();
  if (writer_claimed_) {
    acclck_.Unlock();
    return false;
  }
  writer_claimed_ = true;
  writer_intent_.store(true, std::memory_order_seq_cst);
  if (SumActive() != 0) {
    // Readers in flight: undo. A fast-path reader that backed out because
    // of our transient intent is spinning on acclck_ (still ours) and will
    // re-enter as soon as we release — no sleeper to wake.
    writer_claimed_ = false;
    writer_intent_.store(false, std::memory_order_seq_cst);
    acclck_.Unlock();
    return false;
  }
  acclck_.Unlock();
  lockdep::OnAcquire(SharedLockClass(), this);
  updates_.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("sharedlock.updates");
  return true;
}

void SharedReadLock::ReleaseUpdate() {
  lockdep::OnRelease(SharedLockClass(), this);
  SG_INJECT_POINT("sharedlock.update.release");
  acclck_.Lock();
  SG_DCHECK(writer_claimed_);
  writer_claimed_ = false;
  writer_intent_.store(false, std::memory_order_seq_cst);
  const bool wake = waitcnt_ > 0;
  acclck_.Unlock();
  if (wake) {
    WakeReleased();
  }
}

}  // namespace sg
