// BlockOn — the shared sleep pattern for kernel objects that wait on a
// condition variable (pipes, wait(2), pause(2)): releases the simulated
// CPU, registers the wakeup channel so signal posters can kick the sleeper,
// honors SleepMode::kInterruptible, and avoids the lost-wakeup race by
// registering before the final pending-signal check.
//
// Usage:
//   bool slept = false;
//   Status st;
//   {
//     std::unique_lock<std::mutex> l(m_);
//     st = BlockOn(cv_, l, mode, &slept, [&] { return ready_; });
//     ... consume under l ...
//   }
//   FinishSleep(slept);   // AFTER the mutex is released (may block for a CPU)
#ifndef SRC_SYNC_WAIT_H_
#define SRC_SYNC_WAIT_H_

#include <condition_variable>
#include <mutex>

#include "base/result.h"
#include "sync/execution_context.h"
#include "sync/lockdep.h"

namespace sg {

enum class SleepMode {
  kUninterruptible,  // sleep until the resource is available
  kInterruptible,    // additionally wake with EINTR on a pending signal
};

template <typename Pred>
Status BlockOn(std::condition_variable& cv, std::unique_lock<std::mutex>& l, SleepMode mode,
               bool* slept, Pred&& pred) {
  // Checked even when pred() is already true: whether a BlockOn call
  // actually sleeps is schedule-dependent, the no-spinlock rule is not.
  lockdep::MaySleep("wait.BlockOn");
  ExecutionContext* ctx = CurrentExecutionContext();
  for (;;) {
    if (pred()) {
      return Status::Ok();
    }
    if (ctx != nullptr) {
      ctx->WillBlock();
      ctx->SetWakeup(&cv, l.mutex());
    }
    if (mode == SleepMode::kInterruptible && ctx != nullptr && ctx->InterruptPending()) {
      if (ctx != nullptr) {
        ctx->ClearWakeup();
      }
      return Errno::kEINTR;
    }
    *slept = true;
    cv.wait(l);
    if (ctx != nullptr) {
      ctx->ClearWakeup();
    }
  }
}

// Completes a BlockOn sleep: reacquires the simulated CPU. Call with no
// primitive-internal mutex held.
inline void FinishSleep(bool slept) {
  ExecutionContext* ctx = CurrentExecutionContext();
  if (slept && ctx != nullptr) {
    ctx->DidWake();
  }
}

}  // namespace sg

#endif  // SRC_SYNC_WAIT_H_
