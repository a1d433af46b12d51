// CpuSet models the machine's processors for accounting purposes and
// provides the synchronous cross-processor TLB flush of §6.2.
//
// Scheduling of host threads onto the simulated processors is handled by
// proc/scheduler.h; CpuSet is the hardware-facing view (how many CPUs exist,
// how many inter-processor TLB-flush interrupts were delivered).
#ifndef SRC_HW_CPU_SET_H_
#define SRC_HW_CPU_SET_H_

#include <atomic>
#include <span>

#include "base/types.h"
#include "hw/tlb.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace sg {

class CpuSet {
 public:
  explicit CpuSet(u32 ncpus) : ncpus_(ncpus) {}
  CpuSet(const CpuSet&) = delete;
  CpuSet& operator=(const CpuSet&) = delete;

  u32 ncpus() const { return ncpus_; }

  // "Synchronously flush the TLBs for ALL processors": invalidates every
  // supplied translation context before the caller frees pages. By the time
  // this returns, no processor holds a stale mapping; any running member
  // that touches the affected space misses and blocks on the shared read
  // lock (held for update by the caller).
  void SynchronousFlush(std::span<Tlb* const> tlbs) {
    Tlb::FlushAllOf(tlbs);
    shootdowns_.fetch_add(1, std::memory_order_relaxed);
    ipis_.fetch_add(ncpus_, std::memory_order_relaxed);
    SG_OBS_INC("tlb.shootdowns");
    SG_OBS_ADD("tlb.shootdown_ipis", ncpus_);
    obs::Trace(obs::TraceKind::kTlbShootdown, tlbs.size(), ncpus_);
  }

  u64 shootdowns() const { return shootdowns_.load(std::memory_order_relaxed); }
  u64 ipis() const { return ipis_.load(std::memory_order_relaxed); }

 private:
  u32 ncpus_;
  std::atomic<u64> shootdowns_{0};
  std::atomic<u64> ipis_{0};
};

}  // namespace sg

#endif  // SRC_HW_CPU_SET_H_
