#include "hw/tlb.h"

#include "base/check.h"
#include "obs/stats.h"

namespace sg {

namespace {
constexpr bool IsPowerOfTwo(u32 v) { return v != 0 && (v & (v - 1)) == 0; }

// Publishes a finished flush operation that killed `killed` entries to the
// kernel-wide counters. Called after the TLB lock is dropped.
void RecordFlush(u64 killed) {
  SG_OBS_INC("tlb.flushes");
  SG_OBS_ADD("tlb.flushed_entries", killed);
}
}  // namespace

Tlb::Tlb(u32 entries) : nentries_(entries) {
  SG_CHECK(IsPowerOfTwo(entries));
  entries_.resize(nentries_);
}

TlbProbe Tlb::Probe(u64 vpn, bool want_write) {
  TlbProbe out;
  {
    SpinGuard g(lock_);
    const Entry& e = entries_[SlotFor(vpn)];
    if (Live(e) && e.vpn == vpn) {
      out.pfn = e.pfn;
      // A write to a read-only entry is counted as a miss for stats
      // purposes: it enters the fault path.
      out.kind = want_write && !e.writable ? TlbProbe::Kind::kWriteProt : TlbProbe::Kind::kHit;
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
  e.vpn = vpn;
  e.pfn = pfn;
  e.gen = flush_gen_;
  e.valid = true;
  e.writable = writable;
}

void Tlb::Invalidate(Entry& e) {
  e.valid = false;
  SG_DCHECK(live_count_ > 0);
  --live_count_;
  ++flushed_entries_;
}

void Tlb::FlushAll() {
  // O(1): advance the generation; every entry stamped with the old one is
  // now dead. Taking the spinlock (even briefly) means any in-flight
  // WithEntry access completed before this flush returns — the synchronous
  // shootdown guarantee of §6.2 is preserved without the O(entries) scan.
  u64 killed = 0;
  {
    SpinGuard g(lock_);
    ++flush_gen_;
    killed = live_count_;
    flushed_entries_ += killed;
    live_count_ = 0;
    ++flushes_;
  }
  RecordFlush(killed);
}

void Tlb::FlushPage(u64 vpn) {
  u64 killed = 0;
  {
    SpinGuard g(lock_);
    Entry& e = entries_[SlotFor(vpn)];
    if (Live(e) && e.vpn == vpn) {
      Invalidate(e);
      killed = 1;
    }
    ++flushes_;
  }
  RecordFlush(killed);
}

void Tlb::FlushRange(u64 vpn_begin, u64 vpn_end) {
  u64 killed = 0;
  {
    SpinGuard g(lock_);
    for (Entry& e : entries_) {
      if (Live(e) && e.vpn >= vpn_begin && e.vpn < vpn_end) {
        Invalidate(e);
        ++killed;
      }
    }
    ++flushes_;
  }
  RecordFlush(killed);
}

}  // namespace sg
