// ShaddrBlock — the paper's shaddr_t (§6.1): "For each share group, there
// is a single data structure (the shared address block) that is referenced
// by all members of the group."
//
// Field correspondence with the paper's structure:
//   s_region / s_acclck / s_updwait / s_acccnt / s_waitcnt
//       -> space_ (vm::SharedSpace: the shared pregion list + SharedReadLock)
//   s_plink / s_refcnt / s_listlock
//       -> the member chain (through Proc::s_plink), refcnt_, listlock_
//   s_fupdsema -> fupdsema_ (single-threads open-file-table updates; a
//       spinlock here, not IRIX's sleeping semaphore — see the bracket below)
//   s_ofile / s_pofile -> ofile_ (master copy of the descriptor table,
//       FdEntry carries the per-descriptor flag byte), generation-stamped
//       per slot for delta synchronization
//   s_cdir / s_rdir -> cdir_/rdir_ (counted inode refs)
//   s_rupdlock -> rupdlock_ (spinlock for the small shared values)
//   s_cmask / s_limit / s_uid / s_gid -> cmask_/limit_/uid_/gid_
//
// "Those resources which have reference counts (file descriptors and
// inodes) have the count bumped one for the shared address block. This
// avoids any races whereby the process that changed the resource exits
// before all other group members have had a chance to synchronize." The
// block therefore owns one reference to every file in ofile_ and to
// cdir_/rdir_, released only at group teardown or replacement.
//
// ---- Generation-based resource synchronization (DESIGN.md §4f) ----
//
// The paper's p_flag bits answer "did ANYTHING change?"; flagging is
// O(members) per update and a flagged member resynchronizes wholesale.
// This block generalizes the "checked in a single test" property to
// generation counters:
//
//   * resgen_ — one packed u64 with a generation lane per shared resource
//     (fds/dir/id/umask/ulimit). Every update bumps its lane; a member
//     caches the word it last synced against (Proc::p_resgen), so kernel
//     entry stays a single word compare and updates stop walking the
//     member chain (FlagOthers survives only as the lane-wrap fallback
//     and for forced resyncs: sproc seeding, PR_JOINGROUP, teardown).
//   * fd_gen_ / MasterFdSlot::gen — the master descriptor table carries a
//     full-width table generation; each slot is stamped with the
//     generation of its last change and each member records the table
//     generation its own fd table reflects (Proc::p_fd_synced_gen).
//     PublishFds diffs the member table against the master and touches
//     only changed slots; PullFdsIfFlagged copies only slots stamped
//     newer than the member's last sync — a 1-fd open(2) costs O(changed)
//     refcount round-trips per member instead of O(kMaxFds).
#ifndef SRC_CORE_SHADDR_H_
#define SRC_CORE_SHADDR_H_

#include <array>
#include <atomic>
#include <vector>

#include "base/check.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "fs/file.h"
#include "fs/vfs.h"
#include "hw/cpu_set.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "proc/proc.h"
#include "rm/rm.h"
#include "sync/spinlock.h"
#include "vm/shared_space.h"

namespace sg {

// Lanes of the packed resource-generation word. The fds lane mirrors the
// low bits of the full-width fd_gen_; the scalar lanes are free-running
// modular counters. Lane widths bound how far a member may lag before the
// word compare could alias (2^bits updates); the updater closes that hole
// by falling back to a FlagOthers walk whenever a lane wraps to 0, so the
// p_flag bit forces the pull no matter what the word compare says.
struct ResLane {
  u32 shift;
  u32 bits;
};
inline constexpr ResLane kLaneFds{0, 16};
inline constexpr ResLane kLaneDir{16, 12};
inline constexpr ResLane kLaneId{28, 12};
inline constexpr ResLane kLaneUmask{40, 12};
inline constexpr ResLane kLaneUlimit{52, 12};

constexpr u64 LaneLimit(ResLane l) { return u64{1} << l.bits; }
constexpr u64 LaneMask(ResLane l) { return (LaneLimit(l) - 1) << l.shift; }
constexpr u64 LaneGet(u64 word, ResLane l) { return (word >> l.shift) & (LaneLimit(l) - 1); }
constexpr u64 LaneSet(u64 word, ResLane l, u64 v) {
  return (word & ~LaneMask(l)) | ((v & (LaneLimit(l) - 1)) << l.shift);
}

// One master descriptor-table slot: the entry plus the fd_gen_ value of
// its last change (0 = never touched since the block was created).
struct MasterFdSlot {
  FdEntry e;
  u64 gen = 0;
};

class FdUpdateBracket;

class ShaddrBlock {
 public:
  // Creates the block for `creator`'s new share group: moves the creator's
  // sharable pregions onto the shared list, registers its TLB, seeds the
  // master resource copies from the creator's u-area (bumping the block's
  // own references), links the creator as the first member, and gives it a
  // mask "indicating that all resources are shared".
  // Analysis suppressed on both: the constructor runs before the block is
  // published (nobody else can hold its locks) and the destructor after
  // the last member detached (sole owner), so neither takes the locks the
  // touched fields are guarded by.
  ShaddrBlock(Proc& creator, CpuSet& cpus, Vfs& vfs, rm::ResourceManager& rm)
      SG_NO_THREAD_SAFETY_ANALYSIS;
  ~ShaddrBlock() SG_NO_THREAD_SAFETY_ANALYSIS;
  ShaddrBlock(const ShaddrBlock&) = delete;
  ShaddrBlock& operator=(const ShaddrBlock&) = delete;

  // ----- the pregion half (s_region & friends) -----
  SharedSpace& space() { return space_; }

  // System-wide unique group id (the /proc/share/<id> name).
  u64 id() const { return id_; }

  // ----- fair-share resource manager (src/rm/) -----
  // The group's rm node: CPU shares + decayed usage + capacity caps. Owned
  // by the manager; created in the constructor, released in the destructor,
  // so it outlives every reference a member can publish (members clear
  // their Proc::rm_node in RemoveMember, strictly before teardown).
  //
  // Accounting contract: the ADMISSION seams charge kMembers (sproc /
  // PR_JOINGROUP, before the member attaches) and RemoveMember uncharges;
  // kFiles moves only with the master fd table (constructor seed,
  // PublishFds deltas); kPages moves with page-table validity transitions
  // via the regions' PageCharge hookup.
  rm::GroupNode* rm_node() const { return node_; }

  // ----- member chain (s_plink/s_refcnt/s_listlock) -----
  // Links `child` with its (already strict-inheritance-masked) share mask.
  // If PR_SADDR is set the child's address space joins the shared image.
  // The caller seeds the child's p_resgen/p_fd_synced_gen from its own
  // (the child's u-area is a copy of the caller's, so it is exactly as
  // stale as the caller).
  void AddMember(Proc& child, u32 shmask);

  // Like AddMember, but fails (returns false) if the group is already
  // draining (refcnt 0, block about to be destroyed). Used by the dynamic
  // PR_JOINGROUP extension, where the joiner races the last member's exit.
  bool TryAddMember(Proc& child, u32 shmask);

  // Unlinks `p` (exit(2) or exec(2)). Removes the member's stack from the
  // shared image (with the §6.2 shootdown: its frames are freed) and drops
  // its TLB registration. Returns true when `p` was the last member — the
  // caller then destroys the block ("the structure is thrown away once the
  // last member exits").
  bool RemoveMember(Proc& p);

  // §8 PR_UNSHARE(PR_SADDR): takes a copy-on-write snapshot of the shared
  // image into `p`'s private space (its own stack MOVES out of the shared
  // image) and detaches `p` from shared VM. `p` stays a group member for
  // whatever else it shares.
  Status UnshareVm(Proc& p);

  // §8 PR_PRIVDATA: shadows the shared DATA region with a private
  // copy-on-write duplicate in `p`'s address space — the private-first scan
  // order (§6.2) makes `p` use the copy while everyone else keeps sharing.
  Status ShadowDataPrivately(Proc& p);

  // Calls fn(member) for each member under the list lock.
  template <typename Fn>
  void ForEachMember(Fn&& fn) {
    SpinGuard g(listlock_);
    for (Proc* m = plink_; m != nullptr; m = m->s_plink) {
      fn(*m);
    }
  }

  u32 refcnt() const;

  // ----- §6.3 resource synchronization -----
  // Update protocol ("the share block is locked for update, the resource is
  // modified, a copy is made in the shared address block, each sharing
  // group member's p_flag word is updated, and the lock is released" —
  // except that "each member's p_flag is updated" is now "the resource's
  // generation lane is bumped": O(1) in group size. The double-update
  // check survives unchanged: after acquiring the lock the updater first
  // synchronizes its own stale copy, then applies its change):
  //
  //   lock -> pull-if-stale -> apply caller's change -> copy to master ->
  //   bump the resource's generation lane -> unlock.
  //
  // File-descriptor updates are single-threaded by fupdsema_ (s_fupdsema).
  // IRIX sleeps on that semaphore across a whole open/close; here it is a
  // spinlock held only for the descriptor-table edit, through
  // FdUpdateBracket (below): the path walk runs before it, last-reference
  // drops after it. The small scalar resources complete inside rupdlock_
  // (s_rupdlock).

  // Scalar resources; null/unset arguments leave that field as-is.
  void UpdateDir(Proc& p, Inode* new_cwd, Inode* new_root);  // takes over the counted refs
  void UpdateIds(Proc& p, const uid_t* new_uid, const gid_t* new_gid);
  void UpdateUmask(Proc& p, mode_t value);
  void UpdateUlimit(Proc& p, u64 value);

  // Kernel-entry hook. "When a shared process enters the system via a
  // system call, the collection of bits in p_flag is checked in a single
  // test" — the single test is now the packed-word compare (plus the
  // legacy bit AND for forced resyncs); pulls whatever lane is stale.
  void SyncOnKernelEntry(Proc& p);

  // The block's current packed resource-generation word (tests, /proc).
  u64 resgen() const { return resgen_.load(std::memory_order_acquire); }

  // Test/diagnostic accessors for the master copies.
  mode_t cmask() const;
  u64 limit() const;
  uid_t uid() const;
  gid_t gid() const;
  Inode* cdir() const;
  Inode* rdir() const;
  // Used descriptors in the master table. Maintained incrementally at
  // publish so the /proc/share snapshot is one atomic load, not a
  // kMaxFds walk under a lock.
  int OfileCount() const { return ofile_count_.load(std::memory_order_acquire); }

 private:
  friend class FdUpdateBracket;

  // The descriptor bracket's lock. An uncontended acquire is one xchg; a
  // contended one spins (counted in core.fupdsema_waits, its wait timed
  // into core.fupdsema_wait_ns) and never parks the host thread.
  void LockFileUpdate() SG_ACQUIRE(fupdsema_);
  void UnlockFileUpdate() SG_RELEASE(fupdsema_) { fupdsema_.Unlock(); }
  // Delta pull: copies only master slots stamped newer than the member's
  // last-synced generation. A member flagged with kPfSyncFds (forced
  // resync: PR_JOINGROUP, lane wrap) reconciles every slot instead. The
  // member references it replaces are released by `u` after the unlock.
  void PullFdsIfFlagged(Proc& p, FdUpdateBracket& u) SG_REQUIRES(fupdsema_);
  // Delta publish: diffs `p`'s table against the master and touches only
  // changed slots (refcount traffic proportional to the change, not the
  // table), stamping them with a fresh table generation. The master
  // references it displaces are released by `u` after the unlock.
  void PublishFds(Proc& p, FdUpdateBracket& u) SG_REQUIRES(fupdsema_);

  // Bumps `lane` of resgen_ by one (CAS: the fds lane and the scalar lanes
  // are bumped under different locks, so a plain RMW could carry into a
  // neighbor lane). Returns the new lane value; 0 means the lane wrapped
  // and the caller must FlagOthers so a member exactly 2^bits updates
  // behind cannot alias the word compare.
  u64 BumpScalarLane(ResLane lane);
  // Sets the fds lane to the low bits of `fd_gen` (same CAS discipline).
  void StoreFdsLane(u64 fd_gen);

  // Sets `bit` in every member (except `self`) whose share mask includes
  // `resource`. O(members): only the wrap fallback and forced-resync
  // paths use it now.
  void FlagOthers(Proc& self, u32 resource, u32 bit);

  // Kernel-entry pulls: refresh the member's private copy from the master
  // and adopt the lane into the member's cached word.
  void PullDir(Proc& p);
  void PullIds(Proc& p);
  void PullUmask(Proc& p);
  void PullUlimit(Proc& p);

  Vfs& vfs_;
  SharedSpace space_;
  const u64 id_;  // assigned at creation, never reused
  rm::ResourceManager& rm_;
  rm::GroupNode* const node_;  // this group's fair-share account

  mutable Spinlock listlock_{"shaddr.listlock"};    // s_listlock
  Proc* plink_ SG_GUARDED_BY(listlock_) = nullptr;  // s_plink
  u32 refcnt_ SG_GUARDED_BY(listlock_) = 0;         // s_refcnt

  // s_fupdsema. Its critical section is the O(changed) slot edits, one
  // FileTable::Dup (a fetch_add) per copied slot, the rm kFiles atomics
  // and FlagOthers; everything that may block runs outside it.
  Spinlock fupdsema_{"shaddr.fupdsema"};
  // s_ofile + s_pofile: the master descriptor table, generation-stamped
  // per slot. Touched only inside the fupdsema_ bracket; the /proc
  // snapshot reads the incremental ofile_count_ instead of walking it.
  std::vector<MasterFdSlot> ofile_ SG_GUARDED_BY(fupdsema_);
  // Full-width master-table generation; bumped once per publish that
  // changed anything. Slots are stamped with it; members remember the
  // value they last synced to (Proc::p_fd_synced_gen).
  u64 fd_gen_ SG_GUARDED_BY(fupdsema_) = 1;
  std::atomic<int> ofile_count_{0};

  // The packed per-resource generation word (see lane constants above).
  // Scalar lanes are bumped under rupdlock_, the fds lane under the
  // fupdsema_ bracket; cross-lane concurrency is resolved by CAS.
  std::atomic<u64> resgen_{LaneSet(LaneSet(LaneSet(LaneSet(LaneSet(0, kLaneFds, 1), kLaneDir, 1),
                                                   kLaneId, 1),
                                           kLaneUmask, 1),
                                   kLaneUlimit, 1)};

  mutable Spinlock rupdlock_{"shaddr.rupdlock"};  // s_rupdlock
  Inode* cdir_ SG_GUARDED_BY(rupdlock_) = nullptr;  // s_cdir
  Inode* rdir_ SG_GUARDED_BY(rupdlock_) = nullptr;  // s_rdir
  mode_t cmask_ SG_GUARDED_BY(rupdlock_) = 022;     // s_cmask
  u64 limit_ SG_GUARDED_BY(rupdlock_) = 0;          // s_limit
  uid_t uid_ SG_GUARDED_BY(rupdlock_) = 0;          // s_uid
  gid_t gid_ SG_GUARDED_BY(rupdlock_) = 0;          // s_gid
};

// The §6.3 descriptor-table update bracket, written once for every fd
// syscall and for the kernel-entry pull:
//
//   FdUpdateBracket u(files, b, p);  // lock, pull-if-stale (double-update check)
//   <edit p.fds; u.ReleaseLater(f) for each reference the edit drops>
//   u.Publish();                     // copy the change to the master
//   }                                // unlock, then release what was dropped
//
// With a null block (the caller does not share PR_SFDS) there is no lock,
// pull or publish; ReleaseLater still defers to the end of the scope.
// Only the caller's own table edits may run inside: the path walk of an
// open and the creation of a pipe happen before the bracket (Linux's
// do_filp_open before fd_install), and every last-reference drop after it.
class FdUpdateBracket {
 public:
  FdUpdateBracket(FileTable& files, ShaddrBlock* b, Proc& p) SG_NO_THREAD_SAFETY_ANALYSIS
      : files_(files), b_(b), p_(p) {
    if (b_ != nullptr) {
      b_->LockFileUpdate();
      b_->PullFdsIfFlagged(p_, *this);
    }
  }
  ~FdUpdateBracket() SG_NO_THREAD_SAFETY_ANALYSIS {
    if (b_ != nullptr) {
      b_->UnlockFileUpdate();
    }
    for (u32 i = 0; i < ndropped_; ++i) {
      files_.Release(dropped_[i]);
    }
  }
  FdUpdateBracket(const FdUpdateBracket&) = delete;
  FdUpdateBracket& operator=(const FdUpdateBracket&) = delete;

  // Copies the caller's edited table to the master (no-op without a block).
  void Publish() SG_NO_THREAD_SAFETY_ANALYSIS {
    if (b_ != nullptr) {
      b_->PublishFds(p_, *this);
    }
  }
  // Drops one reference once the bracket has unlocked: FileTable::Release's
  // zero crossing takes a shard mutex and Iputs the inode, and neither may
  // run under the spinlock.
  void ReleaseLater(OpenFile* f) {
    SG_CHECK(ndropped_ < kMaxDropped);
    dropped_[ndropped_++] = f;
  }

 private:
  // No heap: a pull drops at most one reference per slot, a publish at
  // most one per slot, and the syscall itself at most two (MakePipe's
  // unwind).
  static constexpr u32 kMaxDropped = 2 * FdTable::kMaxFds + 2;

  FileTable& files_;
  ShaddrBlock* const b_;
  Proc& p_;
  std::array<OpenFile*, kMaxDropped> dropped_;  // [0, ndropped_) are live
  u32 ndropped_ = 0;
};

}  // namespace sg

#endif  // SRC_CORE_SHADDR_H_
