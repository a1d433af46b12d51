// ShaddrBlock — the paper's shaddr_t (§6.1): "For each share group, there
// is a single data structure (the shared address block) that is referenced
// by all members of the group."
//
// Field correspondence with the paper's structure:
//   s_region / s_acclck / s_updwait / s_acccnt / s_waitcnt
//       -> space_ (vm::SharedSpace: the shared pregion list + SharedReadLock)
//   s_plink / s_refcnt / s_listlock
//       -> the member chain (through Proc::s_plink), refcnt_, listlock_
//   s_fupdsema -> fupdsema_ (single-threads descriptor-table access; a
//       spinlock here, not IRIX's sleeping semaphore — see the bracket below)
//   s_ofile / s_pofile -> group_fds_: the group's one descriptor table
//       (FdEntry carries the per-descriptor flag byte). PR_SFDS members
//       have no private copy; every lookup and edit goes to this table.
//   s_cdir / s_rdir -> cdir_/rdir_ (counted inode refs)
//   s_rupdlock -> rupdlock_ (spinlock for the small shared values)
//   s_cmask / s_limit / s_uid / s_gid -> cmask_/limit_/uid_/gid_
//
// "Those resources which have reference counts (file descriptors and
// inodes) have the count bumped one for the shared address block. This
// avoids any races whereby the process that changed the resource exits
// before all other group members have had a chance to synchronize." The
// block owns the references in group_fds_ (the founder's moved in at
// creation) and one on cdir_/rdir_, released only at group teardown or
// replacement.
//
// ---- Descriptors: one shared table (DESIGN.md §4f) ----
//
// The paper copies every descriptor change into s_ofile and back out into
// each member's u-area at its next kernel entry. Here PR_SFDS members
// share the block's table by reference, like Linux's clone(CLONE_FILES):
// an edit is visible to every member at once, so nothing is published or
// pulled. Copies are made only where a process stops sharing: fork,
// sproc without PR_SFDS, PR_UNSHARE(PR_SFDS) and exec.
//
// ---- Generation-based scalar synchronization (DESIGN.md §4f) ----
//
// The directories, ids, umask and ulimit keep the paper's copy-on-entry.
// The paper's p_flag bits answer "did ANYTHING change?"; flagging is
// O(members) per update and a flagged member resynchronizes wholesale.
// resgen_ is one packed u64 with a generation lane per scalar resource.
// Every update bumps its lane; a member caches the word it last synced
// against (Proc::p_resgen), so kernel entry stays a single word compare
// and updates stop walking the member chain (FlagOthers survives only as
// the lane-wrap fallback and for forced resyncs: PR_JOINGROUP, teardown).
#ifndef SRC_CORE_SHADDR_H_
#define SRC_CORE_SHADDR_H_

#include <array>
#include <atomic>

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

// Lanes of the packed resource-generation word: free-running modular
// counters, one per scalar resource. Lane widths bound how far a member may lag before the
// word compare could alias (2^bits updates); the updater closes that hole
// by falling back to a FlagOthers walk whenever a lane wraps to 0, so the
// p_flag bit forces the pull no matter what the word compare says.
struct ResLane {
  u32 shift;
  u32 bits;
};
inline constexpr ResLane kLaneDir{0, 12};
inline constexpr ResLane kLaneId{12, 12};
inline constexpr ResLane kLaneUmask{24, 12};
inline constexpr ResLane kLaneUlimit{36, 12};

constexpr u64 LaneLimit(ResLane l) { return u64{1} << l.bits; }
constexpr u64 LaneMask(ResLane l) { return (LaneLimit(l) - 1) << l.shift; }
constexpr u64 LaneGet(u64 word, ResLane l) { return (word >> l.shift) & (LaneLimit(l) - 1); }
constexpr u64 LaneSet(u64 word, ResLane l, u64 v) {
  return (word & ~LaneMask(l)) | ((v & (LaneLimit(l) - 1)) << l.shift);
}

class FdUpdateBracket;

class ShaddrBlock {
 public:
  // Creates the block for `creator`'s new share group: moves the creator's
  // sharable pregions onto the shared list, registers its TLB, moves the
  // creator's descriptor table into the block, seeds the scalar master
  // copies from its u-area (bumping the block's own references), links the creator as the first member, and gives it a
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
  // kFiles moves only with the group fd table (constructor seed,
  // FdUpdateBracket::Publish deltas); kPages moves with page-table validity transitions
  // via the regions' PageCharge hookup.
  rm::GroupNode* rm_node() const { return node_; }

  // ----- member chain (s_plink/s_refcnt/s_listlock) -----
  // Links `child` with its (already strict-inheritance-masked) share mask.
  // If PR_SADDR is set the child's address space joins the shared image.
  // The caller seeds the child's p_resgen from its own (the child's u-area
  // is a copy of the caller's, so it is exactly as stale as the caller)
  // and gives a PR_SFDS child no descriptor table of its own.
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
  // Scalar update protocol ("the share block is locked for update, the
  // resource is modified, a copy is made in the shared address block, each
  // sharing group member's p_flag word is updated, and the lock is
  // released" — except that "each member's p_flag is updated" is now "the
  // resource's generation lane is bumped": O(1) in group size. The
  // double-update check survives unchanged: after acquiring the lock the
  // updater first synchronizes its own stale copy, then applies its
  // change):
  //
  //   lock -> pull-if-stale -> apply caller's change -> copy to master ->
  //   bump the resource's generation lane -> unlock.
  //
  // The small scalar resources complete inside rupdlock_ (s_rupdlock).
  // Descriptors have no copy to synchronize: every access to the shared
  // table goes through FdUpdateBracket (below), which holds fupdsema_
  // (s_fupdsema) for the lookup or edit only.

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
  // Used descriptors in the group table. Maintained incrementally by
  // FdUpdateBracket::Publish so the /proc/share snapshot is one atomic
  // load, not a kMaxFds walk under a lock.
  int OfileCount() const { return ofile_count_.load(std::memory_order_acquire); }

 private:
  friend class FdUpdateBracket;

  // The descriptor bracket's lock. An uncontended acquire is one xchg; a
  // contended one spins (counted in core.fupdsema_waits, its wait timed
  // into core.fupdsema_wait_ns) and never parks the host thread.
  void LockFileUpdate() SG_ACQUIRE(fupdsema_);
  void UnlockFileUpdate() SG_RELEASE(fupdsema_) { fupdsema_.Unlock(); }

  // Bumps `lane` of resgen_ by one (CAS: the lanes are packed in one word,
  // so a plain RMW could carry into a neighbor lane). Returns the new lane
  // value; 0 means the lane wrapped and the caller must FlagOthers so a
  // member exactly 2^bits updates behind cannot alias the word compare.
  u64 BumpScalarLane(ResLane lane);

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

  // s_fupdsema. Its critical section is one slot lookup or edit, a
  // FileTable::Dup (a fetch_add) per reference taken and the rm kFiles
  // atomics; everything that may block runs outside it.
  Spinlock fupdsema_{"shaddr.fupdsema"};
  // s_ofile + s_pofile: the group's descriptor table, touched only inside
  // the fupdsema_ bracket; the /proc snapshot reads the incremental
  // ofile_count_ instead of walking it.
  FdTable group_fds_ SG_GUARDED_BY(fupdsema_);
  std::atomic<int> ofile_count_{0};

  // The packed per-resource generation word (see lane constants above),
  // bumped under rupdlock_.
  std::atomic<u64> resgen_{
      LaneSet(LaneSet(LaneSet(LaneSet(0, kLaneDir, 1), kLaneId, 1), kLaneUmask, 1), kLaneUlimit, 1)};

  mutable Spinlock rupdlock_{"shaddr.rupdlock"};  // s_rupdlock
  Inode* cdir_ SG_GUARDED_BY(rupdlock_) = nullptr;  // s_cdir
  Inode* rdir_ SG_GUARDED_BY(rupdlock_) = nullptr;  // s_rdir
  mode_t cmask_ SG_GUARDED_BY(rupdlock_) = 022;     // s_cmask
  u64 limit_ SG_GUARDED_BY(rupdlock_) = 0;          // s_limit
  uid_t uid_ SG_GUARDED_BY(rupdlock_) = 0;          // s_uid
  gid_t gid_ SG_GUARDED_BY(rupdlock_) = 0;          // s_gid
};

// The descriptor-table bracket, written once for every fd syscall:
//
//   FdUpdateBracket u(files, b, p);  // lock the group table (if shared)
//   <look up or edit u.table(); u.ReleaseLater(f) for a dropped reference>
//   u.Publish(delta);                // account the edit's used-slot delta
//   }                                // unlock, then release what was dropped
//
// With a null block (the caller does not share PR_SFDS) u.table() is the
// caller's own p.fds and there is no lock or accounting; ReleaseLater
// still defers to the end of the scope. Only table lookups and edits may
// run inside: the path walk of an open and the creation of a pipe happen
// before the bracket (Linux's do_filp_open before fd_install), and every
// last-reference drop after it.
class FdUpdateBracket {
 public:
  FdUpdateBracket(FileTable& files, ShaddrBlock* b, Proc& p) SG_NO_THREAD_SAFETY_ANALYSIS
      : files_(files), b_(b), table_(b != nullptr ? b->group_fds_ : p.fds) {
    if (b_ != nullptr) {
      b_->LockFileUpdate();
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

  // The table the caller's descriptors live in, valid until the bracket
  // closes.
  FdTable& table() { return table_; }

  // Moves the group's open-file count and rm kFiles charge by `delta`, the
  // change in used slots of this edit (no-op without a block).
  void Publish(int delta);

  // Drops one reference once the bracket has unlocked: FileTable::Release's
  // zero crossing takes a shard mutex and Iputs the inode, and neither may
  // run under the spinlock.
  void ReleaseLater(OpenFile* f) {
    SG_CHECK(ndropped_ < dropped_.size());
    dropped_[ndropped_++] = f;
  }

 private:
  FileTable& files_;
  ShaddrBlock* const b_;
  FdTable& table_;
  // An edit drops at most two references (MakePipe's unwind).
  std::array<OpenFile*, 2> dropped_;  // [0, ndropped_) are live
  u32 ndropped_ = 0;
};

// fget/fdput: the open file behind one descriptor, held for one syscall.
// On a shared table the lookup runs inside the bracket and takes a counted
// reference, released when this goes out of scope, so a member closing
// the descriptor meanwhile drops only a count and never frees the file
// under the reader. A private table is the caller's own: no lock and no
// reference.
class FileRef {
 public:
  FileRef(FileTable& files, ShaddrBlock* b, Proc& p, int fd)
      : files_(files),
        file_(b == nullptr ? p.fds.Get(fd) : GetShared(files, *b, p, fd)),
        counted_(b != nullptr && file_.ok()) {}
  ~FileRef() {
    if (counted_) {
      files_.Release(file_.value());
    }
  }
  FileRef(const FileRef&) = delete;
  FileRef& operator=(const FileRef&) = delete;

  bool ok() const { return file_.ok(); }
  Errno error() const { return file_.error(); }
  OpenFile* value() const { return file_.value(); }

 private:
  // The slot's file, with one reference taken inside the bracket.
  static Result<OpenFile*> GetShared(FileTable& files, ShaddrBlock& b, Proc& p, int fd);

  FileTable& files_;
  const Result<OpenFile*> file_;
  const bool counted_;
};

}  // namespace sg

#endif  // SRC_CORE_SHADDR_H_
