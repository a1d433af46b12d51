// Direct ShaddrBlock unit tests (no kernel): the member chain at the
// structure level, master-copy seeding, the group descriptor table, and the
// TryAddMember drain guard that PR_JOINGROUP relies on.
#include <gtest/gtest.h>

#include <thread>

#include "core/shaddr.h"
#include "core/share_mask.h"
#include "fs/vfs.h"
#include "hw/cpu_set.h"
#include "proc/proc.h"
#include "proc/scheduler.h"
#include "rm/rm.h"

namespace sg {
namespace {

struct Rig {
  PhysMem mem{64 * kPageSize};
  CpuSet cpus{2};
  Scheduler sched{2};
  Vfs vfs{64, 64};
  rm::ResourceManager rm;

  std::unique_ptr<Proc> MakeProc(pid_t pid) {
    auto p = std::make_unique<Proc>(pid, mem, sched, 64);
    p->cwd = vfs.inodes().Iget(vfs.root());
    p->rootdir = vfs.inodes().Iget(vfs.root());
    return p;
  }
  void DestroyProc(Proc& p) {
    vfs.inodes().Iput(p.cwd);
    vfs.inodes().Iput(p.rootdir);
    p.as.DetachAllPrivate();
  }
  // Raw attach mirroring the kernel's admission contract: the caller charges
  // the member cap before AddMember (RemoveMember owns the uncharge).
  void Attach(ShaddrBlock& blk, Proc& p, u32 mask) {
    blk.rm_node()->ChargeForced(rm::Resource::kMembers, 1);
    blk.AddMember(p, mask);
  }
};

TEST(ShaddrUnit, CreatorSeedsMasterCopies) {
  Rig rig;
  auto a = rig.MakeProc(1);
  a->umask = 031;
  a->ulimit = 4242;
  a->uid = 7;
  a->gid = 8;
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  EXPECT_EQ(block.refcnt(), 1u);
  EXPECT_EQ(a->p_shmask, PR_SALL);  // "a mask indicating that all resources are shared"
  EXPECT_EQ(block.cmask(), 031);
  EXPECT_EQ(block.limit(), 4242u);
  EXPECT_EQ(block.uid(), 7);
  EXPECT_EQ(block.gid(), 8);
  EXPECT_EQ(block.cdir(), a->cwd);
  // The block holds its own inode references (+2 on the root: cdir+rdir).
  EXPECT_GE(rig.vfs.inodes().RefCount(rig.vfs.root()), 4u);
  EXPECT_TRUE(block.RemoveMember(*a));
  rig.DestroyProc(*a);
}

TEST(ShaddrUnit, MemberChainLinksAndUnlinksInAnyOrder) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  auto c = rig.MakeProc(3);
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  rig.Attach(block, *b, PR_SFDS);
  rig.Attach(block, *c, PR_SUMASK);
  EXPECT_EQ(block.refcnt(), 3u);
  int seen = 0;
  block.ForEachMember([&](Proc&) { ++seen; });
  EXPECT_EQ(seen, 3);
  // Remove the MIDDLE of the chain first, then the rest.
  EXPECT_FALSE(block.RemoveMember(*b));
  EXPECT_EQ(block.refcnt(), 2u);
  EXPECT_FALSE(block.RemoveMember(*a));
  EXPECT_TRUE(block.RemoveMember(*c));
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
  rig.DestroyProc(*c);
}

TEST(ShaddrUnit, TryAddMemberRefusesDrainedBlock) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  EXPECT_TRUE(block.RemoveMember(*a));  // refcnt 0: the block is draining
  // A dynamic joiner racing the last exit must be turned away.
  EXPECT_FALSE(block.TryAddMember(*b, PR_SALL & ~PR_SADDR));
  EXPECT_EQ(b->shaddr, nullptr);
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
}

TEST(ShaddrUnit, EntrySyncRespectsPerResourceMasks) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);  // shares umask only
  auto c = rig.MakeProc(3);  // shares ulimit only
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  rig.Attach(block, *b, PR_SUMASK);
  rig.Attach(block, *c, PR_SULIMIT);
  a->umask = 011;
  block.UpdateUmask(*a, 011);
  // O(1) updates: nobody's p_flag is touched; staleness is carried by the
  // generation lanes alone.
  EXPECT_EQ(b->p_flag.load() & kPfSyncAny, 0u);
  EXPECT_EQ(c->p_flag.load() & kPfSyncAny, 0u);
  block.UpdateUlimit(*a, 999);
  // Each member's entry-sync pulls only the resources it shares; the other
  // lanes are adopted without touching the member's private copies.
  block.SyncOnKernelEntry(*b);
  EXPECT_EQ(b->umask, 011);
  EXPECT_NE(b->ulimit, 999u);
  EXPECT_EQ(b->p_resgen, block.resgen());  // fully caught up either way
  block.SyncOnKernelEntry(*c);
  EXPECT_EQ(c->ulimit, 999u);
  EXPECT_NE(c->umask, 011);
  EXPECT_EQ(c->p_resgen, block.resgen());
  EXPECT_FALSE(block.RemoveMember(*b));
  EXPECT_FALSE(block.RemoveMember(*c));
  EXPECT_TRUE(block.RemoveMember(*a));
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
  rig.DestroyProc(*c);
}

TEST(ShaddrUnit, ScalarLaneWrapFallsBackToFlagging) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  rig.Attach(block, *b, PR_SUMASK);
  block.SyncOnKernelEntry(*b);  // start b fully caught up
  // Drive the 12-bit umask lane all the way around. A member whose cached
  // lane would alias (exactly 2^bits updates behind) must still be caught:
  // the wrap falls back to the paper's p_flag walk, which forces the pull
  // independently of the word compare.
  bool flagged_at_wrap = false;
  for (u64 i = 0; i < LaneLimit(kLaneUmask); ++i) {
    block.UpdateUmask(*a, static_cast<mode_t>(i & 0777));
    if ((b->p_flag.load() & kPfSyncUmask) != 0) {
      flagged_at_wrap = true;
    }
  }
  EXPECT_TRUE(flagged_at_wrap);
  // After the full cycle b's cached lane EQUALS the block's lane again —
  // only the forced bit makes the entry-sync pull the fresh value.
  EXPECT_EQ(LaneGet(b->p_resgen, kLaneUmask), LaneGet(block.resgen(), kLaneUmask));
  block.SyncOnKernelEntry(*b);
  EXPECT_EQ(b->umask, a->umask);
  EXPECT_EQ(b->p_flag.load() & kPfSyncUmask, 0u);
  EXPECT_FALSE(block.RemoveMember(*b));
  EXPECT_TRUE(block.RemoveMember(*a));
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
}

// The founder's descriptor table moves into the block (no Dup), every
// member's bracket opens the same table, and a FileRef holds its file
// across another member's close.
TEST(ShaddrUnit, FounderTableMovesIntoBlock) {
  Rig rig;
  FileTable& files = rig.vfs.files();
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  OpenFile* f = files.Alloc(rig.vfs.inodes().Iget(rig.vfs.root()), kOpenRead).value();
  ASSERT_TRUE(a->fds.SetSlot(0, f, false).ok());
  {
    ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
    rig.Attach(block, *b, PR_SFDS);
    EXPECT_EQ(files.RefCount(f), 1u);
    EXPECT_FALSE(a->fds.Get(0).ok());  // no private copy left behind
    EXPECT_EQ(block.OfileCount(), 1);
    EXPECT_EQ(block.rm_node()->used(rm::Resource::kFiles), 1u);

    // b's edit is a's view at once: there is nothing to pull.
    {
      FdUpdateBracket u(files, &block, *b);
      u.table().Slot(0).close_on_exec = true;
    }
    {
      FdUpdateBracket u(files, &block, *a);
      EXPECT_TRUE(u.table().Slot(0).close_on_exec);
    }

    {
      FileRef ref(files, &block, *b, 0);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(files.RefCount(f), 2u);
      {
        FdUpdateBracket u(files, &block, *a);
        u.ReleaseLater(u.table().ClearSlot(0).value());
        u.Publish(-1);
      }
      EXPECT_EQ(files.RefCount(f), 1u);  // only the reader's is left
      EXPECT_EQ(files.Count(), 1u);
    }
    EXPECT_EQ(files.Count(), 0u);
    EXPECT_EQ(block.OfileCount(), 0);
    EXPECT_EQ(block.rm_node()->used(rm::Resource::kFiles), 0u);
    EXPECT_FALSE(FileRef(files, &block, *b, 0).ok());

    EXPECT_FALSE(block.RemoveMember(*b));
    EXPECT_TRUE(block.RemoveMember(*a));
  }
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
}

// Regression (the sgcheck find): UpdateDir/PullDir used to call Iput —
// whose last reference takes the inode-table mutex and may block — while
// holding rupdlock_, a spinlock. Iget is one fetch_add and runs under the
// spinlock; the references the update drops are Iput after the unlock
// (Iput reports itself to lockdep as a sleep site). Dropping one under the
// spinlock fails three ways: sgcheck sleep-in-atomic statically, lockdep's
// sleep-under-spin check dynamically in this very test, and tsan on the
// concurrent section below.
TEST(ShaddrUnit, DirUpdateDropsInodeRefsAfterRupdlock) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);

  const Cred cred;
  ASSERT_TRUE(rig.vfs.Mkdir(a->cwd, a->rootdir, cred, "/sub", 0755, 0).ok());
  Inode* sub = rig.vfs.Namei(a->cwd, a->rootdir, cred, "/sub").value();  // counted

  {
    ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
    rig.Attach(block, *b, PR_SDIR);

    // a chdirs: the counted /sub ref transfers to UpdateDir, which installs
    // it as a's cwd and reseats the block's master copy (its own ref).
    block.UpdateDir(*a, sub, nullptr);
    EXPECT_EQ(a->cwd, sub);
    EXPECT_EQ(block.cdir(), sub);
    EXPECT_EQ(rig.vfs.inodes().RefCount(sub), 2u);  // a->cwd + master copy

    // b syncs on its next kernel entry: same directory, its own counted
    // ref; the root stays its root.
    block.SyncOnKernelEntry(*b);
    EXPECT_EQ(b->cwd, sub);
    EXPECT_EQ(b->rootdir, rig.vfs.root());
    EXPECT_EQ(rig.vfs.inodes().RefCount(sub), 3u);

    // Concurrent updater/puller: every iteration moves references under
    // rupdlock_ and drops the old ones after it, so an Iput moved back
    // inside trips lockdep (and tsan sees any unsynchronized traffic).
    std::thread updater([&] {
      for (int i = 0; i < 100; ++i) {
        Inode* next = rig.vfs.inodes().Iget(i % 2 == 0 ? rig.vfs.root() : sub);
        block.UpdateDir(*a, next, nullptr);
      }
    });
    std::thread puller([&] {
      for (int i = 0; i < 100; ++i) {
        block.SyncOnKernelEntry(*b);
      }
    });
    updater.join();
    puller.join();
    block.SyncOnKernelEntry(*b);
    EXPECT_EQ(b->cwd, a->cwd);
    EXPECT_EQ(b->rootdir, a->rootdir);

    EXPECT_FALSE(block.RemoveMember(*b));
    EXPECT_TRUE(block.RemoveMember(*a));
  }
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
  // Everything released: only the namespace (nlink) keeps /sub alive.
  EXPECT_EQ(rig.vfs.inodes().RefCount(sub), 0u);
}

}  // namespace
}  // namespace sg
