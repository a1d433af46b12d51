// §6.3 resource synchronization: the group's one descriptor table (s_ofile)
// and the copies made when a process stops sharing it, directory/umask/
// ulimit/id propagation through the shared block, the p_flag sync bits, and
// the block's own reference counts.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "api/image.h"
#include "api/kernel.h"
#include "api/user_env.h"

namespace sg {
namespace {

// Runs `body` inside a launched process and waits for completion.
void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

// The inode behind `fd` in `env`'s view of its table, or 0 if `fd` is not
// open there.
u64 InoOf(Env& env, int fd) {
  auto st = env.kernel().Fstat(env.proc(), fd);
  return st.ok() ? st.value().ino : 0;
}

u64 InoAt(Env& env, std::string_view path) {
  return env.kernel().Stat(env.proc(), path).value().ino;
}

TEST(FdSharing, OpenInChildVisibleInParent) {
  Kernel k;
  std::atomic<int> parent_read{-1};
  RunAsProcess(k, [&](Env& env) {
    ASSERT_GE(env.Open("/data", kOpenWrite | kOpenCreat), 0);
    env.WriteStr(0, "hello");
    env.Close(0);

    std::atomic<int> child_fd{-1};
    env.Sproc(
        [&](Env& c, long) {
          // "When one of the processes in a group opens a file, the others
          // will see the file as immediately available to them."
          child_fd = c.Open("/data", kOpenRead);
        },
        PR_SFDS | PR_SADDR);
    env.WaitChild();
    ASSERT_GE(child_fd.load(), 0);

    // The parent's next kernel entry synchronizes its table; the
    // descriptor NUMBER from the child works directly (footnote 1).
    char buf[8] = {};
    i64 n = env.ReadBuf(child_fd.load(),
                        std::as_writable_bytes(std::span<char>(buf, sizeof(buf))));
    parent_read = static_cast<int>(n);
    EXPECT_EQ(std::string_view(buf, 5), "hello");
  });
  EXPECT_EQ(parent_read.load(), 5);
}

TEST(FdSharing, SharedOffsetThroughSharedDescriptor) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/f", kOpenRdwr | kOpenCreat);
    ASSERT_GE(fd, 0);
    env.WriteStr(fd, "abcdef");
    env.Lseek(fd, 0);
    std::atomic<bool> child_done{false};
    env.Sproc(
        [&, fd](Env& c, long) {
          char b[3] = {};
          c.ReadBuf(fd, std::as_writable_bytes(std::span<char>(b, 3)));
          EXPECT_EQ(std::string_view(b, 3), "abc");
          child_done = true;
        },
        PR_SFDS);
    env.WaitChild();
    ASSERT_TRUE(child_done.load());
    // The open-file entry (and its offset) is shared: we continue where
    // the child stopped.
    char b[3] = {};
    env.ReadBuf(fd, std::as_writable_bytes(std::span<char>(b, 3)));
    EXPECT_EQ(std::string_view(b, 3), "def");
  });
}

TEST(FdSharing, CloseInOneMemberPropagates) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/g", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    env.Sproc([fd](Env& c, long) { EXPECT_EQ(c.Close(fd), 0); }, PR_SFDS);
    env.WaitChild();
    // Our table resynchronizes on entry: the descriptor is gone.
    EXPECT_LT(env.WriteStr(fd, "x"), 0);
    EXPECT_EQ(env.LastError(), Errno::kEBADF);
  });
}

TEST(FdSharing, NonSharingMemberUnaffected) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<int> child_result{0};
    env.Sproc(
        [&](Env& c, long) {
          int fd = c.Open("/private-child", kOpenWrite | kOpenCreat);
          child_result = fd;
        },
        PR_SADDR /* no PR_SFDS */);
    env.WaitChild();
    ASSERT_GE(child_result.load(), 0);
    // The child's open never propagated: the same slot is free here, and
    // using it reports EBADF.
    char b[1];
    EXPECT_LT(env.ReadBuf(child_result.load(), std::as_writable_bytes(std::span<char>(b, 1))),
              0);
    EXPECT_EQ(env.LastError(), Errno::kEBADF);
  });
}

TEST(FdSharing, Dup2AndCloexecPropagate) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/d2", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    env.Sproc(
        [fd](Env& c, long) {
          EXPECT_EQ(c.Dup2(fd, 17), 17);
          EXPECT_EQ(c.SetCloexec(fd, true), 0);
        },
        PR_SFDS);
    env.WaitChild();
    // Both edits are in our table: the dup'd descriptor works here, and the
    // flag byte is set on the original only.
    EXPECT_EQ(env.WriteStr(17, "x"), 1);
    EXPECT_TRUE(env.kernel().GetCloexec(env.proc(), fd).value());
    EXPECT_FALSE(env.kernel().GetCloexec(env.proc(), 17).value());
    // Both numbers refer to the same open-file entry: the write through 17
    // moved fd's offset.
    EXPECT_EQ(env.Lseek(fd, 0, SeekWhence::kCur), 1);
    // Our own dup2 of the flagged descriptor starts with the flag clear.
    EXPECT_EQ(env.Dup2(fd, 18), 18);
    EXPECT_FALSE(env.kernel().GetCloexec(env.proc(), 18).value());
  });
}

// PR_UNSHARE(PR_SFDS) gives the caller a private copy of the group table:
// from then on neither side sees the other's opens and closes.
TEST(FdSharing, UnshareLeavesPrivateCopy) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int shared = env.Open("/shared0", kOpenRdwr | kOpenCreat);
    ASSERT_EQ(shared, 0);
    ASSERT_EQ(env.Close(env.Open("/child-only", kOpenWrite | kOpenCreat)), 0);
    std::atomic<int> stage{0};
    std::atomic<int> parent_fd{-1};
    env.Sproc(
        [&](Env& c, long) {
          const i64 mask = c.Prctl(PR_UNSHARE, PR_SFDS);
          ASSERT_GE(mask, 0);
          EXPECT_EQ(static_cast<u32>(mask) & PR_SFDS, 0u);
          // The copy holds the group's descriptors...
          EXPECT_EQ(InoOf(c, shared), InoAt(c, "/shared0"));
          // ...and our edits stay in it.
          EXPECT_EQ(c.Close(shared), 0);
          EXPECT_EQ(c.Open("/child-only", kOpenRead), shared);
          stage = 1;
          while (parent_fd.load() < 0) {
          }
          EXPECT_EQ(InoOf(c, parent_fd.load()), 0u);  // the group's later open
        },
        PR_SFDS);
    while (stage.load() != 1) {
    }
    // The child's close and open never reached the group table.
    EXPECT_EQ(InoOf(env, shared), InoAt(env, "/shared0"));
    parent_fd = env.Open("/parent-only", kOpenWrite | kOpenCreat);
    EXPECT_EQ(parent_fd.load(), 1);
    env.WaitChild();
    EXPECT_EQ(env.kernel().BlockOf(env.proc())->OfileCount(), 2);
  });
  EXPECT_EQ(k.vfs().files().Count(), 0u);
}

// exec(2) from a PR_SFDS member leaves the group with a copy of the table
// and closes the close-on-exec descriptors in that copy only.
TEST(FdSharing, ExecClosesCloexecInItsOwnCopyOnly) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int coe = env.Open("/coe", kOpenRdwr | kOpenCreat);
    const int plain = env.Open("/plain", kOpenRdwr | kOpenCreat);
    ASSERT_GE(coe, 0);
    ASSERT_GE(plain, 0);
    ASSERT_EQ(env.WriteStr(coe, "still"), 5);
    ASSERT_EQ(env.SetCloexec(coe, true), 0);
    std::atomic<bool> ran{false};
    env.Sproc(
        [&](Env& c, long) {
          Image img;
          img.main = [&](Env& e2, long) {
            EXPECT_EQ(e2.proc().shaddr, nullptr);
            EXPECT_LT(e2.WriteStr(coe, "x"), 0);  // closed by exec
            EXPECT_EQ(e2.LastError(), Errno::kEBADF);
            EXPECT_EQ(e2.WriteStr(plain, "y"), 1);  // survived, in the copy
            EXPECT_EQ(e2.Close(plain), 0);          // a private close
            ran = true;
          };
          c.Exec(img);
        },
        PR_SFDS | PR_SADDR);
    env.WaitChild();
    ASSERT_TRUE(ran.load());
    // The group still has both descriptors, flag included.
    EXPECT_TRUE(env.kernel().GetCloexec(env.proc(), coe).value());
    ASSERT_EQ(env.Lseek(coe, 0), 0);
    char buf[5] = {};
    EXPECT_EQ(env.ReadBuf(coe, std::as_writable_bytes(std::span<char>(buf, 5))), 5);
    EXPECT_EQ(std::string_view(buf, 5), "still");
    EXPECT_EQ(env.WriteStr(plain, "z"), 1);
  });
  EXPECT_EQ(k.vfs().files().Count(), 0u);
}

// fork(2), and sproc without PR_SFDS, from a sharing member copy the group
// table as it is at that moment; later edits on either side stay apart.
TEST(FdSharing, ForkAndNonSharingSprocSnapshotGroupTable) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int a = env.Open("/snap-a", kOpenRdwr | kOpenCreat);
    ASSERT_EQ(a, 0);
    env.Sproc([](Env&, long) {}, PR_SFDS);  // forms the group
    env.WaitChild();
    for (int round = 0; round < 2; ++round) {
      std::atomic<int> late{-1};
      std::atomic<bool> child_done{false};
      auto child = [&](Env& c, long) {
        EXPECT_EQ(InoOf(c, a), InoAt(c, "/snap-a"));
        while (late.load() < 0) {
        }
        EXPECT_EQ(InoOf(c, late.load()), 0u);  // opened after the copy
        EXPECT_EQ(c.Close(a), 0);
        EXPECT_EQ(c.Open("/snap-private", kOpenWrite | kOpenCreat), a);
        child_done = true;
      };
      if (round == 0) {
        ASSERT_GT(env.Fork(child), 0);
      } else {
        ASSERT_GT(env.Sproc(child, PR_SADDR), 0);
      }
      late = env.Open("/snap-late", kOpenWrite | kOpenCreat);
      ASSERT_EQ(late.load(), 1);
      env.WaitChild();
      ASSERT_TRUE(child_done.load());
      EXPECT_EQ(InoOf(env, a), InoAt(env, "/snap-a"));  // the child's close stayed its own
      EXPECT_EQ(env.Close(late.load()), 0);
    }
  });
  EXPECT_EQ(k.vfs().files().Count(), 0u);
}

// PR_JOINGROUP replaces the joiner's private table with the group's; the
// joiner's own files are released.
TEST(FdSharing, JoinGroupAdoptsGroupTable) {
  Kernel k;
  FileTable& files = k.vfs().files();
  std::atomic<pid_t> founder_pid{0};
  std::atomic<bool> joined{false};
  std::atomic<bool> checked{false};
  auto founder = k.Launch([&](Env& env, long) {
    ASSERT_EQ(env.Open("/group-file", kOpenRdwr | kOpenCreat), 0);
    env.Sproc([](Env&, long) {}, PR_SALL);  // create the group
    env.WaitChild();
    founder_pid = env.Pid();
    while (!checked.load()) {
      env.Yield();
    }
  });
  auto joiner = k.Launch([&](Env& env, long) {
    ASSERT_EQ(env.Open("/joiner-own", kOpenWrite | kOpenCreat), 0);
    ASSERT_EQ(env.Dup(0), 1);
    while (founder_pid.load() == 0) {
      env.Yield();
    }
    const u64 with_own = files.Count();
    ASSERT_GT(env.Prctl(PR_JOINGROUP, founder_pid.load()), 0);
    joined = true;
    // Our one open file (two descriptors) is gone; fd 0 is the group's.
    EXPECT_EQ(files.Count(), with_own - 1);
    EXPECT_EQ(InoOf(env, 0), InoAt(env, "/group-file"));
    EXPECT_EQ(InoOf(env, 1), 0u);
    checked = true;
  });
  ASSERT_TRUE(founder.ok() && joiner.ok());
  k.WaitAll();
  EXPECT_TRUE(joined.load());
  EXPECT_EQ(files.Count(), 0u);
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

TEST(DirSharing, ChdirPropagatesToGroup) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    ASSERT_EQ(env.Mkdir("/sub"), 0);
    ASSERT_GE(env.Open("/sub/marker", kOpenWrite | kOpenCreat), 0);
    env.Sproc([](Env& c, long) { EXPECT_EQ(c.Chdir("/sub"), 0); }, PR_SDIR | PR_SADDR);
    env.WaitChild();
    // "the ability to change the working directory ... of an entire set of
    // processes at once": a relative open now resolves inside /sub.
    EXPECT_GE(env.Open("marker", kOpenRead), 0);
  });
}

TEST(DirSharing, NonSharingChdirStaysLocal) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    ASSERT_EQ(env.Mkdir("/sub2"), 0);
    env.Sproc([](Env& c, long) { EXPECT_EQ(c.Chdir("/sub2"), 0); }, PR_SADDR);
    env.WaitChild();
    ASSERT_GE(env.Open("still-at-root", kOpenWrite | kOpenCreat), 0);
    EXPECT_GE(env.Open("/still-at-root", kOpenRead), 0);
  });
}

TEST(UmaskSharing, UmaskPropagates) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Umask(0);
    env.Sproc([](Env& c, long) { c.Umask(077); }, PR_SUMASK);
    env.WaitChild();
    int fd = env.Open("/masked", kOpenWrite | kOpenCreat, 0666);
    ASSERT_GE(fd, 0);
    auto st = env.kernel().Stat(env.proc(), "/masked");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().mode, 0600);  // 0666 & ~077
  });
}

TEST(UlimitSharing, UlimitPropagatesAndIsEnforced) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Sproc([](Env& c, long) { EXPECT_EQ(c.UlimitSet(kPageSize), 0); }, PR_SULIMIT);
    env.WaitChild();
    EXPECT_EQ(static_cast<u64>(env.UlimitGet()), kPageSize);
    int fd = env.Open("/limited", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    std::vector<std::byte> big(2 * kPageSize, std::byte{7});
    const i64 n = env.WriteBuf(fd, big);
    EXPECT_EQ(n, static_cast<i64>(kPageSize));  // truncated at the limit
    EXPECT_LT(env.WriteBuf(fd, big), 0);        // nothing more fits
    EXPECT_EQ(env.LastError(), Errno::kEFBIG);
  });
}

TEST(IdSharing, SetuidPropagatesAndChangesAccess) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    // Root creates a file only uid 42 can read, then drops privileges in a
    // CHILD; PR_SID propagates the uid to the parent.
    int fd = env.Open("/secret", kOpenWrite | kOpenCreat, 0400);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(env.kernel().Chmod(env.proc(), "/secret", 0400).ok(), true);
    env.Sproc([](Env& c, long) { EXPECT_EQ(c.Setuid(42), 0); }, PR_SID);
    env.WaitChild();
    EXPECT_EQ(env.Getuid(), 42);
    // uid 42 is not the owner (root is): read must now fail.
    EXPECT_LT(env.Open("/secret", kOpenRead), 0);
    EXPECT_EQ(env.LastError(), Errno::kEACCES);
  });
}

TEST(SyncBits, GenerationLagsOnOthersAndCatchesUpOnEntry) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> gate{false};
    env.Sproc(
        [&](Env& c, long) {
          c.Umask(011);
          gate = true;
        },
        PR_SUMASK);
    // Wait in USER mode (no syscalls) so our stale window stays observable.
    while (!gate.load()) {
    }
    // The child's update was O(1): it bumped the umask generation lane
    // instead of walking the chain to set our p_flag bit...
    EXPECT_EQ(env.proc().p_flag.load() & kPfSyncUmask, 0u);
    // ...so our cached word now lags the block's.
    EXPECT_NE(env.proc().p_resgen, env.proc().shaddr->resgen());
    // Any syscall is a kernel entry; the single packed-word compare catches
    // the lag, pulls the umask lane, and the cache catches up.
    (void)env.UlimitGet();
    EXPECT_EQ(env.proc().p_resgen, env.proc().shaddr->resgen());
    EXPECT_EQ(env.Umask(011), 011);  // previous mask = the child's value
    env.WaitChild();
  });
}

TEST(SyncBits, BlockHoldsItsOwnReferences) {
  Kernel k;
  FileTable& files = k.vfs().files();
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/held", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    OpenFile* f = nullptr;
    {
      FileRef ref(files, nullptr, env.proc(), fd);
      f = ref.value();
    }
    EXPECT_EQ(files.RefCount(f), 1u);
    // Create the group: our table moves into the block, references and all.
    std::atomic<bool> gate{false};
    env.Sproc(
        [&](Env& c, long) {
          while (!gate.load()) {
            c.Yield();
          }
        },
        PR_SFDS);
    // One table, one reference: the live child has no copy of its own.
    EXPECT_EQ(files.RefCount(f), 1u);
    gate = true;
    env.WaitChild();
    // The block's reference survives any member's exit (§6.3 race
    // avoidance).
    EXPECT_EQ(files.RefCount(f), 1u);
    EXPECT_EQ(env.WriteStr(fd, "x"), 1);
  });
}

TEST(Teardown, LastExitReleasesBlockResources) {
  Kernel k;
  std::atomic<u64> files_live{99};
  RunAsProcess(k, [&](Env& env) {
    ASSERT_GE(env.Open("/t", kOpenWrite | kOpenCreat), 0);
    env.Sproc([](Env&, long) {}, PR_SALL);
    env.WaitChild();
  });
  // Everything exited: block destroyed, its file refs released. Only no
  // files should remain open system-wide.
  files_live = k.vfs().files().Count();
  EXPECT_EQ(files_live.load(), 0u);
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

}  // namespace
}  // namespace sg
