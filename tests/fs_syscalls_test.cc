// Kernel-level filesystem syscalls beyond the basics: dup2, close-on-exec
// via fcntl-style flags (with share-group propagation through s_pofile),
// getcwd (plain, group-shared cwd, and inside a chroot jail), stat/chmod
// and hard links through the syscall surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "api/kernel.h"
#include "api/user_env.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "sync/lockdep.h"

namespace sg {
namespace {

void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

TEST(FsCalls, Dup2ReplacesAndSharesEntry) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int a = env.Open("/a", kOpenRdwr | kOpenCreat);
    int b = env.Open("/b", kOpenRdwr | kOpenCreat);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    // b's slot now aliases a's open-file entry (shared offset).
    EXPECT_EQ(env.Dup2(a, b), b);
    env.WriteStr(a, "xy");
    EXPECT_EQ(env.WriteStr(b, "z"), 1);  // continues at offset 2
    auto st = env.kernel().Stat(env.proc(), "/a");
    EXPECT_EQ(st.value().size, 3u);
    EXPECT_EQ(env.kernel().Stat(env.proc(), "/b").value().size, 0u);
    // dup2 onto itself is a no-op.
    EXPECT_EQ(env.Dup2(a, a), a);
    // Bad targets rejected.
    EXPECT_LT(env.Dup2(a, FdTable::kMaxFds + 5), 0);
    EXPECT_LT(env.Dup2(99, 5), 0);
  });
}

TEST(FsCalls, Dup2PropagatesAcrossGroup) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int a = env.Open("/src", kOpenRdwr | kOpenCreat);
    env.WriteStr(a, "payload");
    std::atomic<int> alias{-1};
    env.Sproc(
        [&, a](Env& c, long) {
          int spare = c.Open("/spare", kOpenRead | kOpenCreat);
          ASSERT_GE(spare, 0);
          ASSERT_EQ(c.Dup2(a, spare), spare);  // publishes the new table
          alias = spare;
        },
        PR_SFDS);
    env.WaitChild();
    ASSERT_GE(alias.load(), 0);
    // Our table resynced: the alias works here and shares the offset.
    EXPECT_EQ(env.Lseek(alias.load(), 0), 0);
    char buf[8] = {};
    EXPECT_EQ(env.ReadBuf(alias.load(), std::as_writable_bytes(std::span<char>(buf, 7))), 7);
    EXPECT_EQ(std::string_view(buf, 7), "payload");
  });
}

TEST(FsCalls, CloexecFlagSurvivesGroupSyncAndExec) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int keep = env.Open("/keep", kOpenWrite | kOpenCreat);
    int drop = env.Open("/drop", kOpenWrite | kOpenCreat);
    // A member sets the flag; it propagates through s_pofile.
    env.Sproc([drop](Env& c, long) { ASSERT_EQ(c.SetCloexec(drop, true), 0); }, PR_SFDS);
    env.WaitChild();
    env.Yield();  // resync
    EXPECT_TRUE(env.kernel().GetCloexec(env.proc(), drop).value());
    EXPECT_FALSE(env.kernel().GetCloexec(env.proc(), keep).value());
    // Exec in a fork child honors the propagated flag.
    env.Fork([keep, drop](Env& c, long) {
      Image img;
      img.main = [keep, drop](Env& e2, long) {
        EXPECT_EQ(e2.WriteStr(keep, "k"), 1);
        EXPECT_LT(e2.WriteStr(drop, "d"), 0);
        EXPECT_EQ(e2.LastError(), Errno::kEBADF);
      };
      c.Exec(img);
    });
    env.WaitChild();
    EXPECT_LT(env.SetCloexec(42, true), 0);
    EXPECT_EQ(env.LastError(), Errno::kEBADF);
  });
}

TEST(FsCalls, GetcwdWalksToRoot) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    EXPECT_EQ(env.Getcwd(), "/");
    env.Mkdir("/x");
    env.Mkdir("/x/y");
    env.Mkdir("/x/y/z");
    ASSERT_EQ(env.Chdir("/x/y/z"), 0);
    EXPECT_EQ(env.Getcwd(), "/x/y/z");
    ASSERT_EQ(env.Chdir(".."), 0);
    EXPECT_EQ(env.Getcwd(), "/x/y");
  });
}

TEST(FsCalls, GetcwdInsideChrootJail) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Mkdir("/jail");
    env.Mkdir("/jail/home");
    ASSERT_EQ(env.Chroot("/jail"), 0);
    ASSERT_EQ(env.Chdir("/"), 0);
    EXPECT_EQ(env.Getcwd(), "/");  // the jail's root, not the real one
    ASSERT_EQ(env.Chdir("/home"), 0);
    EXPECT_EQ(env.Getcwd(), "/home");
  });
}

TEST(FsCalls, GetcwdReflectsGroupChdir) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Mkdir("/team");
    env.Sproc([](Env& c, long) { ASSERT_EQ(c.Chdir("/team"), 0); }, PR_SDIR);
    env.WaitChild();
    EXPECT_EQ(env.Getcwd(), "/team");  // the member moved all of us
  });
}

TEST(FsCalls, StatChmodLinkRoundTrip) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/f", kOpenWrite | kOpenCreat, 0644);
    env.WriteStr(fd, "12345");
    auto st = env.kernel().Stat(env.proc(), "/f");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().size, 5u);
    EXPECT_EQ(st.value().mode, 0644);
    EXPECT_EQ(st.value().nlink, 1u);
    EXPECT_EQ(st.value().type, InodeType::kRegular);

    ASSERT_TRUE(env.kernel().Chmod(env.proc(), "/f", 0600).ok());
    EXPECT_EQ(env.kernel().Stat(env.proc(), "/f").value().mode, 0600);

    ASSERT_TRUE(env.kernel().Link(env.proc(), "/f", "/f2").ok());
    auto st2 = env.kernel().Stat(env.proc(), "/f2");
    EXPECT_EQ(st2.value().ino, st.value().ino);  // same inode
    EXPECT_EQ(st2.value().nlink, 2u);

    auto fst = env.kernel().Fstat(env.proc(), fd);
    EXPECT_EQ(fst.value().ino, st.value().ino);

    // Only the owner (or root) may chmod: drop privileges and retry.
    ASSERT_EQ(env.Setuid(9), 0);
    EXPECT_EQ(env.kernel().Chmod(env.proc(), "/f", 0777).error(), Errno::kEPERM);
  });
}

TEST(FsCalls, ListDirEnumeratesSorted) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Mkdir("/d");
    env.Open("/d/charlie", kOpenWrite | kOpenCreat);
    env.Open("/d/alpha", kOpenWrite | kOpenCreat);
    env.Mkdir("/d/bravo");
    auto names = env.ListDir("/d");
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "bravo");
    EXPECT_EQ(names[2], "charlie");
    EXPECT_TRUE(env.ListDir("/d/alpha").empty());
    EXPECT_EQ(env.LastError(), Errno::kENOTDIR);
    // Read permission enforced.
    ASSERT_TRUE(env.kernel().Chmod(env.proc(), "/d", 0111).ok());
    ASSERT_EQ(env.Setuid(5), 0);
    EXPECT_TRUE(env.ListDir("/d").empty());
    EXPECT_EQ(env.LastError(), Errno::kEACCES);
  });
}

TEST(FsCalls, UnlinkedCwdReportsDisconnected) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Mkdir("/tmpdir");
    ASSERT_EQ(env.Chdir("/tmpdir"), 0);
    // Remove the directory out from under ourselves (allowed: the cwd ref
    // keeps the inode alive, the name is gone).
    ASSERT_EQ(env.kernel().Rmdir(env.proc(), "/tmpdir").ok(), true);
    EXPECT_EQ(env.Getcwd(), "");
    EXPECT_EQ(env.LastError(), Errno::kENOENT);
    // We can still escape upward.
    ASSERT_EQ(env.Chdir("/"), 0);
    EXPECT_EQ(env.Getcwd(), "/");
  });
}

// Regression: a sibling snapshotting the group's descriptor table (the
// /proc/share/<gid> path goes through ShaddrBlock::OfileCount) while a
// PR_SFDS member grows it under s_fupdsema. The publish step once rebuilt
// the master vector in place — a concurrent reader could observe the
// vector mid-realloc (use-after-free of the old backing store). Today the
// snapshot reads the incrementally maintained atomic count and never walks
// the table at all; the race this pins down is the counter staying
// coherent (and the process not crashing) under concurrent edits.
TEST(FsCalls, OfileSnapshotRacesGrowingMasterTable) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> done{false};
    env.Sproc(
        [&](Env& c, long) {
          // Grow and shrink the master table hard enough to force the
          // backing vector through several reallocations.
          for (int round = 0; round < 40; ++round) {
            int fds[8];
            for (int i = 0; i < 8; ++i) {
              fds[i] = c.Open("/grow" + std::to_string(i), kOpenRdwr | kOpenCreat);
            }
            for (int i = 0; i < 8; ++i) {
              if (fds[i] >= 0) {
                c.Close(fds[i]);
              }
            }
          }
          done = true;
        },
        PR_SFDS);
    ShaddrBlock* b = env.kernel().BlockOf(env.proc());
    ASSERT_NE(b, nullptr);
    while (!done.load()) {
      // The old code read the master vector unsynchronized here.
      (void)b->OfileCount();
      env.Yield();
    }
    env.WaitChild();
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
  EXPECT_EQ(k.vfs().files().Count(), 0u);
}

#if defined(SG_INJECT_ENABLED)

// A member closes a descriptor while another member is blocked reading it:
// the close drops only the table's reference, and the file's last reference
// drops when the reader's syscall ends — on the reader's thread, with no
// lock held (the zero crossing takes a FileTable shard mutex and Iputs the
// inode).
TEST(FsCalls, LastReferenceDropsInMembersDeferredRelease) {
  Kernel k;
  FileTable& files = k.vfs().files();
  std::atomic<std::thread::id> b_thread{};
  std::atomic<bool> b_holds{false};
  std::atomic<int> last_drops_on_b{0};
  std::atomic<int> last_drops_with_lock_held{0};
  inject::PlanConfig cfg;
  cfg.on_point = [&](const char* point) {
    if (std::this_thread::get_id() != b_thread.load()) {
      return;
    }
    if (std::strcmp(point, "file.dup") == 0) {
      b_holds = true;  // the reader's fget took its reference
    } else if (std::strcmp(point, "file.release.last") == 0) {
      last_drops_on_b.fetch_add(1);
      if (lockdep::HeldCount() != 0) {
        last_drops_with_lock_held.fetch_add(1);
      }
    }
  };
  inject::InjectionPlan plan(0x1A57u, cfg);
  inject::ScopedInjection active(plan);
  RunAsProcess(k, [&](Env& env) {
    int rd = -1;
    int wr = -1;
    ASSERT_EQ(env.Pipe(&rd, &wr), 0);
    env.Sproc(
        [&](Env& c, long) {
          b_thread = std::this_thread::get_id();
          char buf[4] = {};
          // Blocks on the empty pipe, holding the read end.
          EXPECT_EQ(c.ReadBuf(rd, std::as_writable_bytes(std::span<char>(buf, 4))), 4);
          EXPECT_EQ(std::string_view(buf, 4), "ping");
          EXPECT_LT(c.ReadBuf(rd, std::as_writable_bytes(std::span<char>(buf, 4))), 0);
          EXPECT_EQ(c.LastError(), Errno::kEBADF);
        },
        PR_SFDS);
    while (!b_holds.load()) {
      std::this_thread::yield();
    }
    ASSERT_EQ(env.Close(rd), 0);  // the reader's reference keeps the pipe open
    EXPECT_EQ(env.WriteStr(wr, "ping"), 4);
    env.WaitChild();
    EXPECT_EQ(env.Close(wr), 0);
  });
  EXPECT_EQ(last_drops_on_b.load(), 1);
  EXPECT_EQ(last_drops_with_lock_held.load(), 0);
  EXPECT_EQ(files.Count(), 0u);
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

#endif  // SG_INJECT_ENABLED

// Close-vs-read storm: one member reads a descriptor in a loop while
// another closes it and reopens a different file on the same number. Every
// read sees one whole file — all of its bytes come from one open-file entry
// — or EBADF, and nothing leaks.
TEST(FsCalls, CloseVsReadStorm) {
  Kernel k;
  FileTable& files = k.vfs().files();
  InodeTable& inodes = k.vfs().inodes();
  constexpr int kSwaps = 400;
  std::atomic<int> bad_reads{0};
  std::atomic<int> good_reads{0};
  u64 inodes_base = 0;
  RunAsProcess(k, [&](Env& env) {
    const std::string fill_a(32, 'A');
    const std::string fill_b(32, 'B');
    for (const char* path : {"/storm-a", "/storm-b"}) {
      const int fd = env.Open(path, kOpenWrite | kOpenCreat);
      ASSERT_EQ(fd, 0);
      ASSERT_EQ(env.WriteStr(fd, path[7] == 'a' ? fill_a : fill_b), 32);
      ASSERT_EQ(env.Close(fd), 0);
    }
    inodes_base = inodes.Count();
    const int fd = env.Open("/storm-a", kOpenRead);
    ASSERT_EQ(fd, 0);
    std::atomic<bool> done{false};
    env.Sproc(
        [&](Env& c, long) {
          char buf[8];
          while (!done.load()) {
            (void)c.Lseek(fd, 0);
            const i64 n = c.ReadBuf(fd, std::as_writable_bytes(std::span<char>(buf, 8)));
            if (n < 0) {
              if (c.LastError() != Errno::kEBADF) {
                bad_reads.fetch_add(1);
              }
              continue;
            }
            for (i64 i = 1; i < n; ++i) {
              if (buf[i] != buf[0]) {
                bad_reads.fetch_add(1);
              }
            }
            if (n > 0 && buf[0] != 'A' && buf[0] != 'B') {
              bad_reads.fetch_add(1);
            }
            good_reads.fetch_add(1);
          }
        },
        PR_SFDS);
    for (int i = 0; i < kSwaps; ++i) {
      ASSERT_EQ(env.Close(fd), 0);
      ASSERT_EQ(env.Open(i % 2 == 0 ? "/storm-b" : "/storm-a", kOpenRead), fd);
      if (i % 16 == 0) {
        env.Yield();
      }
    }
    done = true;
    env.WaitChild();
  });
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GT(good_reads.load(), 0);
  EXPECT_EQ(files.Count(), 0u);
  EXPECT_EQ(inodes.Count(), inodes_base);
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

#if defined(SG_INJECT_ENABLED)

// open(2) walks the path before it takes the descriptor bracket: while one
// member is parked between its walk and the install (the
// fs.open.pre_install seam), another member's whole open completes. The
// parked open then installs into the next free slot of the same table.
TEST(FsCalls, OpenWalkRunsOutsideDescriptorBracket) {
  Kernel k;
  std::atomic<std::thread::id> a_thread{};
  std::atomic<bool> a_parked{false};
  std::atomic<bool> b_opened{false};
  std::atomic<bool> b_opened_while_parked{false};
  inject::PlanConfig cfg;
  cfg.on_point = [&](const char* point) {
    if (std::strcmp(point, "fs.open.pre_install") != 0 ||
        std::this_thread::get_id() != a_thread.load() || a_parked.exchange(true)) {
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!b_opened.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    b_opened_while_parked = b_opened.load();
  };
  inject::InjectionPlan plan(0x0BE2u, cfg);
  inject::ScopedInjection active(plan);
  RunAsProcess(k, [&](Env& env) {
    std::atomic<int> fd_b{-1};
    env.Sproc(
        [&](Env& c, long) {
          while (!a_parked.load()) {
            std::this_thread::yield();
          }
          fd_b = c.Open("/b-file", kOpenRdwr | kOpenCreat);
          b_opened = true;
        },
        PR_SFDS);
    a_thread = std::this_thread::get_id();
    const int fd_a = env.Open("/a-file", kOpenRdwr | kOpenCreat);
    env.WaitChild();
    EXPECT_TRUE(b_opened_while_parked.load());
    ASSERT_GE(fd_a, 0);
    ASSERT_GE(fd_b.load(), 0);
    EXPECT_NE(fd_a, fd_b.load());
    // B's open is in A's table.
    EXPECT_TRUE(env.kernel().GetCloexec(env.proc(), fd_b.load()).ok());
    EXPECT_EQ(env.Close(fd_a), 0);
    EXPECT_EQ(env.Close(fd_b.load()), 0);
  });
  EXPECT_EQ(k.vfs().files().Count(), 0u);
}

// A member that finds the descriptor bracket held spins for it instead of
// sleeping: A parks inside its bracket (at the publish seam) until B's
// close has found the lock taken. The contended acquisition is counted in
// core.fupdsema_waits and timed into core.fupdsema_wait_ns, which /proc/stat
// lists.
TEST(FsCalls, ContendedBracketSpinsAndIsTimed) {
  Kernel k;
  obs::Stats& stats = obs::Stats::Global();
  const u64 waits_before = stats.CounterValue("core.fupdsema_waits");
  const u64 timed_before = stats.HistoCount("core.fupdsema_wait_ns");
  const u64 sleeps_before = stats.CounterValue("sync.sema_sleeps");
  std::atomic<std::thread::id> a_thread{};
  std::atomic<bool> a_parked{false};
  std::atomic<bool> b_waited{false};
  inject::PlanConfig cfg;
  cfg.on_point = [&](const char* point) {
    if (std::strcmp(point, "shaddr.fds.publish") != 0 ||
        std::this_thread::get_id() != a_thread.load() || a_parked.exchange(true)) {
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (stats.CounterValue("core.fupdsema_waits") == waits_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    b_waited = stats.CounterValue("core.fupdsema_waits") > waits_before;
  };
  inject::InjectionPlan plan(0x5A17u, cfg);
  inject::ScopedInjection active(plan);
  RunAsProcess(k, [&](Env& env) {
    const int fd = env.Open("/held", kOpenRdwr | kOpenCreat);
    ASSERT_GE(fd, 0);
    std::atomic<int> b_close{-1};
    env.Sproc(
        [&](Env& c, long) {
          while (!a_parked.load()) {
            std::this_thread::yield();
          }
          b_close = c.Close(fd);  // A holds the bracket: this must spin
        },
        PR_SFDS);
    a_thread = std::this_thread::get_id();
    const int fd2 = env.Open("/held2", kOpenRdwr | kOpenCreat);  // parks inside
    env.WaitChild();
    EXPECT_GE(fd2, 0);
    EXPECT_EQ(b_close.load(), 0);
    env.Close(fd2);
  });
  EXPECT_TRUE(b_waited.load());
  EXPECT_GE(stats.HistoCount("core.fupdsema_wait_ns"), timed_before + 1);
  // The body of /proc/stat.
  EXPECT_NE(stats.RenderText().find("core.fupdsema_wait_ns.count"), std::string::npos);
  EXPECT_EQ(stats.CounterValue("sync.sema_sleeps"), sleeps_before);
  EXPECT_EQ(k.vfs().files().Count(), 0u);
}

#endif  // SG_INJECT_ENABLED

}  // namespace
}  // namespace sg
