// Unit tests for fs/: path resolution, open/creat with umask, permissions,
// link/unlink/mkdir/rmdir, file I/O with ulimit, seek, pipes, and the
// reference-counting discipline the share block depends on — including a
// stress run of open/creat/unlink races on one name through the syscall
// surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "api/kernel.h"
#include "api/user_env.h"
#include "fs/vfs.h"

namespace sg {
namespace {

std::span<const std::byte> Bytes(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

struct VfsFixture : ::testing::Test {
  Vfs vfs{256, 256};
  Cred root_cred{0, 0};
  Inode* root() { return vfs.root(); }

  Result<OpenFile*> Open(std::string_view path, u32 flags, mode_t mode = 0644,
                         mode_t umask = 0, Cred cred = {0, 0}) {
    return vfs.Open(root(), root(), cred, path, flags, mode, umask);
  }
};

TEST_F(VfsFixture, CreateWriteReadRoundTrip) {
  auto f = Open("/a", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(f.ok());
  auto s = Bytes("hello world");
  EXPECT_EQ(vfs.WriteFile(*f.value(), s.data(), s.size(), 1 << 20).value(), s.size());
  vfs.files().Release(f.value());

  auto g = Open("/a", kOpenRead);
  ASSERT_TRUE(g.ok());
  std::byte buf[32];
  EXPECT_EQ(vfs.ReadFile(*g.value(), buf, sizeof(buf)).value(), s.size());
  EXPECT_EQ(0, std::memcmp(buf, s.data(), s.size()));
  EXPECT_EQ(vfs.ReadFile(*g.value(), buf, sizeof(buf)).value(), 0u);  // EOF
  vfs.files().Release(g.value());
}

TEST_F(VfsFixture, NameiWalksDirectoriesAndDotDot) {
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/d1", 0755, 0).ok());
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/d1/d2", 0755, 0).ok());
  ASSERT_TRUE(Open("/d1/d2/f", kOpenWrite | kOpenCreat).ok());
  auto ip = vfs.Namei(root(), root(), root_cred, "/d1/d2/../d2/./f");
  ASSERT_TRUE(ip.ok());
  vfs.inodes().Iput(ip.value());
  // ".." above the root stays at the root (chroot jail behaviour).
  auto top = vfs.Namei(root(), root(), root_cred, "/../../d1");
  ASSERT_TRUE(top.ok());
  vfs.inodes().Iput(top.value());
  EXPECT_EQ(vfs.Namei(root(), root(), root_cred, "/nope/f").error(), Errno::kENOENT);
  EXPECT_EQ(vfs.Namei(root(), root(), root_cred, "/d1/d2/f/deeper").error(), Errno::kENOTDIR);
  EXPECT_EQ(vfs.Namei(root(), root(), root_cred, "").error(), Errno::kENOENT);
}

TEST_F(VfsFixture, UmaskAppliesOnCreate) {
  auto f = Open("/masked", kOpenWrite | kOpenCreat, 0777, /*umask=*/027);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->inode()->mode(), 0750);
  vfs.files().Release(f.value());
}

TEST_F(VfsFixture, ExclFailsOnExisting) {
  ASSERT_TRUE(Open("/x", kOpenWrite | kOpenCreat).ok());
  EXPECT_EQ(Open("/x", kOpenWrite | kOpenCreat | kOpenExcl).error(), Errno::kEEXIST);
}

TEST_F(VfsFixture, TruncEmptiesFile) {
  auto f = Open("/t", kOpenWrite | kOpenCreat);
  auto s = Bytes("data");
  vfs.WriteFile(*f.value(), s.data(), s.size(), 1 << 20).value();
  auto g = Open("/t", kOpenWrite | kOpenTrunc);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value()->inode()->Size(), 0u);
}

TEST_F(VfsFixture, PermissionChecks) {
  auto f = Open("/guarded", kOpenWrite | kOpenCreat, 0640);
  ASSERT_TRUE(f.ok());
  f.value()->inode()->set_owner(10, 20);
  // Owner (uid 10): read ok, write ok.
  EXPECT_TRUE(Open("/guarded", kOpenRead, 0, 0, Cred{10, 99}).ok());
  EXPECT_TRUE(Open("/guarded", kOpenWrite, 0, 0, Cred{10, 99}).ok());
  // Group (gid 20): read only.
  EXPECT_TRUE(Open("/guarded", kOpenRead, 0, 0, Cred{11, 20}).ok());
  EXPECT_EQ(Open("/guarded", kOpenWrite, 0, 0, Cred{11, 20}).error(), Errno::kEACCES);
  // Other: nothing.
  EXPECT_EQ(Open("/guarded", kOpenRead, 0, 0, Cred{11, 21}).error(), Errno::kEACCES);
  // Root: everything.
  EXPECT_TRUE(Open("/guarded", kOpenRdwr, 0, 0, Cred{0, 0}).ok());
}

TEST_F(VfsFixture, DirectorySearchPermission) {
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/locked", 0700, 0).ok());
  auto dir = vfs.Namei(root(), root(), root_cred, "/locked");
  dir.value()->set_owner(10, 10);
  vfs.inodes().Iput(dir.value());
  ASSERT_TRUE(Open("/locked/f", kOpenWrite | kOpenCreat, 0644, 0, Cred{10, 10}).ok());
  EXPECT_EQ(vfs.Namei(root(), root(), Cred{11, 11}, "/locked/f").error(), Errno::kEACCES);
}

TEST_F(VfsFixture, LinkUnlinkAndNlink) {
  auto f = Open("/orig", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(f.ok());
  Inode* ip = f.value()->inode();
  EXPECT_EQ(ip->nlink, 1u);
  ASSERT_TRUE(vfs.Link(root(), root(), root_cred, "/orig", "/alias").ok());
  EXPECT_EQ(ip->nlink, 2u);
  ASSERT_TRUE(vfs.Unlink(root(), root(), root_cred, "/orig").ok());
  EXPECT_EQ(ip->nlink, 1u);
  // Still reachable through the alias.
  auto alias = vfs.Namei(root(), root(), root_cred, "/alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias.value(), ip);
  vfs.inodes().Iput(alias.value());
  ASSERT_TRUE(vfs.Unlink(root(), root(), root_cred, "/alias").ok());
  EXPECT_EQ(vfs.Namei(root(), root(), root_cred, "/alias").error(), Errno::kENOENT);
  // The open reference keeps the data alive until released.
  auto s = Bytes("still-writable");
  EXPECT_EQ(vfs.WriteFile(*f.value(), s.data(), s.size(), 1 << 20).value(), s.size());
  const u64 inodes_before = vfs.inodes().Count();
  vfs.files().Release(f.value());
  EXPECT_EQ(vfs.inodes().Count(), inodes_before - 1);  // now truly gone
}

TEST_F(VfsFixture, RmdirSemantics) {
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/dd", 0755, 0).ok());
  ASSERT_TRUE(Open("/dd/f", kOpenWrite | kOpenCreat).ok());
  EXPECT_EQ(vfs.Rmdir(root(), root(), root_cred, "/dd").error(), Errno::kENOTEMPTY);
  ASSERT_TRUE(vfs.Unlink(root(), root(), root_cred, "/dd/f").ok());
  EXPECT_TRUE(vfs.Rmdir(root(), root(), root_cred, "/dd").ok());
  EXPECT_EQ(vfs.Rmdir(root(), root(), root_cred, "/dd").error(), Errno::kENOENT);
  EXPECT_EQ(vfs.Unlink(root(), root(), root_cred, "/").error(), Errno::kEINVAL);
}

TEST_F(VfsFixture, SeekSemantics) {
  auto f = Open("/s", kOpenRdwr | kOpenCreat);
  auto s = Bytes("0123456789");
  vfs.WriteFile(*f.value(), s.data(), s.size(), 1 << 20).value();
  EXPECT_EQ(vfs.Seek(*f.value(), 2, SeekWhence::kSet).value(), 2u);
  std::byte b[1];
  vfs.ReadFile(*f.value(), b, 1).value();
  EXPECT_EQ(static_cast<char>(b[0]), '2');
  EXPECT_EQ(vfs.Seek(*f.value(), -1, SeekWhence::kEnd).value(), 9u);
  EXPECT_EQ(vfs.Seek(*f.value(), 5, SeekWhence::kCur).value(), 14u);  // past EOF ok
  EXPECT_EQ(vfs.Seek(*f.value(), -100, SeekWhence::kCur).error(), Errno::kEINVAL);
  // Writing past EOF zero-fills the hole.
  vfs.Seek(*f.value(), 14, SeekWhence::kSet).value();
  vfs.WriteFile(*f.value(), s.data(), 1, 1 << 20).value();
  EXPECT_EQ(f.value()->inode()->Size(), 15u);
}

TEST_F(VfsFixture, AppendAlwaysWritesAtEnd) {
  auto f = Open("/log", kOpenWrite | kOpenCreat | kOpenAppend);
  auto a = Bytes("aa");
  auto b = Bytes("bb");
  vfs.WriteFile(*f.value(), a.data(), a.size(), 1 << 20).value();
  vfs.Seek(*f.value(), 0, SeekWhence::kSet).value();
  vfs.WriteFile(*f.value(), b.data(), b.size(), 1 << 20).value();
  EXPECT_EQ(f.value()->inode()->Size(), 4u);
}

TEST_F(VfsFixture, UlimitTruncatesWrites) {
  auto f = Open("/lim", kOpenWrite | kOpenCreat);
  std::vector<std::byte> big(100, std::byte{1});
  EXPECT_EQ(vfs.WriteFile(*f.value(), big.data(), big.size(), 60).value(), 60u);
  EXPECT_EQ(vfs.WriteFile(*f.value(), big.data(), big.size(), 60).error(), Errno::kEFBIG);
}

TEST_F(VfsFixture, PipeBlockingAndEof) {
  auto made = vfs.MakePipe();
  ASSERT_TRUE(made.ok());
  auto [rd, wr] = made.value();
  auto s = Bytes("ping");
  EXPECT_EQ(vfs.WriteFile(*wr, s.data(), s.size(), 1 << 20).value(), 4u);
  std::byte buf[8];
  EXPECT_EQ(vfs.ReadFile(*rd, buf, sizeof(buf)).value(), 4u);

  // Blocking read wakes when data arrives.
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    vfs.WriteFile(*wr, s.data(), 2, 1 << 20).value();
  });
  EXPECT_EQ(vfs.ReadFile(*rd, buf, sizeof(buf)).value(), 2u);
  writer.join();

  // EOF after the writer closes.
  vfs.files().Release(wr);
  EXPECT_EQ(vfs.ReadFile(*rd, buf, sizeof(buf)).value(), 0u);
  vfs.files().Release(rd);
}

TEST_F(VfsFixture, PipeWriteWithoutReadersFails) {
  auto made = vfs.MakePipe();
  auto [rd, wr] = made.value();
  vfs.files().Release(rd);
  auto s = Bytes("x");
  EXPECT_EQ(vfs.WriteFile(*wr, s.data(), 1, 1 << 20).error(), Errno::kEPIPE);
  vfs.files().Release(wr);
}

TEST_F(VfsFixture, PipeFullBlocksWriter) {
  auto made = vfs.MakePipe();
  auto [rd, wr] = made.value();
  std::vector<std::byte> fill(Pipe::kCapacity, std::byte{9});
  EXPECT_EQ(vfs.WriteFile(*wr, fill.data(), fill.size(), 1 << 20).value(), Pipe::kCapacity);
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    std::byte one{1};
    vfs.WriteFile(*wr, &one, 1, 1 << 20).value();
    wrote = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(wrote.load());
  std::byte buf[16];
  vfs.ReadFile(*rd, buf, sizeof(buf)).value();
  writer.join();
  EXPECT_TRUE(wrote.load());
  vfs.files().Release(rd);
  vfs.files().Release(wr);
}

TEST_F(VfsFixture, FdTableAllocLowestFirst) {
  FdTable fds;
  auto f = Open("/fd", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(fds.AllocSlot(f.value()).value(), 0);
  EXPECT_EQ(fds.AllocSlot(f.value()).value(), 1);
  fds.ClearSlot(0).value();
  EXPECT_EQ(fds.AllocSlot(f.value()).value(), 0);
  EXPECT_EQ(fds.OpenCount(), 2);
  EXPECT_EQ(fds.Get(5).error(), Errno::kEBADF);
  EXPECT_EQ(fds.Get(-1).error(), Errno::kEBADF);
}

TEST_F(VfsFixture, FileTableRefCounting) {
  auto f = Open("/rc", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(f.ok());
  OpenFile* file = f.value();
  EXPECT_EQ(vfs.files().RefCount(file), 1u);
  vfs.files().Dup(file);
  EXPECT_EQ(vfs.files().RefCount(file), 2u);
  vfs.files().Release(file);
  EXPECT_EQ(vfs.files().RefCount(file), 1u);
  vfs.files().Release(file);
  EXPECT_EQ(vfs.files().RefCount(file), 0u);
  EXPECT_EQ(vfs.files().Count(), 0u);
}

TEST_F(VfsFixture, PipeRingWrapsKeepByteOrder) {
  auto made = vfs.MakePipe();
  ASSERT_TRUE(made.ok());
  auto [rd, wr] = made.value();
  // Three rounds of 3000 bytes: the second and third straddle the ring's
  // end, so each side copies in two runs.
  std::vector<std::byte> in(3000);
  std::vector<std::byte> out(3000);
  for (u32 round = 0; round < 3; ++round) {
    for (u32 i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::byte>((i * 7 + round) & 0xff);
    }
    ASSERT_EQ(vfs.WriteFile(*wr, in.data(), in.size(), 1 << 20).value(), in.size());
    ASSERT_EQ(vfs.ReadFile(*rd, out.data(), out.size()).value(), out.size());
    EXPECT_EQ(0, std::memcmp(in.data(), out.data(), in.size())) << "round " << round;
  }
  vfs.files().Release(rd);
  vfs.files().Release(wr);
}

// Iget/Iput are one atomic each: no update is lost under contention, and
// the directory link keeps the inode alive throughout.
TEST_F(VfsFixture, ConcurrentIgetIputKeepsCountExact) {
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/hot", 0755, 0).ok());
  Inode* ip = vfs.Namei(root(), root(), root_cred, "/hot").value();
  EXPECT_EQ(vfs.inodes().RefCount(ip), 1u);
  const u64 inodes_base = vfs.inodes().Count();
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kRounds; ++i) {
        vfs.inodes().Iget(ip);
        vfs.inodes().Iget(ip);
        vfs.inodes().Iput(ip);
        vfs.inodes().Iput(ip);
      }
    });
  }
  go = true;
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(vfs.inodes().RefCount(ip), 1u);  // only our Namei reference
  EXPECT_EQ(ip->nlink, 1u);
  vfs.inodes().Iput(ip);
  EXPECT_EQ(vfs.inodes().RefCount(ip), 0u);  // holders only: the link is not one
  EXPECT_EQ(vfs.inodes().Count(), inodes_base);
  ASSERT_TRUE(vfs.Rmdir(root(), root(), root_cred, "/hot").ok());
  EXPECT_EQ(vfs.inodes().Count(), inodes_base - 1);
}

// Unlinking a name that still has holders frees the inode exactly once: on
// the last Iput, not at the unlink and not before the last holder.
TEST_F(VfsFixture, UnlinkWithHoldersFreesOnLastIput) {
  auto f = Open("/held", kOpenRdwr | kOpenCreat);
  ASSERT_TRUE(f.ok());
  Inode* ip = f.value()->inode();
  Inode* walked = vfs.Namei(root(), root(), root_cred, "/held").value();
  ASSERT_EQ(walked, ip);
  EXPECT_EQ(vfs.inodes().RefCount(ip), 2u);  // the open file + the walk
  const u64 inodes_base = vfs.inodes().Count();

  ASSERT_TRUE(vfs.Unlink(root(), root(), root_cred, "/held").ok());
  EXPECT_EQ(ip->nlink, 0u);
  EXPECT_EQ(vfs.inodes().RefCount(ip), 2u);
  EXPECT_EQ(vfs.inodes().Count(), inodes_base);
  EXPECT_EQ(vfs.Unlink(root(), root(), root_cred, "/held").error(), Errno::kENOENT);

  vfs.inodes().Iput(walked);
  EXPECT_EQ(vfs.inodes().RefCount(ip), 1u);
  EXPECT_EQ(vfs.inodes().Count(), inodes_base);
  vfs.files().Release(f.value());  // the last reference
  EXPECT_EQ(vfs.inodes().RefCount(ip), 0u);
  EXPECT_EQ(vfs.inodes().Count(), inodes_base - 1);
}

// A directory pins its parent: ".." from a removed working directory still
// resolves after the parent itself was removed, and both are freed once the
// last reference goes.
TEST_F(VfsFixture, RemovedDirectoryPinsItsParent) {
  const u64 inodes_base = vfs.inodes().Count();
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/up", 0755, 0).ok());
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/up/down", 0755, 0).ok());
  Inode* up = vfs.Namei(root(), root(), root_cred, "/up").value();
  Inode* cwd = vfs.Namei(root(), root(), root_cred, "/up/down").value();
  EXPECT_EQ(vfs.inodes().RefCount(up), 2u);  // our walk + /up/down's parent pin
  vfs.inodes().Iput(up);
  ASSERT_TRUE(vfs.Rmdir(root(), root(), root_cred, "/up/down").ok());
  ASSERT_TRUE(vfs.Rmdir(root(), root(), root_cred, "/up").ok());
  EXPECT_EQ(vfs.inodes().Count(), inodes_base + 2);  // both held by `cwd`

  auto parent = vfs.Namei(cwd, root(), root_cred, "..");
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(parent.value(), up);
  EXPECT_EQ(up->nlink, 0u);
  vfs.inodes().Iput(parent.value());
  vfs.inodes().Iput(cwd);  // frees /up/down, whose parent pin frees /up
  EXPECT_EQ(vfs.inodes().Count(), inodes_base);
}

// A name added to a removed directory could never be unlinked again, so
// its inode outlived the directory; creat, mkdir and link there are ENOENT.
TEST_F(VfsFixture, CreateInRemovedDirectoryIsEnoent) {
  const u64 inodes_base = vfs.inodes().Count();
  auto file = Open("/file", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(file.ok());
  vfs.files().Release(file.value());
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/gone", 0755, 0).ok());
  Inode* gone = vfs.Namei(root(), root(), root_cred, "/gone").value();
  ASSERT_TRUE(vfs.Rmdir(root(), root(), root_cred, "/gone").ok());
  EXPECT_EQ(vfs.Open(gone, root(), root_cred, "f", kOpenRdwr | kOpenCreat, 0644, 0).error(),
            Errno::kENOENT);
  EXPECT_EQ(vfs.Mkdir(gone, root(), root_cred, "sub", 0755, 0).error(), Errno::kENOENT);
  EXPECT_EQ(vfs.Link(gone, root(), root_cred, "/file", "alias").error(), Errno::kENOENT);
  vfs.inodes().Iput(gone);
  ASSERT_TRUE(vfs.Unlink(root(), root(), root_cred, "/file").ok());
  EXPECT_EQ(vfs.inodes().Count(), inodes_base);
}

// Regression: open, creat and unlink of one name racing through the
// syscall surface. A path walk used to count the child after dropping the
// directory's lock, so an unlink in between freed it first (a panic in the
// inode table's lookup); unlink paired RemoveEntry and the nlink drop by
// hand, so a second unlinker or a creator in between tripped their checks.
TEST(FsRace, OpenCreatUnlinkOfOneNameThroughEnv) {
  Kernel k;
  const u64 inodes_base = k.vfs().inodes().Count();
  const u64 files_base = k.vfs().files().Count();
#if defined(__SANITIZE_THREAD__)
  constexpr int kRounds = 10000;
#else
  // On a 4-vCPU host whose threads mostly ran one at a time, 100k rounds
  // (about 0.1 s) panicked in 3 of 10 runs before the fix.
  constexpr int kRounds = 100000;
#endif
  std::atomic<int> opened{0};
  std::atomic<int> unlinked{0};
  std::atomic<int> ready{0};
  // Host-level start line (no kernel entry), so the four members overlap.
  auto start = [&] {
    ready.fetch_add(1);
    while (ready.load() < 4) {
      std::this_thread::yield();
    }
  };
  auto pid = k.Launch([&](Env& env, long) {
    auto opener = [&](Env& c, long creat) {
      const u32 flags = kOpenRdwr | (creat != 0 ? kOpenCreat : 0);
      start();
      for (int i = 0; i < kRounds; ++i) {
        const int fd = c.Open("/race", flags);
        if (fd >= 0) {
          opened.fetch_add(1);
          EXPECT_EQ(c.Close(fd), 0);
        }
      }
    };
    auto unlinker = [&](Env& c, long) {
      start();
      for (int i = 0; i < kRounds; ++i) {
        if (c.Unlink("/race") == 0) {
          unlinked.fetch_add(1);
        }
      }
    };
    ASSERT_GT(env.Sproc(opener, PR_SALL, /*creat=*/0), 0);
    ASSERT_GT(env.Sproc(opener, PR_SALL, /*creat=*/1), 0);
    ASSERT_GT(env.Sproc(unlinker, PR_SALL), 0);
    ASSERT_GT(env.Sproc(unlinker, PR_SALL), 0);
    for (int i = 0; i < 4; ++i) {
      int status = -1;
      EXPECT_GT(env.WaitChild(&status), 0);
      EXPECT_EQ(status, 0);
    }
    env.Unlink("/race");  // whatever the last creat left
  });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
  EXPECT_GT(opened.load(), 0);
  EXPECT_GT(unlinked.load(), 0);
  EXPECT_EQ(k.vfs().files().Count(), files_base);
  EXPECT_EQ(k.vfs().inodes().Count(), inodes_base);
}

// rmdir in a synthetic directory is EPERM like unlink there: /proc owns its
// namespace. An empty /proc/share used to be removable, and the procfs
// teardown then panicked on the missing entry.
TEST(FsProcfs, RmdirInProcIsEperm) {
  Kernel k;
  auto pid = k.Launch([&](Env& env, long) {
    EXPECT_EQ(k.Rmdir(env.proc(), "/proc/share").error(), Errno::kEPERM);
    EXPECT_EQ(env.ListDir("/proc/share").size(), 0u);
  });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

}  // namespace
}  // namespace sg
