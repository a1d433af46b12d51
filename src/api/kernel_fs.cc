// Filesystem syscalls. A caller that shares PR_SFDS has no descriptor
// table of its own: it looks up and edits the group's one table in the
// share block, single-threaded by s_fupdsema, so "when one of the
// processes in a group opens a file, the others will see the file as
// immediately available to them".
//
// FdUpdateBracket (core/shaddr.h) is that bracket; it is a spinlock, so
// nothing inside it may block. Work that may (the path walk of an open,
// creating a pipe) runs before it; references the edit drops are released
// after it. Reads of a descriptor go through FileRef (fget/fdput).
#include <algorithm>
#include <vector>

#include "api/kernel.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "vm/access.h"

namespace sg {

namespace {

// Headroom test against the group's fd cap (src/rm/). Exact only inside the
// descriptor bracket: there the rm node's kFiles `used` equals the group
// table's population, so `used + delta <= cap` is an exact admission test.
// Outside the bracket it is a racy pre-check. The charge itself moves with
// FdUpdateBracket::Publish — this never charges, so no unwind is needed on
// later failure.
bool FdCapHolds(ShaddrBlock* b, u64 delta) {
  if (b == nullptr) {
    return true;  // private fd table: no group, no cap
  }
  rm::GroupNode* n = b->rm_node();
  const u64 cap = n->cap(rm::Resource::kFiles);
  if (cap == 0 || n->used(rm::Resource::kFiles) + delta <= cap) {
    return true;
  }
  SG_OBS_INC("rm.cap.denied.files");
  return false;
}

// The fd-admission seam: an injected denial, then the cap test. Open and
// MakePipe run it before their walk/pipe creation, so a cap that already
// denies costs no side effect (an O_CREAT open creates no file), and repeat
// FdCapHolds exactly inside the bracket.
bool FdCapAllows(ShaddrBlock* b, u64 delta) {
  if (b != nullptr && SG_INJECT_FAULT("rm.cap.files")) {
    SG_OBS_INC("rm.cap.denied.files");
    return false;
  }
  return FdCapHolds(b, delta);
}

}  // namespace

Result<int> Kernel::Open(Proc& p, std::string_view path, u32 flags, mode_t mode) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("open");
  ShaddrBlock* b = FdBlock(p);
  Result<int> result = Errno::kEAGAIN;
  if (FdCapAllows(b, 1)) {
    // The walk (and any O_CREAT) happens outside the bracket; only
    // installing the new file in the table needs it.
    auto f = SG_INJECT_FAULT("open")
                 ? Result<OpenFile*>(Errno::kENFILE)  // injected: file table full
                 : vfs_.Open(p.cwd, p.rootdir, CredOf(p), path, flags, mode, p.umask);
    if (!f.ok()) {
      result = f.error();
    } else {
      SG_INJECT_POINT("fs.open.pre_install");
      FdUpdateBracket u(vfs_.files(), b, p);
      auto fd = FdCapHolds(b, 1) ? u.table().AllocSlot(f.value()) : Result<int>(Errno::kEAGAIN);
      if (!fd.ok()) {
        u.ReleaseLater(f.value());
        result = fd.error();
      } else {
        result = fd.value();
        u.Publish(1);
      }
    }
  }
  SyscallExit(p);
  return result;
}

Status Kernel::Close(Proc& p, int fd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("close");
  Status st = Status::Ok();
  {
    FdUpdateBracket u(vfs_.files(), FdBlock(p), p);
    auto f = u.table().ClearSlot(fd);
    if (!f.ok()) {
      st = f.error();
    } else {
      u.ReleaseLater(f.value());
      u.Publish(-1);
    }
  }
  SyscallExit(p);
  return st;
}

Result<int> Kernel::Dup(Proc& p, int fd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("dup");
  ShaddrBlock* b = FdBlock(p);
  Result<int> result = Errno::kEBADF;
  {
    FdUpdateBracket u(vfs_.files(), b, p);
    auto f = u.table().Get(fd);
    if (f.ok() && !FdCapAllows(b, 1)) {
      result = Errno::kEAGAIN;
    } else if (f.ok()) {
      OpenFile* dup = vfs_.files().Dup(f.value());
      auto slot = u.table().AllocSlot(dup);
      if (!slot.ok()) {
        u.ReleaseLater(dup);
        result = slot.error();
      } else {
        result = slot.value();
        u.Publish(1);
      }
    }
  }
  SyscallExit(p);
  return result;
}

Result<int> Kernel::Dup2(Proc& p, int fd, int newfd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("dup2");
  ShaddrBlock* b = FdBlock(p);
  Result<int> result = Errno::kEBADF;
  {
    FdUpdateBracket u(vfs_.files(), b, p);
    auto f = u.table().Get(fd);
    if (f.ok() && u.table().ValidFd(newfd)) {
      FdEntry& slot = u.table().Slot(newfd);
      if (fd == newfd) {
        result = newfd;
      } else if (!slot.used() && !FdCapAllows(b, 1)) {
        // Only a dup onto an EMPTY slot grows the table; replacing counts 0.
        result = Errno::kEAGAIN;
      } else {
        const bool replaced = slot.used();
        if (replaced) {
          u.ReleaseLater(slot.file);
        }
        slot = FdEntry{vfs_.files().Dup(f.value()), false};
        result = newfd;
        u.Publish(replaced ? 0 : 1);
      }
    }
  }
  SyscallExit(p);
  return result;
}

Status Kernel::SetCloexec(Proc& p, int fd, bool on) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("setcloexec");
  Status st = Status::Ok();
  {
    FdUpdateBracket u(vfs_.files(), FdBlock(p), p);
    if (!u.table().ValidFd(fd) || !u.table().Slot(fd).used()) {
      st = Errno::kEBADF;
    } else {
      u.table().Slot(fd).close_on_exec = on;  // s_pofile: the flag byte
    }
  }
  SyscallExit(p);
  return st;
}

Result<bool> Kernel::GetCloexec(Proc& p, int fd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("getcloexec");
  Result<bool> r = Errno::kEBADF;
  {
    FdUpdateBracket u(vfs_.files(), FdBlock(p), p);
    if (u.table().ValidFd(fd) && u.table().Slot(fd).used()) {
      r = u.table().Slot(fd).close_on_exec;
    }
  }
  SyscallExit(p);
  return r;
}

Result<std::pair<int, int>> Kernel::MakePipe(Proc& p) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("makepipe");
  ShaddrBlock* b = FdBlock(p);
  Result<std::pair<int, int>> result = Errno::kEAGAIN;
  if (FdCapAllows(b, 2)) {  // a pipe admits both ends or neither
    auto made = vfs_.MakePipe();  // allocates: outside the bracket
    if (!made.ok()) {
      result = made.error();
    } else {
      auto [rd, wr] = made.value();
      FdUpdateBracket u(vfs_.files(), b, p);
      FdTable& t = u.table();
      auto rfd = FdCapHolds(b, 2) ? t.AllocSlot(rd) : Result<int>(Errno::kEAGAIN);
      auto wfd = rfd.ok() ? t.AllocSlot(wr) : Result<int>(rfd.error());
      if (!wfd.ok()) {
        if (rfd.ok()) {
          t.ClearSlot(rfd.value()).value();
        }
        u.ReleaseLater(rd);
        u.ReleaseLater(wr);
        result = wfd.error();
      } else {
        result = std::make_pair(rfd.value(), wfd.value());
        u.Publish(2);
      }
    }
  }
  SyscallExit(p);
  return result;
}

// ----- I/O -----

Result<u64> Kernel::Read(Proc& p, int fd, vaddr_t ubuf, u64 len) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("read");
  FileRef fr = Fget(p, fd);
  if (!fr.ok()) {
    SyscallExit(p);
    return fr.error();
  }
  OpenFile* f = fr.value();
  std::vector<std::byte> bounce(std::min<u64>(len, u64{64} << 10));
  u64 total = 0;
  Status err = Status::Ok();
  while (total < len) {
    const u64 chunk = std::min<u64>(len - total, bounce.size());
    auto r = vfs_.ReadFile(*f, bounce.data(), chunk);
    if (!r.ok()) {
      err = r.status();
      break;
    }
    if (r.value() == 0) {
      break;  // EOF
    }
    Status cs = CopyOut(p.as, ubuf + total, bounce.data(), r.value());
    if (!cs.ok()) {
      err = cs;
      break;
    }
    total += r.value();
    if (r.value() < chunk || f->inode()->type() == InodeType::kPipe) {
      break;  // short read; pipes return what is available
    }
  }
  SyscallExit(p);
  if (total == 0 && !err.ok()) {
    return err.error();
  }
  return total;
}

Result<u64> Kernel::Write(Proc& p, int fd, vaddr_t ubuf, u64 len) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("write");
  FileRef fr = Fget(p, fd);
  if (!fr.ok()) {
    SyscallExit(p);
    return fr.error();
  }
  OpenFile* f = fr.value();
  std::vector<std::byte> bounce(std::min<u64>(len, u64{64} << 10));
  u64 total = 0;
  Status err = Status::Ok();
  while (total < len) {
    const u64 chunk = std::min<u64>(len - total, bounce.size());
    Status cs = CopyIn(p.as, bounce.data(), ubuf + total, chunk);
    if (!cs.ok()) {
      err = cs;
      break;
    }
    auto w = vfs_.WriteFile(*f, bounce.data(), chunk, p.ulimit);
    if (!w.ok()) {
      err = w.status();
      break;
    }
    total += w.value();
    if (w.value() < chunk) {
      break;
    }
  }
  if (err.error() == Errno::kEPIPE) {
    p.PostSignal(kSigPipe);  // classic: EPIPE comes with SIGPIPE
  }
  SyscallExit(p);
  if (total == 0 && !err.ok()) {
    return err.error();
  }
  return total;
}

Result<u64> Kernel::ReadK(Proc& p, int fd, std::span<std::byte> out) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("readk");
  FileRef fr = Fget(p, fd);
  Result<u64> r = fr.ok() ? vfs_.ReadFile(*fr.value(), out.data(), out.size())
                          : Result<u64>(fr.error());
  SyscallExit(p);
  return r;
}

Result<u64> Kernel::WriteK(Proc& p, int fd, std::span<const std::byte> in) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("writek");
  FileRef fr = Fget(p, fd);
  Result<u64> r = fr.ok() ? vfs_.WriteFile(*fr.value(), in.data(), in.size(), p.ulimit)
                          : Result<u64>(fr.error());
  if (!r.ok() && r.error() == Errno::kEPIPE) {
    p.PostSignal(kSigPipe);
  }
  SyscallExit(p);
  return r;
}

Result<u64> Kernel::Lseek(Proc& p, int fd, i64 off, SeekWhence whence) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("lseek");
  FileRef fr = Fget(p, fd);
  Result<u64> r = fr.ok() ? vfs_.Seek(*fr.value(), off, whence) : Result<u64>(fr.error());
  SyscallExit(p);
  return r;
}

// ----- namespace ops -----

Status Kernel::Mkdir(Proc& p, std::string_view path, mode_t mode) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("mkdir");
  Status st = vfs_.Mkdir(p.cwd, p.rootdir, CredOf(p), path, mode, p.umask);
  SyscallExit(p);
  return st;
}

Status Kernel::Link(Proc& p, std::string_view existing, std::string_view newpath) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("link");
  Status st = vfs_.Link(p.cwd, p.rootdir, CredOf(p), existing, newpath);
  SyscallExit(p);
  return st;
}

Status Kernel::Unlink(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("unlink");
  Status st = vfs_.Unlink(p.cwd, p.rootdir, CredOf(p), path);
  SyscallExit(p);
  return st;
}

Status Kernel::Rmdir(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("rmdir");
  Status st = vfs_.Rmdir(p.cwd, p.rootdir, CredOf(p), path);
  SyscallExit(p);
  return st;
}

namespace {

// Resolves `path` to a directory inode with search permission, returning a
// counted ref.
Result<Inode*> ResolveDir(Vfs& vfs, Proc& p, Cred cred, std::string_view path) {
  auto ip = vfs.Namei(p.cwd, p.rootdir, cred, path);
  if (!ip.ok()) {
    return ip.error();
  }
  if (ip.value()->type() != InodeType::kDirectory) {
    vfs.inodes().Iput(ip.value());
    return Errno::kENOTDIR;
  }
  if (!Permits(*ip.value(), cred.uid, cred.gid, Access::kExec)) {
    vfs.inodes().Iput(ip.value());
    return Errno::kEACCES;
  }
  return ip.value();
}

}  // namespace

Status Kernel::Chdir(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("chdir");
  auto dir = ResolveDir(vfs_, p, CredOf(p), path);
  Status st = Status::Ok();
  if (!dir.ok()) {
    st = dir.status();
  } else if (p.shaddr != nullptr && (p.p_shmask & PR_SDIR) != 0) {
    // "the ability to change the working directory ... of an entire set of
    // processes at once" (§4).
    p.shaddr->UpdateDir(p, dir.value(), nullptr);
  } else {
    vfs_.inodes().Iput(p.cwd);
    p.cwd = dir.value();
  }
  SyscallExit(p);
  return st;
}

Status Kernel::Chroot(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("chroot");
  Status st = Status::Ok();
  if (p.uid != 0) {
    st = Errno::kEPERM;
  } else {
    auto dir = ResolveDir(vfs_, p, CredOf(p), path);
    if (!dir.ok()) {
      st = dir.status();
    } else if (p.shaddr != nullptr && (p.p_shmask & PR_SDIR) != 0) {
      p.shaddr->UpdateDir(p, nullptr, dir.value());
    } else {
      vfs_.inodes().Iput(p.rootdir);
      p.rootdir = dir.value();
    }
  }
  SyscallExit(p);
  return st;
}

namespace {
StatResult FillStat(InodeTable& inodes, Inode* ip) {
  StatResult s;
  s.ino = ip->ino();
  s.type = ip->type();
  s.mode = ip->mode();
  s.uid = ip->uid();
  s.gid = ip->gid();
  s.size = ip->Size();
  s.nlink = ip->nlink.load(std::memory_order_relaxed);
  (void)inodes;
  return s;
}
}  // namespace

Result<StatResult> Kernel::Stat(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("stat");
  auto ip = vfs_.Namei(p.cwd, p.rootdir, CredOf(p), path);
  Result<StatResult> r = Errno::kENOENT;
  if (!ip.ok()) {
    r = ip.error();
  } else {
    r = FillStat(vfs_.inodes(), ip.value());
    vfs_.inodes().Iput(ip.value());
  }
  SyscallExit(p);
  return r;
}

Result<StatResult> Kernel::Fstat(Proc& p, int fd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("fstat");
  FileRef fr = Fget(p, fd);
  Result<StatResult> r =
      fr.ok() ? Result<StatResult>(FillStat(vfs_.inodes(), fr.value()->inode()))
              : Result<StatResult>(fr.error());
  SyscallExit(p);
  return r;
}

Result<std::string> Kernel::Getcwd(Proc& p) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("getcwd");
  Result<std::string> r = Errno::kENOENT;
  {
    InodeTable& inodes = vfs_.inodes();
    Inode* at = inodes.Iget(p.cwd);
    std::string path;
    bool ok = true;
    while (at != p.rootdir && at->parent() != at) {
      Inode* parent = inodes.Iget(at->parent());  // `at` pins its parent
      // Find our name in the parent (in-memory fs: a scan is fine).
      auto name = parent->NameOf(at);
      if (!name.ok()) {
        ok = false;  // disconnected (cwd was unlinked)
        inodes.Iput(parent);
        break;
      }
      path.insert(0, "/" + name.value());
      inodes.Iput(at);
      at = parent;
    }
    inodes.Iput(at);
    if (ok) {
      r = path.empty() ? std::string("/") : path;
    }
  }
  SyscallExit(p);
  return r;
}

Result<std::vector<std::string>> Kernel::ListDir(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("listdir");
  Result<std::vector<std::string>> r = Errno::kENOENT;
  auto ip = vfs_.Namei(p.cwd, p.rootdir, CredOf(p), path);
  if (!ip.ok()) {
    r = ip.error();
  } else {
    if (ip.value()->type() != InodeType::kDirectory) {
      r = Errno::kENOTDIR;
    } else if (!Permits(*ip.value(), p.uid, p.gid, Access::kRead)) {
      r = Errno::kEACCES;
    } else {
      r = ip.value()->ListEntries();  // already sorted (std::map order)
    }
    vfs_.inodes().Iput(ip.value());
  }
  SyscallExit(p);
  return r;
}

Status Kernel::Chmod(Proc& p, std::string_view path, mode_t mode) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("chmod");
  auto ip = vfs_.Namei(p.cwd, p.rootdir, CredOf(p), path);
  Status st = Status::Ok();
  if (!ip.ok()) {
    st = ip.status();
  } else {
    if (p.uid != 0 && p.uid != ip.value()->uid()) {
      st = Errno::kEPERM;
    } else {
      ip.value()->set_mode(mode);
    }
    vfs_.inodes().Iput(ip.value());
  }
  SyscallExit(p);
  return st;
}

}  // namespace sg
