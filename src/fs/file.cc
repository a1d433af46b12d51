#include "fs/file.h"

#include "base/check.h"
#include "fs/pipe.h"
#include "inject/inject.h"

namespace sg {

Result<OpenFile*> FileTable::Alloc(Inode* ip, u32 flags) {
  // Claim a slot in the global budget first; roll back on ENFILE. This is
  // the only table-wide serialization point and it is one fetch_add.
  if (count_.fetch_add(1, std::memory_order_acq_rel) >= max_files_) {
    count_.fetch_sub(1, std::memory_order_acq_rel);
    return Errno::kENFILE;
  }
  auto f = std::make_unique<OpenFile>(ip, flags);
  OpenFile* raw = f.get();
  {
    Shard& s = ShardFor(raw);
    MutexGuard l(s.mu);
    s.owned.emplace(raw, std::move(f));
  }
  if (ip->type() == InodeType::kPipe) {
    if ((flags & kOpenRead) != 0) {
      ip->pipe()->AddReader();
    }
    if ((flags & kOpenWrite) != 0) {
      ip->pipe()->AddWriter();
    }
  }
  return raw;
}

OpenFile* FileTable::Dup(OpenFile* f) {
  SG_INJECT_POINT("file.dup");
  const u32 prev = f->refs_.fetch_add(1, std::memory_order_relaxed);
  SG_CHECK(prev > 0);  // duping a dead entry would resurrect freed state
  return f;
}

void FileTable::Release(OpenFile* f) {
  SG_INJECT_POINT("file.release");
  // acq_rel: the release half publishes this holder's writes (offset etc.)
  // to whoever frees; the acquire half makes the freeing thread see them.
  const u32 prev = f->refs_.fetch_sub(1, std::memory_order_acq_rel);
  SG_CHECK(prev > 0);
  if (prev > 1) {
    return;
  }
  // Zero crossing: nobody else holds a reference (every Dup starts from a
  // live reference), so `f` is exclusively ours — take the shard lock only
  // to unhook the entry from the ownership map.
  SG_INJECT_POINT("file.release.last");
  std::unique_ptr<OpenFile> dying;
  {
    Shard& s = ShardFor(f);
    MutexGuard l(s.mu);
    auto it = s.owned.find(f);
    SG_CHECK(it != s.owned.end());
    dying = std::move(it->second);
    s.owned.erase(it);
  }
  count_.fetch_sub(1, std::memory_order_acq_rel);
  Inode* ip = dying->inode();
  if (ip->type() == InodeType::kPipe) {
    if (dying->readable()) {
      ip->pipe()->RemoveReader();
    }
    if (dying->writable()) {
      ip->pipe()->RemoveWriter();
    }
  }
  inodes_.Iput(ip);
}

u32 FileTable::RefCount(const OpenFile* f) const {
  // Diagnostic/test path: look the entry up so a freed pointer reads 0
  // instead of touching dead memory.
  const Shard& s = ShardFor(f);
  MutexGuard l(s.mu);
  auto it = s.owned.find(f);
  return it == s.owned.end() ? 0 : it->second->refs_.load(std::memory_order_acquire);
}

Result<int> FdTable::AllocSlot(OpenFile* f) {
  for (int fd = 0; fd < kMaxFds; ++fd) {
    if (!slots_[static_cast<u32>(fd)].used()) {
      slots_[static_cast<u32>(fd)] = FdEntry{f, false};
      return fd;
    }
  }
  return Errno::kEMFILE;
}

Status FdTable::SetSlot(int fd, OpenFile* f, bool close_on_exec) {
  if (!ValidFd(fd)) {
    return Errno::kEBADF;
  }
  slots_[static_cast<u32>(fd)] = FdEntry{f, close_on_exec};
  return Status::Ok();
}

Result<OpenFile*> FdTable::Get(int fd) const {
  if (!ValidFd(fd) || !slots_[static_cast<u32>(fd)].used()) {
    return Errno::kEBADF;
  }
  return slots_[static_cast<u32>(fd)].file;
}

Result<OpenFile*> FdTable::ClearSlot(int fd) {
  if (!ValidFd(fd) || !slots_[static_cast<u32>(fd)].used()) {
    return Errno::kEBADF;
  }
  OpenFile* f = slots_[static_cast<u32>(fd)].file;
  slots_[static_cast<u32>(fd)] = FdEntry{};
  return f;
}

void FdTable::ReleaseAll(FileTable& files) {
  for (FdEntry& e : slots_) {
    if (e.used()) {
      files.Release(e.file);
      e = FdEntry{};
    }
  }
}

int FdTable::OpenCount() const {
  int n = 0;
  for (const FdEntry& e : slots_) {
    n += e.used() ? 1 : 0;
  }
  return n;
}

}  // namespace sg
