// The system open-file table and per-process descriptor tables.
//
// A descriptor number indexes the process's FdTable (the paper's footnote 1:
// "an index into the file table for a process, which holds pointers to open
// file table entries"). A share group with PR_SFDS has one descriptor table,
// owned by the shared-address block (the paper's s_ofile / s_pofile): its
// members look it up and edit it in place instead of keeping the paper's
// per-member copies (DESIGN.md §4f), so an edit is visible to all of them
// at once.
#ifndef SRC_FS_FILE_H_
#define SRC_FS_FILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "base/mutex.h"
#include "base/result.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "fs/inode.h"

namespace sg {

// open(2) flag bits.
inline constexpr u32 kOpenRead = 1u << 0;
inline constexpr u32 kOpenWrite = 1u << 1;
inline constexpr u32 kOpenAppend = 1u << 2;
inline constexpr u32 kOpenCreat = 1u << 3;
inline constexpr u32 kOpenTrunc = 1u << 4;
inline constexpr u32 kOpenExcl = 1u << 5;
inline constexpr u32 kOpenRdwr = kOpenRead | kOpenWrite;

// One system file-table entry: an open instance of an inode with its own
// offset and mode. Reference-counted through the intrusive atomic count:
// descriptors (private tables and the share block's) hold counted references,
// so Dup/Release are one fetch_add/fetch_sub with no table lookup.
class OpenFile {
 public:
  OpenFile(Inode* ip, u32 flags) : inode_(ip), flags_(flags) {}
  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;

  Inode* inode() { return inode_; }
  u32 flags() const { return flags_; }
  bool readable() const { return (flags_ & kOpenRead) != 0; }
  bool writable() const { return (flags_ & kOpenWrite) != 0; }

  // Offset, shared by every descriptor referencing this entry (dup(2) and
  // fork(2) semantics — and share-group members sharing PR_SFDS). Plain
  // atomics: concurrent readers each advance by what they consumed, like
  // two processes sharing a file table entry on a real kernel — no mutex
  // on the per-byte I/O path.
  u64 offset() const { return offset_.load(std::memory_order_relaxed); }
  void set_offset(u64 off) { offset_.store(off, std::memory_order_relaxed); }
  // Atomically advances the offset by `n`, returning the pre-advance value.
  u64 AdvanceOffset(u64 n) { return offset_.fetch_add(n, std::memory_order_relaxed); }

 private:
  friend class FileTable;  // manages refs_ (Dup/Release/RefCount)

  Inode* inode_;
  u32 flags_;
  std::atomic<u64> offset_{0};
  std::atomic<u32> refs_{1};  // intrusive count; created referenced
};

// The system-wide open file table. Allocation bumps the inode reference;
// the final Release() drops it (and closes pipe endpoints).
//
// Dup/Release ride the intrusive refcount and touch no lock at all except
// at the zero crossing; entry OWNERSHIP (the unique_ptrs) lives in
// pointer-hashed shards so unrelated open/close streams do not serialize
// on one global mutex + std::map.
class FileTable {
 public:
  FileTable(InodeTable& inodes, u32 max_files) : inodes_(inodes), max_files_(max_files) {}
  FileTable(const FileTable&) = delete;
  FileTable& operator=(const FileTable&) = delete;

  // Creates an entry referencing `ip` (whose reference the caller transfers
  // in) with refcount 1; kENFILE when the table is full.
  Result<OpenFile*> Alloc(Inode* ip, u32 flags);

  // Takes an extra reference (dup/fork/share-block copy). Lock-free.
  OpenFile* Dup(OpenFile* f);

  // Drops a reference; the entry closes when it reaches zero (only the
  // zero crossing takes the owning shard's lock, to free the entry).
  void Release(OpenFile* f);

  u32 RefCount(const OpenFile* f) const;
  u64 Count() const { return count_.load(std::memory_order_acquire); }

 private:
  static constexpr u32 kShards = 16;

  struct alignas(64) Shard {
    mutable Mutex mu;
    std::map<const OpenFile*, std::unique_ptr<OpenFile>> owned SG_GUARDED_BY(mu);
  };

  Shard& ShardFor(const OpenFile* f) const {
    // Mix the pointer bits (fibonacci hashing) so allocator address
    // patterns don't pile onto one shard.
    const auto h = reinterpret_cast<std::uintptr_t>(f) * 0x9e3779b97f4a7c15ull;
    return shards_[(h >> 32) % kShards];
  }

  InodeTable& inodes_;
  u32 max_files_;
  std::atomic<u64> count_{0};  // live entries across all shards
  mutable std::array<Shard, kShards> shards_;
};

// One descriptor slot: the open-file pointer plus the per-descriptor flag
// byte (the paper's s_pofile keeps a copy of these flags).
struct FdEntry {
  OpenFile* file = nullptr;
  bool close_on_exec = false;

  bool used() const { return file != nullptr; }
};

// A descriptor table. Plain data; its owner coordinates access: the Proc
// for a private table, the share block's bracket for a PR_SFDS group's.
class FdTable {
 public:
  static constexpr int kMaxFds = 64;  // NOFILES in V.3 was 20; we allow more

  FdTable() : slots_(kMaxFds) {}

  // Lowest free descriptor, kEMFILE when full.
  Result<int> AllocSlot(OpenFile* f);
  Status SetSlot(int fd, OpenFile* f, bool close_on_exec);

  Result<OpenFile*> Get(int fd) const;
  FdEntry& Slot(int fd) { return slots_[static_cast<u32>(fd)]; }
  const FdEntry& Slot(int fd) const { return slots_[static_cast<u32>(fd)]; }

  // Clears slot `fd` and returns the file that was there (caller releases).
  Result<OpenFile*> ClearSlot(int fd);
  // Clears every slot, releasing the reference each one held.
  void ReleaseAll(FileTable& files);

  bool ValidFd(int fd) const { return fd >= 0 && fd < kMaxFds; }
  int OpenCount() const;

 private:
  std::vector<FdEntry> slots_;
};

}  // namespace sg

#endif  // SRC_FS_FILE_H_
