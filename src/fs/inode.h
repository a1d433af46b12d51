// In-memory filesystem: inodes and the inode table.
//
// The paper's share groups propagate the current/root directory (PR_SDIR)
// and hold "+1" inode references from the shared-address block so a shared
// directory can never vanish while any member might still synchronize to it
// (§6.3). The inode table below provides exactly the iget/iput reference
// discipline that scheme relies on.
//
// Lifetime: each inode carries an intrusive atomic count, like OpenFile.
// Holders (descriptors, cwd/root, the share block's copies, path walks)
// and directory links each own one reference, and a directory owns one on
// its parent. Iget is one fetch_add and Iput one fetch_sub; the zero
// crossing frees the inode, and only it and Alloc take the table mutex.
// A name's link and its reference move together under the directory's own
// lock (AddEntry/RemoveEntry), and a path walk takes the child's reference
// under that same lock (LookupRef), so a walk never counts an inode whose
// last link a racing unlink has already dropped.
#ifndef SRC_FS_INODE_H_
#define SRC_FS_INODE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/check.h"
#include "base/mutex.h"
#include "base/result.h"
#include "base/thread_annotations.h"
#include "base/types.h"

namespace sg {

enum class InodeType { kRegular, kDirectory, kPipe };

// Permission bits (classic octal layout).
inline constexpr mode_t kModeUserR = 0400;
inline constexpr mode_t kModeUserW = 0200;
inline constexpr mode_t kModeUserX = 0100;
inline constexpr mode_t kModeGroupR = 0040;
inline constexpr mode_t kModeGroupW = 0020;
inline constexpr mode_t kModeGroupX = 0010;
inline constexpr mode_t kModeOtherR = 0004;
inline constexpr mode_t kModeOtherW = 0002;
inline constexpr mode_t kModeOtherX = 0001;
inline constexpr mode_t kModeAll = 0777;

class Pipe;

// What RemoveEntry may unlink, checked under the directory's lock.
enum class EntryKind {
  kNonDir,    // unlink(2): a directory is EISDIR
  kEmptyDir,  // rmdir(2): a non-directory is ENOTDIR, a non-empty one ENOTEMPTY
};

class Inode {
 public:
  // `parent` null makes the inode its own parent (the root).
  Inode(ino_t ino, InodeType type, mode_t mode, uid_t uid, gid_t gid, Inode* parent);
  Inode(const Inode&) = delete;
  Inode& operator=(const Inode&) = delete;
  ~Inode();

  ino_t ino() const { return ino_; }
  InodeType type() const { return type_; }

  // Metadata, guarded by meta lock.
  mode_t mode() const;
  void set_mode(mode_t m);
  uid_t uid() const;
  gid_t gid() const;
  void set_owner(uid_t u, gid_t g);

  // Link count: the directory entries naming this inode. Each link also
  // owns one reference. Atomic because a file's hard links sit under
  // different directories' locks.
  std::atomic<u32> nlink{0};

  // --- Regular file data ---
  u64 Size() const;
  // Reads up to out.size() bytes at `off`; returns bytes read (0 at EOF).
  u64 ReadAt(u64 off, std::byte* out, u64 len) const;
  // Writes at `off`, growing the file, but never past `limit` bytes total
  // (the ulimit). Returns bytes written (0 means the limit was hit).
  u64 WriteAt(u64 off, const std::byte* src, u64 len, u64 limit);
  void Truncate();

  // --- Directory data ---
  // Each entry owns its child's link: one nlink and one reference.
  //
  // Returns `name`'s child with a reference taken while this directory's
  // lock still pins it; the caller Iputs it.
  Result<Inode*> LookupRef(std::string_view name);
  // Adds `name` and takes the child's link. The caller holds a reference
  // on `child`. ENOENT once this directory has been removed.
  Status AddEntry(std::string_view name, Inode* child);
  // Removes `name` and drops the child's nlink, returning the child with
  // the link's reference, which the caller Iputs. Two racing removals of
  // one name: the loser gets ENOENT.
  Result<Inode*> RemoveEntry(std::string_view name, EntryKind kind);
  // The name under which `child` is linked here (a pointer compare; the
  // child is not dereferenced), or ENOENT.
  Result<std::string> NameOf(const Inode* child) const;
  std::vector<std::string> ListEntries() const;

  // Parent directory (".."), pinned by a reference this directory holds
  // until it is freed. The root points at itself.
  Inode* parent() const { return parent_; }

  // --- Pipe ---
  void AttachPipe(std::unique_ptr<Pipe> p);
  Pipe* pipe() { return pipe_.get(); }

  // --- Synthetic (procfs-style) nodes ---
  // A generated regular file renders its contents on every ReadAt/Size; it
  // has no backing data_ and ignores writes/truncation. The callback must
  // be installed right after Alloc, before the inode is published in any
  // directory — it is immutable afterwards, so reads call it without mu_
  // (the generator may take arbitrary kernel locks of its own).
  void SetGenerator(std::function<std::string()> gen) { gen_ = std::move(gen); }
  bool generated() const { return static_cast<bool>(gen_); }

  // A refreshable directory re-populates its entries when path resolution
  // walks through it. Same publication discipline as SetGenerator; the
  // hook runs without mu_ held.
  void SetRefreshHook(std::function<void()> hook) { refresh_ = std::move(hook); }
  void InvokeRefresh() const {
    if (refresh_) {
      refresh_();
    }
  }
  // Synthetic directories own their namespace: user link/unlink/creat in
  // them is EPERM (even for root), like a real procfs.
  bool synthetic() const { return static_cast<bool>(refresh_); }

 private:
  friend class InodeTable;  // Iget/Iput ride Ref/Unref

  // Takes a reference; the caller already holds one, or holds the lock of
  // a directory linking this inode.
  void Ref() {
    const u32 prev = refs_.fetch_add(1, std::memory_order_relaxed);
    SG_CHECK(prev > 0);  // a dead inode must not come back
  }
  // rmdir's check on the directory being removed, made under its parent's
  // lock: if it is empty, marks it removed so no entry can be added after.
  bool RemoveIfEmpty();

  // Drops a reference; true at the zero crossing.
  bool Unref() {
    // acq_rel: the thread that frees sees every other holder's writes.
    const u32 prev = refs_.fetch_sub(1, std::memory_order_acq_rel);
    SG_CHECK(prev > 0);
    return prev == 1;
  }

  const ino_t ino_;
  const InodeType type_;
  Inode* const parent_;
  std::atomic<u32> refs_{1};  // holders + links; created referenced

  mutable std::mutex mu_;
  mode_t mode_;
  uid_t uid_;
  gid_t gid_;
  std::vector<std::byte> data_;                         // kRegular
  std::map<std::string, Inode*, std::less<>> entries_;  // kDirectory
  bool removed_ = false;                                // kDirectory: rmdir'd
  std::unique_ptr<Pipe> pipe_;                          // kPipe
  std::function<std::string()> gen_;                    // synthetic kRegular (no mu_)
  std::function<void()> refresh_;                       // synthetic kDirectory (no mu_)
};

// Wanted access for permission checks.
enum class Access { kRead, kWrite, kExec };

// Classic UNIX permission check: owner bits if uid matches, else group
// bits, else other bits; uid 0 passes everything.
bool Permits(const Inode& ip, uid_t uid, gid_t gid, Access want);

// The system inode table: allocation, ownership and reference counting.
class InodeTable {
 public:
  explicit InodeTable(u32 max_inodes);
  InodeTable(const InodeTable&) = delete;
  InodeTable& operator=(const InodeTable&) = delete;
  ~InodeTable();

  // Allocates a new inode with one reference and nlink 0. A directory
  // passes its `parent`, on which it holds a reference until it is freed;
  // null makes the inode its own parent (the root).
  Result<Inode*> Alloc(InodeType type, mode_t mode, uid_t uid, gid_t gid,
                       Inode* parent = nullptr);

  // Takes an additional reference (paper: the shared block "has the count
  // bumped one ... this avoids any races whereby the process that changed
  // the resource exits before all other group members have had a chance to
  // synchronize"). One fetch_add: never blocks, so a spinlock holder may
  // call it.
  Inode* Iget(Inode* ip);

  // Drops a reference. The last one (no holder and no link left) frees the
  // inode under the table mutex, so Iput may block: a spinlock holder
  // defers it to after the unlock.
  void Iput(Inode* ip);

  // Holders only (links are not counted); 0 once the inode is freed.
  u32 RefCount(const Inode* ip) const;
  u64 Count() const;

 private:
  void IputFinal(Inode* ip);  // the zero crossing

  mutable Mutex mu_;
  const u32 max_inodes_;
  ino_t next_ino_ SG_GUARDED_BY(mu_) = 1;  // the root directory is allocated first and gets 1
  std::map<const Inode*, std::unique_ptr<Inode>> table_ SG_GUARDED_BY(mu_);  // ownership
};

}  // namespace sg

#endif  // SRC_FS_INODE_H_
