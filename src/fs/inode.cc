#include "fs/inode.h"

#include <cstring>

#include "base/check.h"
#include "fs/pipe.h"
#include "sync/lockdep.h"

namespace sg {

Inode::Inode(ino_t ino, InodeType type, mode_t mode, uid_t uid, gid_t gid, Inode* parent)
    : ino_(ino),
      type_(type),
      parent_(parent == nullptr ? this : parent),
      mode_(mode),
      uid_(uid),
      gid_(gid) {}

Inode::~Inode() = default;

mode_t Inode::mode() const {
  std::lock_guard<std::mutex> l(mu_);
  return mode_;
}

void Inode::set_mode(mode_t m) {
  std::lock_guard<std::mutex> l(mu_);
  mode_ = m & kModeAll;
}

uid_t Inode::uid() const {
  std::lock_guard<std::mutex> l(mu_);
  return uid_;
}

gid_t Inode::gid() const {
  std::lock_guard<std::mutex> l(mu_);
  return gid_;
}

void Inode::set_owner(uid_t u, gid_t g) {
  std::lock_guard<std::mutex> l(mu_);
  uid_ = u;
  gid_ = g;
}

u64 Inode::Size() const {
  if (gen_) {
    return gen_().size();
  }
  std::lock_guard<std::mutex> l(mu_);
  return data_.size();
}

u64 Inode::ReadAt(u64 off, std::byte* out, u64 len) const {
  if (gen_) {
    const std::string text = gen_();
    if (off >= text.size()) {
      return 0;
    }
    const u64 n = std::min<u64>(len, text.size() - off);
    std::memcpy(out, text.data() + off, n);
    return n;
  }
  std::lock_guard<std::mutex> l(mu_);
  if (off >= data_.size()) {
    return 0;
  }
  const u64 n = std::min<u64>(len, data_.size() - off);
  std::memcpy(out, data_.data() + off, n);
  return n;
}

u64 Inode::WriteAt(u64 off, const std::byte* src, u64 len, u64 limit) {
  std::lock_guard<std::mutex> l(mu_);
  if (off >= limit) {
    return 0;  // ulimit reached — caller reports EFBIG
  }
  const u64 n = std::min<u64>(len, limit - off);
  if (off + n > data_.size()) {
    data_.resize(off + n);
  }
  std::memcpy(data_.data() + off, src, n);
  return n;
}

void Inode::Truncate() {
  if (gen_) {
    return;  // synthetic files have no stored data to drop
  }
  std::lock_guard<std::mutex> l(mu_);
  data_.clear();
}

Result<Inode*> Inode::LookupRef(std::string_view name) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Errno::kENOENT;
  }
  // The entry's link is a reference, and dropping it needs mu_: the count
  // is above zero until we unlock.
  it->second->Ref();
  return it->second;
}

Status Inode::AddEntry(std::string_view name, Inode* child) {
  std::lock_guard<std::mutex> l(mu_);
  if (removed_) {
    return Errno::kENOENT;  // its entries would never be unlinked
  }
  if (!entries_.try_emplace(std::string(name), child).second) {
    return Errno::kEEXIST;
  }
  child->Ref();  // before the link, so RefCount never sees a link without it
  child->nlink.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Result<Inode*> Inode::RemoveEntry(std::string_view name, EntryKind kind) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Errno::kENOENT;
  }
  Inode* child = it->second;
  const bool dir = child->type() == InodeType::kDirectory;
  if (kind == EntryKind::kNonDir && dir) {
    return Errno::kEISDIR;
  }
  if (kind == EntryKind::kEmptyDir && !dir) {
    return Errno::kENOTDIR;
  }
  if (kind == EntryKind::kEmptyDir && !child->RemoveIfEmpty()) {
    return Errno::kENOTEMPTY;  // lock order: parent's mu_, then the child's
  }
  entries_.erase(it);
  const u32 prev = child->nlink.fetch_sub(1, std::memory_order_relaxed);
  SG_CHECK(prev > 0);
  return child;  // with the link's reference
}

Result<std::string> Inode::NameOf(const Inode* child) const {
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& [name, ip] : entries_) {
    if (ip == child) {
      return name;
    }
  }
  return Errno::kENOENT;
}

bool Inode::RemoveIfEmpty() {
  std::lock_guard<std::mutex> l(mu_);
  removed_ = entries_.empty();
  return removed_;
}

std::vector<std::string> Inode::ListEntries() const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, ino] : entries_) {
    out.push_back(name);
  }
  return out;
}

void Inode::AttachPipe(std::unique_ptr<Pipe> p) {
  std::lock_guard<std::mutex> l(mu_);
  SG_CHECK(type_ == InodeType::kPipe && pipe_ == nullptr);
  pipe_ = std::move(p);
}

bool Permits(const Inode& ip, uid_t uid, gid_t gid, Access want) {
  if (uid == 0) {
    return true;  // superuser
  }
  const mode_t m = ip.mode();
  mode_t bit;
  if (uid == ip.uid()) {
    bit = want == Access::kRead ? kModeUserR : want == Access::kWrite ? kModeUserW : kModeUserX;
  } else if (gid == ip.gid()) {
    bit = want == Access::kRead ? kModeGroupR : want == Access::kWrite ? kModeGroupW : kModeGroupX;
  } else {
    bit = want == Access::kRead ? kModeOtherR : want == Access::kWrite ? kModeOtherW : kModeOtherX;
  }
  return (m & bit) != 0;
}

InodeTable::InodeTable(u32 max_inodes) : max_inodes_(max_inodes) {}

InodeTable::~InodeTable() = default;

Result<Inode*> InodeTable::Alloc(InodeType type, mode_t mode, uid_t uid, gid_t gid,
                                 Inode* parent) {
  Inode* raw;
  {
    MutexGuard l(mu_);
    if (table_.size() >= max_inodes_) {
      return Errno::kENOSPC;
    }
    auto ip = std::make_unique<Inode>(next_ino_++, type, static_cast<mode_t>(mode & kModeAll),
                                      uid, gid, parent);
    raw = ip.get();
    table_.emplace(raw, std::move(ip));
  }
  if (parent != nullptr) {
    Iget(parent);  // dropped by IputFinal
  }
  return raw;
}

Inode* InodeTable::Iget(Inode* ip) {
  ip->Ref();
  return ip;
}

void InodeTable::Iput(Inode* ip) {
  lockdep::MaySleep("fs.iput");  // the zero crossing takes mu_
  if (ip->Unref()) {
    IputFinal(ip);
  }
}

void InodeTable::IputFinal(Inode* ip) {
  // No holder and no link is left, and a new reference can only be taken
  // from an existing one (or under the lock of a directory linking the
  // inode): `ip` is ours alone. mu_ only unhooks it from the ownership map.
  std::unique_ptr<Inode> dying;
  {
    MutexGuard l(mu_);
    auto it = table_.find(ip);
    SG_CHECK(it != table_.end());
    dying = std::move(it->second);
    table_.erase(it);
  }
  if (dying->parent() != ip) {
    Iput(dying->parent());
  }
}

u32 InodeTable::RefCount(const Inode* ip) const {
  // Diagnostic path: the map lookup makes a freed pointer read 0 instead of
  // touching dead memory. A link's reference is taken before its nlink and
  // dropped after it, and nlink is read first, so the difference never
  // wraps (a racing AddEntry or RemoveEntry can only make it read high).
  MutexGuard l(mu_);
  if (table_.find(ip) == table_.end()) {
    return 0;
  }
  const u32 links = ip->nlink.load(std::memory_order_acquire);
  return ip->refs_.load(std::memory_order_acquire) - links;
}

u64 InodeTable::Count() const {
  MutexGuard l(mu_);
  return table_.size();
}

}  // namespace sg
