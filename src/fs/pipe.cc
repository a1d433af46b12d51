#include "fs/pipe.h"

#include <algorithm>
#include <cstring>

#include "base/check.h"
#include "sync/wait.h"

namespace sg {

// The ring holds [at, at + n) as at most two runs: up to the end of the
// buffer, then from its start.
void Pipe::CopyOut(u64 at, std::byte* out, u64 n) const {
  const u64 first = std::min(n, kCapacity - at);
  std::memcpy(out, buf_.data() + at, first);
  std::memcpy(out + first, buf_.data(), n - first);
}

void Pipe::CopyIn(u64 at, const std::byte* src, u64 n) {
  const u64 first = std::min(n, kCapacity - at);
  std::memcpy(buf_.data() + at, src, first);
  std::memcpy(buf_.data(), src + first, n - first);
}

Result<u64> Pipe::Read(std::byte* out, u64 len, SleepMode mode) {
  if (len == 0) {
    return u64{0};
  }
  bool slept = false;
  Result<u64> result = u64{0};
  {
    std::unique_lock<std::mutex> l(mu_);
    const Status st =
        BlockOn(cv_, l, mode, &slept, [&] { return size_ > 0 || writers_ == 0; });
    if (!st.ok()) {
      result = st.error();
    } else if (size_ == 0) {
      result = u64{0};  // EOF: drained and no writers left
    } else {
      const u64 n = std::min(len, size_);
      CopyOut(head_, out, n);
      head_ = (head_ + n) % kCapacity;
      size_ -= n;
      result = n;
      cv_.notify_all();  // room for blocked writers
    }
  }
  FinishSleep(slept);
  return result;
}

Result<u64> Pipe::Write(const std::byte* src, u64 len, SleepMode mode) {
  u64 written = 0;
  bool slept_any = false;
  Status st = Status::Ok();
  {
    std::unique_lock<std::mutex> l(mu_);
    while (written < len) {
      bool slept = false;
      st = BlockOn(cv_, l, mode, &slept, [&] { return size_ < kCapacity || readers_ == 0; });
      slept_any = slept_any || slept;
      if (!st.ok()) {
        break;
      }
      if (readers_ == 0) {
        st = Errno::kEPIPE;
        break;
      }
      const u64 n = std::min(len - written, kCapacity - size_);
      CopyIn((head_ + size_) % kCapacity, src + written, n);
      size_ += n;
      written += n;
      cv_.notify_all();  // data for blocked readers
    }
  }
  FinishSleep(slept_any);
  if (written > 0) {
    return written;  // partial write beats the error, like the real kernel
  }
  if (!st.ok()) {
    return st.error();
  }
  return written;
}

void Pipe::AddReader() {
  std::lock_guard<std::mutex> l(mu_);
  ++readers_;
}

void Pipe::AddWriter() {
  std::lock_guard<std::mutex> l(mu_);
  ++writers_;
}

void Pipe::RemoveReader() {
  {
    std::lock_guard<std::mutex> l(mu_);
    SG_CHECK(readers_ > 0);
    --readers_;
  }
  cv_.notify_all();  // writers must learn about EPIPE
}

void Pipe::RemoveWriter() {
  {
    std::lock_guard<std::mutex> l(mu_);
    SG_CHECK(writers_ > 0);
    --writers_;
  }
  cv_.notify_all();  // readers must learn about EOF
}

u64 Pipe::BytesBuffered() const {
  std::lock_guard<std::mutex> l(mu_);
  return size_;
}

}  // namespace sg
