// server_bench — the end-to-end benchmark of the share-group kernel
// (perfbench/README.md). One host process boots one sg::Kernel per run and
// drives one closed-loop workload through the public Kernel/Env API:
//
//   fd_server    the §1 server: an acceptor opens each connection's file and
//                hands only the descriptor NUMBER to PR_SADDR|PR_SFDS workers
//   pipe_server  the same requests served by a fork()ed worker over pipes:
//                no share group anywhere (the §7 "no penalty" path)
//   vm_churn     4 PR_SADDR members map, touch, checksum and unmap pages
//   shared_scan  4 PR_SADDR members scan a shared table 4x the TLB's reach
//
//   server_bench --workload fd_server --seed 1 --seconds 20 [--trace]
//                [--smoke] [--trace-out t.json]
//
// Every op is verified. The run prints one JSON line: the end-to-end
// metrics of the untraced phase and, with --trace, the per-layer metrics
// of a traced phase that follows it (spans timed around the benchmark's
// calls into each layer, plus kernel counter deltas).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/kernel.h"
#include "api/user_env.h"
#include "bench_trace.h"
#include "obs/stats.h"

#if defined(SG_INJECT_ENABLED) || defined(SG_LOCKDEP_ENABLED) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench times only builds without injection, lockdep or sanitizers"
#endif
#ifndef PB_BUILD_FLAGS
#define PB_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace sg;
using pb::NowNs;
using pb::Reservoir;
using pb::Rng;
using pb::S;
using pb::ThreadBuf;
using pb::Tracer;

// ---------------------------------------------------------------- run state

enum Phase : u32 { kSetup, kWarm, kRun, kRunTraced, kStop, kNumPhases };

struct Config {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  // Measured rounds (fresh boots of seconds/rounds each, after a warm-up),
  // and a set-up-only boot before each: enough rounds that the best decile
  // still holds 15 of them when other load on the host slows most rounds.
  int Rounds() const { return smoke ? 2 : 150; }
  int SetupOnlyBoots() const { return smoke ? 0 : 1; }
};

// Ops of one recording process. Written only by that process.
struct OpLog {
  OpLog(size_t cap, u64 seed) : lat(cap, seed) {}
  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) {
      first_error = what;
    }
  }
  // An op issued before its phase began carries time from outside the
  // phase, so Little's law takes R̄ over the ops issued inside it.
  void Done(u32 phase, u64 t0, u64 t1, u64 phase_t0) {
    ++done[phase];
    if (phase == kRun) {
      lat.Add(t1 - t0);
    }
    if (t0 >= phase_t0) {
      lat_sum[phase] += t1 - t0;
      ++lat_n[phase];
    }
  }

  u64 attempted = 0;
  u64 failed = 0;
  std::array<u64, kNumPhases> done{};
  std::array<u64, kNumPhases> lat_sum{};
  std::array<u64, kNumPhases> lat_n{};
  Reservoir lat;  // kRun latencies
  std::string first_error;
};

// One boot: the phase the host controller has set, and the per-process logs.
struct Run {
  Run(Tracer& t, u32 recorders, size_t lat_cap, u64 seed) : tracer(t) {
    for (u32 i = 0; i < recorders; ++i) {
      logs.push_back(std::make_unique<OpLog>(lat_cap, seed + i));
    }
  }
  u32 Now() const { return phase.load(std::memory_order_acquire); }
  u64 Start(u32 p) const { return t_start[p].load(std::memory_order_relaxed); }
  // Called by the workload's main process when every process is ready.
  void SetupDone() {
    t_setup_done.store(NowNs(), std::memory_order_relaxed);
    setup_done.store(true, std::memory_order_release);
    setup_done.notify_all();
  }
  void AwaitStart() { phase.wait(kSetup, std::memory_order_acquire); }

  Tracer& tracer;
  std::atomic<u32> phase{kSetup};
  std::array<std::atomic<u64>, kNumPhases> t_start{};  // stored before `phase`
  std::atomic<bool> setup_done{false};
  std::atomic<u64> t_setup_done{0};
  std::atomic<u32> ready{0};
  std::atomic<bool> main_ok{false};
  std::atomic<bool> main_returned{false};
  std::vector<std::unique_ptr<OpLog>> logs;
};

// Times `f` as span `name` when `on`.
template <typename F>
auto Timed(ThreadBuf* tb, bool on, S name, S parent, u64 req, F&& f) {
  if (!on) {
    return f();
  }
  const u64 t0 = NowNs();
  auto r = f();
  Tracer::Record(tb, name, parent, req, t0, NowNs());
  return r;
}

std::string ErrText(Env& env, const char* what) {
  return std::string(what) + ": " + ErrnoName(env.LastError());
}

// FNV-1a style fold; digests and reply checksums.
constexpr u32 kFnvBasis = 2166136261u;
inline u32 Fold(u32 c, u32 v) { return (c ^ v) * 16777619u; }
inline u64 Fold64(u64 c, u64 v) { return (c ^ v) * 0x100000001b3ULL; }

class Workload {
 public:
  virtual ~Workload() = default;
  // Ops in flight in the closed loop (the N of Little's law).
  virtual u32 Concurrency() const = 0;
  // Processes that record ops (one OpLog each).
  virtual u32 Recorders() const = 0;
  // The Launch'd process: set-up, Run::SetupDone, the loop, teardown.
  virtual void Main(Env& env, Run& run) = 0;
  // Digest of the verified outputs of the last run.
  virtual u64 Digest() const = 0;
};

// ------------------------------------------------------------ the servers

// Requests and replies shared by fd_server and pipe_server. A request is
// 16..64 seed-derived words; the reply is 16 words, each a hash over every
// 16th request word, and the reply checksum folds the reply words.
constexpr u32 kRequests = 256;  // connections, each with its own request
constexpr u32 kOutstanding = 8;
constexpr u32 kMaxReqWords = 64;
constexpr u32 kReplyWords = 16;
constexpr u32 kReplyBytes = kReplyWords * 4;

struct RequestSet {
  RequestSet(u64 seed, u32 count) {
    Rng rng(seed);
    for (u32 k = 0; k < count; ++k) {
      std::vector<u32> w(16 + rng.Below(kMaxReqWords - 16 + 1));
      for (u32& x : w) {
        x = static_cast<u32>(rng.Next());
      }
      std::array<u32, kReplyWords> rep{};
      u32 c = kFnvBasis;
      for (u32 j = 0; j < kReplyWords; ++j) {
        u32 h = 0x9e3779b9u * (j + 1);
        for (u32 i = j; i < w.size(); i += kReplyWords) {
          h = (h ^ w[i]) * 0x01000193u;
        }
        rep[j] = h ^ (h >> 15);
        c = Fold(c, rep[j]);
      }
      words.push_back(std::move(w));
      reply.push_back(rep);
      csum.push_back(c);
      order.push_back(k);
    }
    rng.Shuffle(order);
  }
  u32 size() const { return static_cast<u32>(words.size()); }
  // Digest of every request's verified reply checksum, in request order.
  u64 Digest(const std::vector<u8>& served) const {
    u64 d = 0xcbf29ce484222325ULL;
    for (u32 k = 0; k < size(); ++k) {
      d = Fold64(d, served[k] ? csum[k] : 0);
    }
    return d;
  }

  std::vector<std::vector<u32>> words;
  std::vector<std::array<u32, kReplyWords>> reply;
  std::vector<u32> csum;
  std::vector<u32> order;  // issue order: a seed-permuted cycle
};

// The worker's computation, on simulated memory: reads `n` request words
// at `req`, stores the reply words at `out`, returns the reply checksum.
u32 ComputeReply(Env& env, vaddr_t req, u32 n, vaddr_t out) {
  u32 c = kFnvBasis;
  for (u32 j = 0; j < kReplyWords; ++j) {
    u32 h = 0x9e3779b9u * (j + 1);
    for (u32 i = j; i < n; i += kReplyWords) {
      h = (h ^ env.Load32(req + 4ULL * i)) * 0x01000193u;
    }
    h ^= h >> 15;
    env.Store32(out + 4ULL * j, h);
    c = Fold(c, h);
  }
  return c;
}

// Acceptor-side bookkeeping of the 8 closed-loop slots.
struct Slots {
  std::array<u64, kOutstanding> t_issue{};
  std::array<u32, kOutstanding> id{};
  std::array<u32, kOutstanding> k{};
  // Hand-over times, written by one side just before the slot changes
  // hands and read by the other: the proc.queue_wait span (acceptor to
  // worker) and the proc.reply_wait span (worker back to acceptor).
  std::array<std::atomic<u64>, kOutstanding> enq_ns{};
  std::array<std::atomic<u64>, kOutstanding> reply_ns{};
};

// What the two servers share: the request set, the acceptor's slots, and
// the issue order and verification bookkeeping of one boot.
class Server : public Workload {
 public:
  explicit Server(const Config& cfg) : reqs_(cfg.seed ^ 0xfd5e7e7ULL, cfg.smoke ? 16 : kRequests) {}
  u32 Concurrency() const override { return kOutstanding; }
  u32 Recorders() const override { return 1; }
  u64 Digest() const override { return reqs_.Digest(served_); }

 protected:
  // Every boot issues the same request sequence.
  void Reset() {
    served_.assign(reqs_.size(), 0);
    next_seq_ = 0;
    next_id_ = 1;
  }
  // Assigns the next request of the sequence to slot `s`; returns its index.
  u32 NextRequest(OpLog& log, u32 s) {
    ++log.attempted;
    slots_.k[s] = reqs_.order[next_seq_++ % reqs_.size()];
    slots_.id[s] = next_id_++;
    return slots_.k[s];
  }
  // Records the verified completion of slot `s`.
  void Served(ThreadBuf* tb, Run& run, OpLog& log, u32 phase, u32 s, u64 t_done) {
    served_[slots_.k[s]] = 1;
    log.Done(phase, slots_.t_issue[s], t_done, run.Start(phase));
    if (phase == kRunTraced) {
      Tracer::Record(tb, S::kRequest, S::kRequest, slots_.id[s], slots_.t_issue[s], t_done);
    }
  }

  RequestSet reqs_;
  std::vector<u8> served_;
  Slots slots_;

 private:
  u32 next_seq_ = 0;
  u32 next_id_ = 1;
};

class FdServer : public Server {
 public:
  using Server::Server;

  void Main(Env& env, Run& run) override {
    ThreadBuf* tb = run.tracer.Attach("acceptor");
    OpLog& log = *run.logs[0];
    Reset();
    if (!Setup(env, run, log)) {
      return;
    }
    run.SetupDone();
    run.AwaitStart();

    u32 outstanding = 0;
    for (u32 s = 0; s < kOutstanding && run.Now() != kStop; ++s) {
      outstanding += Issue(env, run, tb, log, s) ? 1 : 0;
    }
    while (outstanding > 0) {
      const bool on = run.Now() == kRunTraced;
      const u32 s = AwaitPop(env, tb, on, kDoneLock, kDoneRing);
      if (Timed(tb, on, S::kSemWait, S::kRequest, 0, [&] { return env.SemOp(sem_done_, -1); }) != 0) {
        log.Fail(ErrText(env, "semop(done)"));
        break;
      }
      if (on && s < kOutstanding) {
        Tracer::Record(tb, S::kReplyWait, S::kRequest, slots_.id[s],
                       slots_.reply_ns[s].load(std::memory_order_acquire), NowNs());
      }
      Complete(env, run, tb, log, s);
      if (run.Now() == kStop || !Issue(env, run, tb, log, s)) {
        --outstanding;
      }
    }
    env.SemOp(sem_work_, kWorkers);
    for (u32 w = 0; w < kWorkers; ++w) {
      Push(env, tb, false, kMboxLock, kWorkRing, kStopSlot);
    }
    for (u32 w = 0; w < kWorkers; ++w) {
      int status = 0;
      if (env.WaitChild(&status) < 0 || status != 0) {
        log.Fail("worker exited abnormally");
      }
    }
    Teardown(env, log);
    run.main_ok.store(true);
  }

 private:
  // Workers are busy-waiting when idle, so with the acceptor 3 host
  // threads spin: one of the host's 4 CPUs stays free for the rest of the
  // machine, which would otherwise preempt a process mid-request.
  static constexpr u32 kWorkers = 2;
  static constexpr u32 kLongLived = 16;
  static constexpr u32 kStopSlot = 0xffff;
  // Mailbox page: two locked rings of slot numbers and the slot records.
  static constexpr vaddr_t kMboxLock = 0;
  static constexpr vaddr_t kDoneLock = 64;
  static constexpr vaddr_t kWorkRing = 128;  // head, tail, 16 entries
  static constexpr vaddr_t kDoneRing = 256;
  static constexpr vaddr_t kSlotRecs = 512;  // 32 bytes per slot
  enum SlotWord : vaddr_t { kId = 0, kIdx = 4, kFd = 8, kLen = 12, kSum = 16, kStatus = 20 };
  static constexpr u32 kRingSize = 16;

  vaddr_t Slot(u32 s) const { return base_ + kSlotRecs + 32ULL * s; }
  static std::string ReqPath(u32 k) { return "/req/r" + std::to_string(k); }

  bool Setup(Env& env, Run& run, OpLog& log) {
    if (env.Mkdir("/req") != 0 || env.Mkdir("/keep") != 0) {
      log.Fail(ErrText(env, "mkdir"));
      return false;
    }
    for (u32 k = 0; k < reqs_.size(); ++k) {
      const int fd = env.Open(ReqPath(k), kOpenRdwr | kOpenCreat, 0600);
      const auto& w = reqs_.words[k];
      if (fd < 0 || env.WriteBuf(fd, std::as_bytes(std::span<const u32>(w))) !=
                        static_cast<i64>(4 * w.size()) ||
          env.Close(fd) != 0) {
        log.Fail(ErrText(env, "create request file"));
        return false;
      }
    }
    // Long-lived descriptors: the fd table the share group publishes and
    // pulls is the size of a server's, not of a toy's.
    for (u32 i = 0; i < kLongLived; ++i) {
      keep_fds_[i] = env.Open("/keep/k" + std::to_string(i), kOpenRdwr | kOpenCreat, 0600);
      if (keep_fds_[i] < 0) {
        log.Fail(ErrText(env, "open long-lived"));
        return false;
      }
    }
    base_ = env.Mmap((1 + kWorkers) * kPageSize);
    sem_work_ = env.Semget(0, 0);
    sem_done_ = env.Semget(0, 0);
    if (base_ == 0 || sem_work_ < 0 || sem_done_ < 0) {
      log.Fail(ErrText(env, "mmap/semget"));
      return false;
    }
    for (u32 pg = 0; pg <= kWorkers; ++pg) {
      env.Store32(base_ + pg * kPageSize, 0);  // pre-fault
    }
    for (u32 w = 0; w < kWorkers; ++w) {
      const UserFn fn = [this, &run](Env& e, long arg) { Worker(e, run, static_cast<u32>(arg)); };
      if (env.Sproc(fn, PR_SADDR | PR_SFDS, w) < 0) {
        log.Fail(ErrText(env, "sproc"));
        return false;
      }
    }
    while (run.ready.load() < kWorkers) {
      env.Yield();
    }
    return true;
  }

  void Push(Env& env, ThreadBuf* tb, bool on, vaddr_t lock, vaddr_t ring, u32 v) {
    Timed(tb, on, S::kMailboxLock, S::kRequest, 0, [&] {
      env.SpinLock(base_ + lock);
      return 0;
    });
    const u32 tail = env.AtomicRead32(base_ + ring + 4);
    env.Store32(base_ + ring + 8 + 4ULL * (tail % kRingSize), v);
    env.AtomicWrite32(base_ + ring + 4, tail + 1);
    env.SpinUnlock(base_ + lock);
  }
  // Takes the next entry of `ring`, busy-waiting (§3) until there is one:
  // a process waiting here never sleeps in the kernel, so a hand-over
  // costs no host wake-up.
  u32 AwaitPop(Env& env, ThreadBuf* tb, bool on, vaddr_t lock, vaddr_t ring) {
    for (;;) {
      while (env.AtomicRead32(base_ + ring) == env.AtomicRead32(base_ + ring + 4)) {
        CpuRelax();
      }
      Timed(tb, on, S::kMailboxLock, S::kRequest, 0, [&] {
        env.SpinLock(base_ + lock);
        return 0;
      });
      const u32 head = env.AtomicRead32(base_ + ring);
      if (head != env.AtomicRead32(base_ + ring + 4)) {
        const u32 v = env.Load32(base_ + ring + 8 + 4ULL * (head % kRingSize));
        env.AtomicWrite32(base_ + ring, head + 1);
        env.SpinUnlock(base_ + lock);
        return v;
      }
      env.SpinUnlock(base_ + lock);
    }
  }

  // Opens the next connection and hands its descriptor number to a worker.
  bool Issue(Env& env, Run& run, ThreadBuf* tb, OpLog& log, u32 s) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const bool on = run.Now() == kRunTraced;
      const u32 k = NextRequest(log, s);
      const u32 id = slots_.id[s];
      slots_.t_issue[s] = NowNs();
      const int fd = Timed(tb, on, S::kFsOpen, S::kRequest, id,
                           [&] { return env.Open(ReqPath(k), kOpenRdwr); });
      if (fd < 0) {
        log.Fail(ErrText(env, "open"));
        continue;
      }
      env.Store32(Slot(s) + kId, id);
      env.Store32(Slot(s) + kIdx, k);
      env.Store32(Slot(s) + kFd, static_cast<u32>(fd));
      env.Store32(Slot(s) + kLen, static_cast<u32>(reqs_.words[k].size()));
      // The post comes before the push, so the worker's SemOp(-1) after
      // taking the slot never sleeps.
      if (Timed(tb, on, S::kSemPost, S::kRequest, id, [&] { return env.SemOp(sem_work_, 1); }) != 0) {
        log.Fail(ErrText(env, "semop(work)"));
        return false;
      }
      slots_.enq_ns[s].store(NowNs(), std::memory_order_release);
      Push(env, tb, on, kMboxLock, kWorkRing, s);
      return true;
    }
    return false;
  }

  void Complete(Env& env, Run& run, ThreadBuf* tb, OpLog& log, u32 s) {
    const u64 t_done = NowNs();
    const u32 phase = run.Now();
    if (s >= kOutstanding || env.Load32(Slot(s) + kId) != slots_.id[s]) {
      log.Fail("completion for an unknown slot");
      return;
    }
    const u32 k = slots_.k[s];
    const u32 status = env.Load32(Slot(s) + kStatus);
    if (status != 0) {
      log.Fail(std::string("worker: ") + ErrnoName(static_cast<Errno>(status)));
      return;
    }
    if (env.Load32(Slot(s) + kSum) != reqs_.csum[k]) {
      log.Fail("reply checksum mismatch");
      return;
    }
    Served(tb, run, log, phase, s, t_done);
  }

  void Worker(Env& env, Run& run, u32 w) {
    ThreadBuf* tb = run.tracer.Attach("worker" + std::to_string(w));
    const vaddr_t buf = base_ + (1 + w) * kPageSize;
    const vaddr_t rbuf = buf + kPageSize / 2;
    run.ready.fetch_add(1);
    for (;;) {
      const bool on = run.Now() == kRunTraced;
      const u32 s = AwaitPop(env, tb, on, kMboxLock, kWorkRing);
      const u64 t_deq = NowNs();
      if (env.SemOp(sem_work_, -1) != 0) {
        env.Exit(1);
      }
      const u64 tw1 = NowNs();
      if (s == kStopSlot) {
        return;
      }
      const u32 id = env.Load32(Slot(s) + kId);
      const int fd = static_cast<int>(env.Load32(Slot(s) + kFd));
      const u32 len = env.Load32(Slot(s) + kLen);
      if (on) {
        Tracer::Record(tb, S::kSemWait, S::kRequest, id, t_deq, tw1);
        Tracer::Record(tb, S::kQueueWait, S::kRequest, id,
                       slots_.enq_ns[s].load(std::memory_order_acquire), t_deq);
      }
      u32 status = 0;
      const auto fail = [&] {
        if (status == 0) {
          status = static_cast<u32>(env.LastError());
          status = status != 0 ? status : static_cast<u32>(Errno::kEIO);
        }
      };
      // The first kernel entry on the received number pulls the fd table.
      if (Timed(tb, on, S::kFirstEntry, S::kRequest, id, [&] { return env.Lseek(fd, 0); }) != 0) {
        fail();
      }
      if (Timed(tb, on, S::kFsRead, S::kRequest, id, [&] { return env.Read(fd, buf, 4ULL * len); }) !=
          static_cast<i64>(4 * len)) {
        fail();
      }
      const u32 sum = Timed(tb, on, S::kCompute, S::kRequest, id,
                            [&] { return ComputeReply(env, buf, len, rbuf); });
      if (Timed(tb, on, S::kFsWrite, S::kRequest, id,
                [&] { return env.Write(fd, rbuf, kReplyBytes); }) != kReplyBytes) {
        fail();
      }
      if (Timed(tb, on, S::kFsClose, S::kRequest, id, [&] { return env.Close(fd); }) != 0) {
        fail();
      }
      env.Store32(Slot(s) + kSum, sum);
      env.Store32(Slot(s) + kStatus, status);
      Timed(tb, on, S::kSemPost, S::kRequest, id, [&] { return env.SemOp(sem_done_, 1); });
      slots_.reply_ns[s].store(NowNs(), std::memory_order_release);
      Push(env, tb, on, kDoneLock, kDoneRing, s);
    }
  }

  // Checks the reply each served connection's file holds, then removes
  // everything the run created.
  void Teardown(Env& env, OpLog& log) {
    for (u32 k = 0; k < reqs_.size(); ++k) {
      const int fd = env.Open(ReqPath(k), kOpenRead);
      if (fd < 0) {
        log.Fail(ErrText(env, "reopen request file"));
        continue;
      }
      if (served_[k] != 0) {
        std::array<u32, kReplyWords> got{};
        env.Lseek(fd, static_cast<i64>(4 * reqs_.words[k].size()));
        if (env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(got))) != kReplyBytes ||
            got != reqs_.reply[k]) {
          log.Fail("reply bytes in the connection file differ");
          served_[k] = 0;
        }
      }
      env.Close(fd);
      env.Unlink(ReqPath(k));
    }
    for (u32 i = 0; i < kLongLived; ++i) {
      env.Close(keep_fds_[i]);
      env.Unlink("/keep/k" + std::to_string(i));
    }
    for (int sem : {sem_work_, sem_done_}) {
      if (!env.kernel().SemRemove(env.proc(), sem).ok()) {
        log.Fail("semaphore removal");
      }
    }
    env.Munmap(base_);
  }

  std::array<int, kLongLived> keep_fds_{};
  vaddr_t base_ = 0;
  int sem_work_ = -1;
  int sem_done_ = -1;
};

class PipeServer : public Server {
 public:
  using Server::Server;

  void Main(Env& env, Run& run) override {
    ThreadBuf* tb = run.tracer.Attach("acceptor");
    OpLog& log = *run.logs[0];
    Reset();
    if (!Setup(env, run, log)) {
      return;
    }
    run.SetupDone();
    run.AwaitStart();

    u32 outstanding = 0;
    for (u32 s = 0; s < kOutstanding && run.Now() != kStop; ++s) {
      outstanding += Issue(env, run, tb, log, s) ? 1 : 0;
    }
    const vaddr_t rbuf = msgs_ + reqs_.size() * kReqMsg;
    while (outstanding > 0) {
      const bool on = run.Now() == kRunTraced;
      AwaitClaim(env, ready_ + kRepsReady);
      const u64 t0 = NowNs();
      if (env.Read(rep_rd_, rbuf, kRepMsg) != kRepMsg) {
        log.Fail(ErrText(env, "read reply"));
        break;
      }
      const u64 t1 = NowNs();
      const u32 s = env.Load32(rbuf + 4);
      if (s >= kOutstanding || env.Load32(rbuf) != slots_.id[s]) {
        log.Fail("reply for an unknown slot");
        break;
      }
      if (on) {
        Tracer::Record(tb, S::kPipeRead, S::kRequest, slots_.id[s], t0, t1);
        Tracer::Record(tb, S::kReplyWait, S::kRequest, slots_.id[s],
                       slots_.reply_ns[s].load(std::memory_order_acquire), t1);
      }
      Complete(env, run, tb, log, s, rbuf);
      if (run.Now() == kStop || !Issue(env, run, tb, log, s)) {
        --outstanding;
      }
    }
    for (u32 w = 0; w < kWorkers; ++w) {
      env.Store32(rbuf, 0);  // request id 0: stop
      env.Write(req_wr_, rbuf, kReqMsg);
      env.FetchAdd32(ready_ + kReqsReady, 1);
    }
    for (u32 w = 0; w < kWorkers; ++w) {
      int status = 0;
      if (env.WaitChild(&status) < 0 || status != 0) {
        log.Fail("worker exited abnormally");
      }
    }
    for (int fd : {req_rd_, req_wr_, rep_rd_, rep_wr_}) {
      env.Close(fd);
    }
    env.Munmap(msgs_);
    if (env.Shmdt(ready_) != 0 || !env.kernel().ShmRemove(env.proc(), shmid_).ok()) {
      log.Fail("shm removal");
    }
    run.main_ok.store(true);
  }

 private:
  // One worker: with two, a run's rounds fell into modes up to 2x apart,
  // likely as the host moved its CPUs under the threads passing cache
  // lines to each other (perfbench/README.md).
  static constexpr u32 kWorkers = 1;
  // Request message: id, slot, request index, word count, then the words.
  // Reply message: id, slot, checksum, 0, then the reply words. Fixed sizes,
  // so one read returns exactly one message; 8 outstanding requests fit the
  // pipe, so writes never split.
  static constexpr u64 kReqMsg = 16 + 4 * kMaxReqWords;
  static constexpr u64 kRepMsg = 16 + kReplyBytes;
  // Words of the SysV segment every process attaches (fork keeps it
  // shared): messages written to each pipe and not yet claimed by a reader.
  static constexpr vaddr_t kReqsReady = 0;
  static constexpr vaddr_t kRepsReady = 64;

  // Claims one written message, busy-waiting (§3) until there is one, so
  // the Read that follows never sleeps in the kernel and a hand-over costs
  // no host wake-up.
  static void AwaitClaim(Env& env, vaddr_t word) {
    for (;;) {
      const u32 n = env.AtomicRead32(word);
      if (n > 0 && env.Cas32(word, n, n - 1)) {
        return;
      }
      CpuRelax();
    }
  }

  bool Setup(Env& env, Run& run, OpLog& log) {
    const u64 bytes = (reqs_.size() + 1) * kReqMsg;
    msgs_ = env.Mmap((bytes + kPageSize - 1) / kPageSize * kPageSize);
    shmid_ = env.Shmget(0, kPageSize);
    ready_ = shmid_ < 0 ? 0 : env.Shmat(shmid_);
    if (msgs_ == 0 || ready_ == 0 || env.Pipe(&req_rd_, &req_wr_) != 0 ||
        env.Pipe(&rep_rd_, &rep_wr_) != 0) {
      log.Fail(ErrText(env, "mmap/shm/pipe"));
      return false;
    }
    // Pre-built request messages (this also pre-faults the region).
    for (u32 k = 0; k < reqs_.size(); ++k) {
      const vaddr_t m = msgs_ + k * kReqMsg;
      const auto& w = reqs_.words[k];
      env.Store32(m + 8, k);
      env.Store32(m + 12, static_cast<u32>(w.size()));
      for (u32 i = 0; i < w.size(); ++i) {
        env.Store32(m + 16 + 4ULL * i, w[i]);
      }
    }
    env.Store32(msgs_ + reqs_.size() * kReqMsg, 0);
    for (u32 w = 0; w < kWorkers; ++w) {
      const UserFn fn = [this, &run](Env& e, long arg) { Worker(e, run, static_cast<u32>(arg)); };
      if (env.Fork(fn, w) < 0) {
        log.Fail(ErrText(env, "fork"));
        return false;
      }
    }
    while (run.ready.load() < kWorkers) {
      env.Yield();
    }
    return true;
  }

  bool Issue(Env& env, Run& run, ThreadBuf* tb, OpLog& log, u32 s) {
    const bool on = run.Now() == kRunTraced;
    const u32 k = NextRequest(log, s);
    const u32 id = slots_.id[s];
    const vaddr_t m = msgs_ + k * kReqMsg;
    env.Store32(m, id);
    env.Store32(m + 4, s);
    slots_.t_issue[s] = NowNs();
    slots_.enq_ns[s].store(slots_.t_issue[s], std::memory_order_release);
    if (Timed(tb, on, S::kPipeWrite, S::kRequest, id,
              [&] { return env.Write(req_wr_, m, kReqMsg); }) != kReqMsg) {
      log.Fail(ErrText(env, "write request"));
      return false;
    }
    env.FetchAdd32(ready_ + kReqsReady, 1);
    return true;
  }

  void Complete(Env& env, Run& run, ThreadBuf* tb, OpLog& log, u32 s, vaddr_t rbuf) {
    const u64 t_done = NowNs();
    const u32 phase = run.Now();
    const u32 k = slots_.k[s];
    // Verify the reply bytes themselves, not only the worker's checksum.
    u32 c = kFnvBasis;
    bool same = true;
    for (u32 j = 0; j < kReplyWords; ++j) {
      const u32 v = env.Load32(rbuf + 16 + 4ULL * j);
      same = same && v == reqs_.reply[k][j];
      c = Fold(c, v);
    }
    if (!same || c != reqs_.csum[k] || env.Load32(rbuf + 8) != reqs_.csum[k]) {
      log.Fail("reply mismatch");
      return;
    }
    Served(tb, run, log, phase, s, t_done);
  }

  void Worker(Env& env, Run& run, u32 w) {
    ThreadBuf* tb = run.tracer.Attach("worker" + std::to_string(w));
    const vaddr_t buf = env.Mmap(kPageSize);  // private: a forked child's own memory
    if (buf == 0) {
      env.Exit(1);
    }
    const vaddr_t rbuf = buf + kPageSize / 2;
    env.Store32(buf, 0);
    run.ready.fetch_add(1);
    for (;;) {
      const bool on = run.Now() == kRunTraced;
      AwaitClaim(env, ready_ + kReqsReady);
      const u64 t0 = NowNs();
      if (env.Read(req_rd_, buf, kReqMsg) != kReqMsg) {
        env.Exit(1);
      }
      const u64 t1 = NowNs();
      const u32 id = env.Load32(buf);
      if (id == 0) {
        return;
      }
      const u32 s = env.Load32(buf + 4);
      const u32 len = env.Load32(buf + 12);
      if (s >= kOutstanding || len > kMaxReqWords) {
        env.Exit(1);
      }
      if (on) {
        Tracer::Record(tb, S::kPipeRead, S::kRequest, id, t0, t1);
        Tracer::Record(tb, S::kQueueWait, S::kRequest, id,
                       slots_.enq_ns[s].load(std::memory_order_acquire), t1);
      }
      const u32 sum = Timed(tb, on, S::kCompute, S::kRequest, id,
                            [&] { return ComputeReply(env, buf + 16, len, rbuf + 16); });
      env.Store32(rbuf, id);
      env.Store32(rbuf + 4, s);
      env.Store32(rbuf + 8, sum);
      slots_.reply_ns[s].store(NowNs(), std::memory_order_release);
      if (Timed(tb, on, S::kPipeWrite, S::kRequest, id,
                [&] { return env.Write(rep_wr_, rbuf, kRepMsg); }) != kRepMsg) {
        env.Exit(1);
      }
      env.FetchAdd32(ready_ + kRepsReady, 1);
    }
  }

  vaddr_t msgs_ = 0;
  vaddr_t ready_ = 0;
  int shmid_ = -1;
  int req_rd_ = -1;
  int req_wr_ = -1;
  int rep_rd_ = -1;
  int rep_wr_ = -1;
};

// ------------------------------------------------------- the VM workloads

constexpr u32 kMembers = 4;

// Starts the other members of a 4-member PR_SADDR group and waits until
// every member is ready; `body(env, m)` is each member's loop.
template <typename Body>
bool StartGroup(Env& env, Run& run, OpLog& log, Body body) {
  for (u32 m = 1; m < kMembers; ++m) {
    const UserFn fn = [body, &run](Env& e, long arg) {
      run.ready.fetch_add(1);
      body(e, static_cast<u32>(arg));
    };
    if (env.Sproc(fn, PR_SADDR, m) < 0) {
      log.Fail(ErrText(env, "sproc"));
      return false;
    }
  }
  while (run.ready.load() < kMembers - 1) {
    env.Yield();
  }
  return true;
}

bool ReapGroup(Env& env, OpLog& log) {
  bool ok = true;
  for (u32 m = 1; m < kMembers; ++m) {
    int status = 0;
    if (env.WaitChild(&status) < 0 || status != 0) {
      log.Fail("member exited abnormally");
      ok = false;
    }
  }
  return ok;
}

class VmChurn : public Workload {
 public:
  explicit VmChurn(const Config& cfg) {
    Rng rng(cfg.seed ^ 0x7e7c4a2bULL);
    for (u32 m = 0; m < kMembers; ++m) {
      for (u32 e = 0; e < kEntries; ++e) {
        Entry en;
        en.pages = 1 + static_cast<u32>(rng.Below(kMaxPages));
        en.salt = static_cast<u32>(rng.Next());
        u32 c = kFnvBasis;
        for (u32 p = 0; p < en.pages; ++p) {
          for (u32 i = 0; i < kWordsPerPage; ++i) {
            c = Fold(c, Word(en.salt, p, i));
          }
        }
        en.csum = c;
        entries_[m][e] = en;
      }
    }
  }
  u32 Concurrency() const override { return kMembers; }
  u32 Recorders() const override { return kMembers; }
  u64 Digest() const override {
    u64 d = 0xcbf29ce484222325ULL;
    for (u32 m = 0; m < kMembers; ++m) {
      for (u32 e = 0; e < kEntries; ++e) {
        d = Fold64(d, verified_[m][e] ? entries_[m][e].csum : 0);
      }
    }
    return d;
  }

  void Main(Env& env, Run& run) override {
    verified_ = {};
    OpLog& log = *run.logs[0];
    // The churn runs against a populated layout, as in a real program:
    // resident regions every lookup, snapshot and shootdown must live with.
    for (vaddr_t& r : resident_) {
      r = env.Mmap(kResidentPages * kPageSize);
      if (r == 0) {
        log.Fail(ErrText(env, "mmap resident"));
        return;
      }
      for (u32 p = 0; p < kResidentPages; ++p) {
        env.Store32(r + p * kPageSize, p);
      }
    }
    if (!StartGroup(env, run, log, [this, &run](Env& e, u32 m) { Member(e, run, m); })) {
      return;
    }
    run.SetupDone();
    Member(env, run, 0);
    bool ok = ReapGroup(env, log);
    for (vaddr_t r : resident_) {
      ok = env.Munmap(r) == 0 && ok;
    }
    run.main_ok.store(ok);
  }

 private:
  static constexpr u32 kEntries = 64;
  static constexpr u32 kMaxPages = 8;
  static constexpr u32 kResidentRegions = 64;
  static constexpr u32 kResidentPages = 4;
  static constexpr u32 kWordsPerPage = 16;  // one per 256 bytes
  struct Entry {
    u32 pages = 0;
    u32 salt = 0;
    u32 csum = 0;
  };
  static u32 Word(u32 salt, u32 p, u32 i) {
    u32 x = salt + p * 0x9e3779b9u + i * 0x85ebca6bu;
    x ^= x >> 16;
    x *= 0x7feb352du;
    return x ^ (x >> 15);
  }

  // One member's loop: map, touch (the first store faults each page in),
  // checksum, unmap (a shootdown across the group), verify.
  void Member(Env& env, Run& run, u32 m) {
    ThreadBuf* tb = run.tracer.Attach("member" + std::to_string(m));
    OpLog& log = *run.logs[m];
    run.AwaitStart();
    for (u64 n = 0; run.Now() != kStop; ++n) {
      const bool on = run.Now() == kRunTraced;
      const u32 e = static_cast<u32>(n % kEntries);
      const Entry& en = entries_[m][e];
      const u64 id = (u64{m + 1} << 40) | (n + 1);
      ++log.attempted;
      const u64 t0 = NowNs();
      const vaddr_t base =
          Timed(tb, on, S::kVmMmap, S::kVmOp, id, [&] { return env.Mmap(en.pages * kPageSize); });
      if (base == 0) {
        log.Fail(ErrText(env, "mmap"));
        continue;
      }
      for (u32 p = 0; p < en.pages; ++p) {
        const vaddr_t pg = base + p * kPageSize;
        Timed(tb, on, S::kVmFirstTouch, S::kVmOp, id, [&] {
          env.Store32(pg, Word(en.salt, p, 0));
          return 0;
        });
        for (u32 i = 1; i < kWordsPerPage; ++i) {
          env.Store32(pg + 256ULL * i, Word(en.salt, p, i));
        }
      }
      const u32 c = Timed(tb, on, S::kCompute, S::kVmOp, id, [&] {
        u32 acc = kFnvBasis;
        for (u32 p = 0; p < en.pages; ++p) {
          for (u32 i = 0; i < kWordsPerPage; ++i) {
            acc = Fold(acc, env.Load32(base + p * kPageSize + 256ULL * i));
          }
        }
        return acc;
      });
      if (Timed(tb, on, S::kVmMunmap, S::kVmOp, id, [&] { return env.Munmap(base); }) != 0) {
        log.Fail(ErrText(env, "munmap"));
        continue;
      }
      const u64 t1 = NowNs();
      if (c != en.csum) {
        log.Fail("page checksum mismatch");
        continue;
      }
      verified_[m][e] = 1;
      const u32 phase = run.Now();
      log.Done(phase, t0, t1, run.Start(phase));
      if (on && phase == kRunTraced) {
        Tracer::Record(tb, S::kVmOp, S::kVmOp, id, t0, t1);
      }
    }
  }

  std::array<std::array<Entry, kEntries>, kMembers> entries_{};
  std::array<std::array<u8, kEntries>, kMembers> verified_{};
  std::array<vaddr_t, kResidentRegions> resident_{};
};

// The shared table is one 256-page mapping per member, all four in the
// group's one address space. Each member scans its own mapping, so every
// page visit is a TLB refill through the shared lookup while no two
// members queue on one pregion's lock: the pass rate measures the lookup
// path, not a convoy behind whichever member the host preempted. A pass
// covers one 64-page quarter of the mapping, one page per TLB slot, and
// passes cycle through the quarters, so each visit finds its slot held by
// the previous quarter's page; short passes keep the p99 a property of
// the lookup rather than of how often the host preempts a member.
class SharedScan : public Workload {
 public:
  explicit SharedScan(const Config& cfg) {
    Rng rng(cfg.seed ^ 0x5ca75ca7ULL);
    for (u32 m = 0; m < kMembers; ++m) {
      for (u32 p = 0; p < kPages; ++p) {
        for (u32& x : table_[m][p]) {
          x = static_cast<u32>(rng.Next());
        }
      }
      for (u32 q = 0; q < kQuarters; ++q) {
        auto& order = order_[m][q];
        order.resize(kTlbSlots);
        for (u32 j = 0; j < kTlbSlots; ++j) {
          order[j] = q * kTlbSlots + j;
        }
        rng.Shuffle(order);
        sum_[m][q] = 0;
        for (u32 p : order) {
          for (u32 x : table_[m][p]) {
            sum_[m][q] += x;
          }
        }
      }
      for (u32 p = 0; p < kPages; ++p) {
        off_[m][p] = static_cast<u32>(rng.Below(kSlots));
      }
    }
  }
  u32 Concurrency() const override { return kMembers; }
  u32 Recorders() const override { return kMembers; }
  u64 Digest() const override {
    u64 d = 0xcbf29ce484222325ULL;
    for (u32 m = 0; m < kMembers; ++m) {
      for (u32 q = 0; q < kQuarters; ++q) {
        d = Fold64(d, verified_[m][q] ? sum_[m][q] : 0);
      }
    }
    return d;
  }

  void Main(Env& env, Run& run) override {
    verified_ = {};
    OpLog& log = *run.logs[0];
    for (u32 m = 0; m < kMembers; ++m) {
      base_[m] = env.Mmap(kPages * kPageSize);
      if (base_[m] == 0) {
        log.Fail(ErrText(env, "mmap table"));
        return;
      }
      for (u32 p = 0; p < kPages; ++p) {
        for (u32 i = 0; i < kSlots; ++i) {
          env.Store32(Addr(m, p, i), table_[m][p][i]);  // fills and pre-faults
        }
      }
    }
    if (!StartGroup(env, run, log, [this, &run](Env& e, u32 m) { Member(e, run, m); })) {
      return;
    }
    run.SetupDone();
    Member(env, run, 0);
    bool ok = ReapGroup(env, log);
    for (vaddr_t b : base_) {
      ok = env.Munmap(b) == 0 && ok;
    }
    run.main_ok.store(ok);
  }

 private:
  static constexpr u32 kTlbSlots = 64;  // entries of the direct-mapped TLB
  static constexpr u32 kQuarters = 4;
  static constexpr u32 kPages = kQuarters * kTlbSlots;  // per member
  static constexpr u32 kSlots = 64;  // table words per page, 64 bytes apart

  vaddr_t Addr(u32 m, u32 p, u32 i) const { return base_[m] + p * kPageSize + 64ULL * i; }

  // One pass visits the pages of one quarter of this member's mapping in
  // this member's order and loads each page's 64 table words, starting at
  // a seeded slot: the first load is a TLB refill through the shared
  // lookup, the other 63 hit the TLB.
  void Member(Env& env, Run& run, u32 m) {
    ThreadBuf* tb = run.tracer.Attach("member" + std::to_string(m));
    OpLog& log = *run.logs[m];
    const auto& off = off_[m];
    run.AwaitStart();
    for (u64 n = 0; run.Now() != kStop; ++n) {
      const bool on = run.Now() == kRunTraced;
      const u64 id = (u64{m + 1} << 40) | (n + 1);
      ++log.attempted;
      const u32 q = static_cast<u32>(n % kQuarters);
      u64 sum = 0;
      const u64 t0 = NowNs();
      for (u32 p : order_[m][q]) {
        sum += Timed(tb, on, S::kVmLoad, S::kScanPass, id,
                     [&] { return env.Load32(Addr(m, p, off[p])); });
        for (u32 i = 1; i < kSlots; ++i) {
          sum += env.Load32(Addr(m, p, (off[p] + i) % kSlots));
        }
      }
      const u64 t1 = NowNs();
      if (sum != sum_[m][q]) {
        log.Fail("pass sum mismatch");
        continue;
      }
      verified_[m][q] = 1;
      const u32 phase = run.Now();
      log.Done(phase, t0, t1, run.Start(phase));
      if (on && phase == kRunTraced) {
        Tracer::Record(tb, S::kScanPass, S::kScanPass, id, t0, t1);
      }
    }
  }

  std::array<std::array<std::array<u32, kSlots>, kPages>, kMembers> table_{};
  std::array<std::array<std::vector<u32>, kQuarters>, kMembers> order_;
  std::array<std::array<u32, kPages>, kMembers> off_{};
  std::array<std::array<u64, kQuarters>, kMembers> sum_{};
  std::array<std::array<u8, kQuarters>, kMembers> verified_{};
  std::array<vaddr_t, kMembers> base_{};
};

std::unique_ptr<Workload> MakeWorkload(const Config& cfg) {
  if (cfg.workload == "fd_server") {
    return std::make_unique<FdServer>(cfg);
  }
  if (cfg.workload == "pipe_server") {
    return std::make_unique<PipeServer>(cfg);
  }
  if (cfg.workload == "vm_churn") {
    return std::make_unique<VmChurn>(cfg);
  }
  if (cfg.workload == "shared_scan") {
    return std::make_unique<SharedScan>(cfg);
  }
  return nullptr;
}

// -------------------------------------------------------- host controller

// Kernel counters diffed around the traced phase.
constexpr std::array<const char*, 17> kCounters = {
    "sys.entries",         "core.sync_pulls",        "core.fds.delta_pulled_slots",
    "core.fds.delta_published_slots", "core.fupdsema_waits", "sync.spin_contended",
    "sync.sema_sleeps",    "sharedlock.read_waits",  "sharedlock.update_waits",
    "vm.faults",           "vm.fault.lockless_hits", "vm.fault.fallbacks",
    "vm.fault.retries",    "vm.layout.drain_waits",  "tlb.misses",
    "tlb.shootdowns",      "tlb.flushed_entries"};
constexpr const char* kCtxSwitches = "ctx_switches";

using Counters = std::map<std::string, u64>;

Counters SnapCounters(Kernel& k) {
  Counters m;
  for (const char* name : kCounters) {
    m[name] = obs::Stats::Global().CounterValue(name);
  }
  m[kCtxSwitches] = k.sched().ContextSwitches();
  return m;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Resident set of this process now, in KiB (the unit of ru_maxrss).
double RssKib() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r"); f != nullptr) {
    if (std::fscanf(f, "%*s %ld", &pages) != 1) {
      pages = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

void SleepUntil(u64 t_ns) {
  for (u64 now = NowNs(); now < t_ns; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<u64>(t_ns - now, 50'000'000)));
  }
}

std::string Fmt(double v) {
  char b[64];
  std::snprintf(b, sizeof(b), "%.17g", v);
  return b;
}

// The value a fraction `q` of the way from the best to the worst of `v`
// (interpolated); the median with `q` = 0.5.
double Quantile(std::vector<double> v, double q, bool higher_is_better) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  if (higher_is_better) {
    std::reverse(v.begin(), v.end());
  }
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
// The best decile of a run's rounds. Other load on the host slows rounds
// down and never speeds them up, and on a shared host it comes and goes
// over seconds, so the best decile tracks the system under test; it stays
// put until more than nine rounds in ten are disturbed.
double BestDecile(const std::vector<double>& v, bool higher_is_better) {
  return Quantile(v, 0.1, higher_is_better);
}

// What one boot measured.
struct Round {
  double setup_s = 0;
  u64 attempted = 0;
  u64 failed = 0;
  std::string first_error;
  std::string fatal;  // a check that fails the whole run
  u64 digest = 0;
  // Untraced phase.
  u64 ops = 0;
  double secs = 0;
  double cpu_s = 0;
  u64 lat_sum = 0;  // over the ops issued inside the phase
  u64 lat_n = 0;
  size_t lat_samples = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  // Traced phase.
  u64 traced_ops = 0;
  double traced_secs = 0;
  Counters traced_delta;
};

// One boot: set-up, then (for seconds > 0) warm-up, the untraced phase
// and, with --trace, a traced phase of equal length; then teardown and the
// teardown checks. With seconds == 0 the boot only samples set-up time.
// `merged` has room for every recorder's latency reservoir; it is allocated
// once per run, so the resident set does not depend on the op count.
Round RunRound(const Config& cfg, Workload& wl, Tracer& tracer, double seconds,
               std::vector<u32>& merged) {
  Round out;
  Run run(tracer, wl.Recorders(), seconds > 0 ? merged.size() / wl.Recorders() : 1, cfg.seed);
  const u64 t_boot = NowNs();
  BootParams params;
  params.ncpus = 4;
  u64 frames0 = 0;
  {
    Kernel k(params);
    frames0 = k.mem().FreeFrames();
    const auto main_fn = [&](Env& env, long) {
      // Set even when the process leaves through Env::Exit (an exception).
      struct Returned {
        std::atomic<bool>& flag;
        ~Returned() { flag.store(true, std::memory_order_release); }
      } returned{run.main_returned};
      wl.Main(env, run);
    };
    if (!k.Launch(main_fn).ok()) {
      out.fatal = "launch failed";
      return out;
    }
    // A workload that fails in set-up returns without SetupDone.
    while (!run.setup_done.load(std::memory_order_acquire) &&
           !run.main_returned.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    out.setup_s = static_cast<double>(run.t_setup_done.load() - t_boot) / 1e9;
    const auto set = [&](Phase p) {
      run.t_start[p].store(NowNs(), std::memory_order_relaxed);
      run.phase.store(p, std::memory_order_release);
      run.phase.notify_all();
    };
    if (seconds > 0 && run.setup_done.load()) {
      const double untraced = cfg.trace ? seconds / 2 : seconds;
      set(kWarm);
      SleepUntil(NowNs() + static_cast<u64>(0.02 * 1e9));  // a few thousand ops
      const double cpu0 = CpuSeconds();
      u64 t = NowNs();
      set(kRun);
      SleepUntil(t + static_cast<u64>(untraced * 1e9));
      u64 t_next = NowNs();
      out.cpu_s = CpuSeconds() - cpu0;
      out.secs = static_cast<double>(t_next - t) / 1e9;
      if (cfg.trace) {
        const Counters c0 = SnapCounters(k);
        t = NowNs();
        set(kRunTraced);
        SleepUntil(t + static_cast<u64>((seconds - untraced) * 1e9));
        t_next = NowNs();
        const Counters c1 = SnapCounters(k);
        out.traced_secs = static_cast<double>(t_next - t) / 1e9;
        for (const auto& [name, v] : c1) {
          out.traced_delta[name] = v - c0.at(name);
        }
      }
    }
    set(kStop);
    k.WaitAll();
    for (const auto& l : run.logs) {
      out.attempted += l->attempted;
      out.failed += l->failed;
      if (out.first_error.empty()) {
        out.first_error = l->first_error;
      }
      out.ops += l->done[kRun];
      out.lat_sum += l->lat_sum[kRun];
      out.lat_n += l->lat_n[kRun];
      out.traced_ops += l->done[kRunTraced];
      if (seconds > 0) {
        out.lat_samples += l->lat.CopyTo(merged.data() + out.lat_samples);
      }
    }
    if (!run.main_ok.load()) {
      out.fatal = "workload main failed: " + out.first_error;
    } else if (k.LiveBlocks() != 0) {
      out.fatal = "share blocks left after teardown: " + std::to_string(k.LiveBlocks());
    } else if (k.mem().FreeFrames() != frames0) {
      out.fatal = "frames leaked: " + std::to_string(frames0) + " free after boot, " +
                  std::to_string(k.mem().FreeFrames()) + " after teardown";
    }
  }
  std::sort(merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(out.lat_samples));
  out.p50_ns = pb::SortedQuantile(merged.data(), out.lat_samples, 0.50);
  out.p99_ns = pb::SortedQuantile(merged.data(), out.lat_samples, 0.99);
  out.digest = wl.Digest();
  if (out.fatal.empty() && seconds > 0 && (out.lat_n == 0 || (cfg.trace && out.traced_ops == 0))) {
    out.fatal = "no op completed in a timed phase";
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metrics of the traced phases of every round.
std::vector<Metric> LayerMetrics(const Tracer& tracer, const std::vector<Round>& rounds,
                                 std::vector<std::pair<std::string, std::string>>& info) {
  std::vector<Metric> m;
  for (u32 i = 0; i < pb::kNumSpans; ++i) {
    const S s = static_cast<S>(i);
    if (pb::IsRoot(s) || s == S::kCompute) {
      continue;
    }
    const pb::Histo h = tracer.Merged(s);
    const std::string n = std::string(pb::kSpanNames[i]) + "_ns";
    m.push_back({n + ".p50", h.Quantile(0.50), "ns"});
    m.push_back({n + ".p99", h.Quantile(0.99), "ns"});
    info.emplace_back(n + ".count", std::to_string(h.count()));
  }
  Counters d;
  double ops = 0;
  std::vector<double> overhead;
  for (const Round& r : rounds) {
    for (const auto& [name, v] : r.traced_delta) {
      d[name] += v;
    }
    ops += static_cast<double>(r.traced_ops);
    overhead.push_back(1.0 - (static_cast<double>(r.traced_ops) / r.traced_secs) /
                                 (static_cast<double>(r.ops) / r.secs));
  }
  const auto delta = [&](const char* name) { return static_cast<double>(d[name]); };
  const auto per_op = [&](const char* name) { return delta(name) / ops; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double hits = delta("vm.fault.lockless_hits");
  m.insert(m.end(), {
      {"api.syscalls_per_op", per_op("sys.entries"), "count/op"},
      {"core.sync_pulls_per_op", per_op("core.sync_pulls"), "count/op"},
      {"core.fds.pulled_slots_per_pull",
       ratio(delta("core.fds.delta_pulled_slots"), delta("core.sync_pulls")), "count"},
      {"core.fds.published_slots_per_op", per_op("core.fds.delta_published_slots"), "count/op"},
      {"core.fupdsema_waits_per_op", per_op("core.fupdsema_waits"), "count/op"},
      {"proc.ctx_switches_per_op", per_op(kCtxSwitches), "count/op"},
      {"sync.spin_contended_per_op", per_op("sync.spin_contended"), "count/op"},
      {"sync.sema_sleeps_per_op", per_op("sync.sema_sleeps"), "count/op"},
      {"sharedlock.read_waits_per_op", per_op("sharedlock.read_waits"), "count/op"},
      {"sharedlock.update_waits_per_op", per_op("sharedlock.update_waits"), "count/op"},
      {"vm.faults_per_op", per_op("vm.faults"), "count/op"},
      {"vm.fault.lockless_frac", ratio(hits, hits + delta("vm.fault.fallbacks")), "ratio"},
      {"vm.fault.retries_per_op", per_op("vm.fault.retries"), "count/op"},
      {"vm.layout.drain_waits_per_op", per_op("vm.layout.drain_waits"), "count/op"},
      {"tlb.misses_per_op", per_op("tlb.misses"), "count/op"},
      {"tlb.shootdowns_per_op", per_op("tlb.shootdowns"), "count/op"},
      {"tlb.flushed_entries_per_op", per_op("tlb.flushed_entries"), "count/op"},
      {"attributed_frac", tracer.Coverage([](S s) { return !pb::IsWait(s); }), "ratio"},
      {"proc.wait_frac", tracer.Coverage(pb::IsWait), "ratio"},
      {"trace_overhead_frac", Quantile(overhead, 0.5, false), "ratio"},
  });
  info.emplace_back("traced_ops", Fmt(ops));
  return m;
}

bool ParseArgs(int argc, char** argv, Config& cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      cfg.workload = val();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val().c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = true;
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--trace-out") {
      cfg.trace_out = val();
    } else {
      return false;
    }
  }
  return !cfg.workload.empty() && cfg.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, cfg)) {
    std::fprintf(stderr,
                 "usage: server_bench --workload fd_server|pipe_server|vm_churn|shared_scan "
                 "--seed N --seconds S [--trace] [--smoke] [--trace-out FILE]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(cfg);
  if (wl == nullptr) {
    std::fprintf(stderr, "server_bench: unknown workload %s\n", cfg.workload.c_str());
    return 2;
  }
  const auto die = [&](const std::string& why) {
    std::fprintf(stderr, "server_bench: %s: %s\n", cfg.workload.c_str(), why.c_str());
    return 1;
  };

  // Each measured round is a fresh boot running seconds/rounds, preceded by
  // set-up-only boots; set-up time is sampled on every boot, so its samples
  // spread over the whole run like the rounds do.
  Tracer tracer(cfg.trace);
  // Room for the latency samples of one round. A round completes at most a
  // few hundred thousand ops; a uniform reservoir of 64Ki of them still
  // leaves hundreds beyond the p99.
  std::vector<u32> merged(cfg.smoke ? (size_t{1} << 12) : (size_t{1} << 16));
  std::vector<double> setups;
  std::vector<Round> rounds;
  // Peak RSS is reported above this: the program image and the harness's
  // own buffers, allocated by now, would otherwise mute the kernel's share.
  const double rss0_kib = RssKib();
  const int per_round = cfg.SetupOnlyBoots() + 1;
  for (int i = 0; i < per_round * cfg.Rounds(); ++i) {
    const bool measured = i % per_round == cfg.SetupOnlyBoots();
    Round r = RunRound(cfg, *wl, tracer, measured ? cfg.seconds / cfg.Rounds() : 0.0, merged);
    if (!r.fatal.empty()) {
      return die(r.fatal);
    }
    setups.push_back(r.setup_s);
    if (measured) {
      rounds.push_back(std::move(r));
    }
  }

  // End-to-end metrics: the best decile of the rounds' values; set-up
  // time is the median of every boot's.
  constexpr double kLittleTol = 0.10;
  std::vector<double> x, p50, p99, cpu, little;
  double ops_all = 0, secs_all = 0, lat_sum_all = 0, lat_n_all = 0;
  u64 attempted = 0;
  u64 failed = 0;
  std::string first_error;
  std::string samples;
  for (const Round& r : rounds) {
    const double xr = static_cast<double>(r.ops) / r.secs;
    x.push_back(xr);
    p50.push_back(r.p50_ns / 1e3);
    p99.push_back(r.p99_ns / 1e3);
    cpu.push_back(r.cpu_s * 1e6 / static_cast<double>(r.ops));
    little.push_back(xr * (static_cast<double>(r.lat_sum) / static_cast<double>(r.lat_n) / 1e9) /
                     wl->Concurrency());
    ops_all += static_cast<double>(r.ops);
    secs_all += r.secs;
    lat_sum_all += static_cast<double>(r.lat_sum);
    lat_n_all += static_cast<double>(r.lat_n);
    attempted += r.attempted;
    failed += r.failed;
    if (first_error.empty()) {
      first_error = r.first_error;
    }
    samples += (samples.empty() ? "" : ",") + std::to_string(r.lat_samples);
  }
  // Little's law on the closed loop, N = X·R̄, over the timed phases of all
  // rounds. A host stall of d at the end of a phase T long leaves the ops
  // it caught out of R̄ and moves one round's ratio by about d/T, so the
  // per-round ratios are printed but the check is on the pooled phases.
  const double little_all =
      ops_all / secs_all * (lat_sum_all / lat_n_all / 1e9) / wl->Concurrency();
  if (std::abs(little_all - 1.0) > kLittleTol) {
    return die("Little's law check failed: X*R/N = " + Fmt(little_all));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::vector<Metric> metrics = {
      {"throughput_ops_s", BestDecile(x, true), "ops/s"},
      {"latency_p50_us", BestDecile(p50, false), "us"},
      {"latency_p99_us", BestDecile(p99, false), "us"},
      {"cpu_us_per_op", BestDecile(cpu, false), "us"},
      {"rss_peak_mb", (static_cast<double>(ru.ru_maxrss) - rss0_kib) / 1024.0, "MiB"},
      {"setup_s", Quantile(setups, 0.5, false), "s"},
  };
  std::vector<std::pair<std::string, std::string>> info;
  if (cfg.trace) {
    for (Metric& m : LayerMetrics(tracer, rounds, info)) {
      metrics.push_back(std::move(m));
    }
    if (!cfg.trace_out.empty()) {
      if (!tracer.ExportChromeJson(cfg.trace_out, 20000)) {
        return die("cannot write " + cfg.trace_out);
      }
      info.emplace_back("trace_file", "\"" + cfg.trace_out + "\"");
    }
  }

  const auto list = [](const std::vector<double>& v) {
    std::string s;
    for (double d : v) {
      s += (s.empty() ? "" : ",") + Fmt(d);
    }
    return "[" + s + "]";
  };
  info.emplace_back("round_throughput_ops_s", list(x));
  info.emplace_back("round_latency_p50_us", list(p50));
  info.emplace_back("round_latency_p99_us", list(p99));
  info.emplace_back("round_cpu_us_per_op", list(cpu));
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"digest\":\"%016llx\",\"traced\":%s,"
              "\"build_flags\":\"%s\",\"host_cpus\":%u,\"rounds\":%d,\"attempted\":%llu,"
              "\"failed\":%llu,\"failed_frac\":%s,\"first_error\":\"%s\","
              "\"latency_samples\":[%s],\"little_ratio\":%s,\"round_little_ratio\":%s,"
              "\"little_tolerance\":%s,"
              "\"setup_samples_s\":%s",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(rounds.back().digest), cfg.trace ? "true" : "false",
              PB_BUILD_FLAGS, std::thread::hardware_concurrency(), cfg.Rounds(),
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              Fmt(failed_frac).c_str(), first_error.c_str(), samples.c_str(), Fmt(little_all).c_str(),
              list(little).c_str(),
              Fmt(kLittleTol).c_str(), list(setups).c_str());
  for (const auto& [k, v] : info) {
    std::printf(",\"%s\":%s", k.c_str(), v.c_str());
  }
  std::printf(",\"metrics\":{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", i == 0 ? "" : ",", m.name.c_str(),
                Fmt(m.value).c_str(), m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
