#include "sync/lockdep.h"

#if defined(SG_LOCKDEP_ENABLED)

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/check.h"
#include "obs/stats.h"

namespace sg {
namespace lockdep {

namespace {

// Class-count ceiling: the kernel protocol defines ~a dozen classes and
// tests add a handful more, so 64 leaves an order of magnitude of slack
// (RegisterClass panics past it rather than silently merging classes).
constexpr u32 kMaxClasses = 64;

// Deepest tracked nesting per thread. The real protocol nests only a few
// deep (fupdsema -> listlock, sharedlock -> tlb); 32 catches even absurd
// tests.
constexpr u32 kMaxHeld = 32;

struct ClassInfo {
  const char* name = nullptr;
  Kind kind = Kind::kSpin;
};

struct HeldLock {
  ClassId cls = 0;
  const void* instance = nullptr;
  Kind kind = Kind::kSpin;
};

// Per-thread held-lock stack. Plain thread_local (no registration): each
// hook touches only the calling thread's stack, so there is nothing to
// synchronize on the fast path.
thread_local HeldLock tl_held[kMaxHeld];
thread_local u32 tl_depth = 0;

// ----- global state (validator-internal; host std::mutex, never a
// tracked lock, so the validator cannot deadlock against its subject) ----

std::mutex g_reg_m;                 // class registry
ClassInfo g_classes[kMaxClasses + 1];  // 1-based
u32 g_nclasses = 0;  // under g_reg_m; read via g_nclasses_pub elsewhere
std::atomic<u32> g_nclasses_pub{0};

// Dependency graph over classes. g_edge[a][b] != 0 means "a was held while
// b was acquired" has been observed. The fast path is one relaxed load; a
// set bit never becomes interesting again. Inserts (and the DFS that
// precedes them) serialize on g_graph_m.
std::atomic<u8> g_edge[kMaxClasses + 1][kMaxClasses + 1];

std::mutex g_graph_m;
// Where each edge was first seen: the acquiring thread's held stack at
// record time. This is the "other stack" in a cycle report.
std::string g_edge_ctx[kMaxClasses + 1][kMaxClasses + 1];

std::vector<std::string>& EdgeList() {
  static std::vector<std::string>* v = new std::vector<std::string>;
  return *v;
}

std::vector<std::string>& ReportList() {
  static std::vector<std::string>* v = new std::vector<std::string>;
  return *v;
}

// Sleep-under-spinlock sites already reported (what x spin class): each
// offending call site fires once, not once per storm iteration.
std::set<std::pair<std::string, ClassId>>& SleepSites() {
  static auto* s = new std::set<std::pair<std::string, ClassId>>;
  return *s;
}

std::atomic<u64> g_reports{0};

const char* ClassName(ClassId c) {
  // Safe without g_reg_m: slots [1, g_nclasses_pub] are write-once before
  // the publishing store.
  if (c == 0 || c > g_nclasses_pub.load(std::memory_order_acquire)) {
    return "<invalid>";
  }
  return g_classes[c].name;
}

std::string DescribeHeldStack() {
  std::ostringstream os;
  os << "thread " << std::this_thread::get_id() << " holding [";
  for (u32 i = 0; i < tl_depth; ++i) {
    if (i != 0) {
      os << " -> ";
    }
    os << ClassName(tl_held[i].cls) << "@" << tl_held[i].instance;
  }
  os << "]";
  return os.str();
}

// Is `to` reachable from `from` over recorded edges? Iterative DFS; called
// under g_graph_m, before the new edge is inserted. If reachable, fills
// `path` with the class chain from `from` to `to`.
bool FindPath(ClassId from, ClassId to, std::vector<ClassId>* path) {
  const u32 n = g_nclasses_pub.load(std::memory_order_acquire);
  bool visited[kMaxClasses + 1] = {};
  // Parallel stacks: node to expand + the path that reached it. The graph
  // is tiny (<= kMaxClasses nodes), so recomputing paths is cheap.
  std::vector<std::pair<ClassId, std::vector<ClassId>>> stack;
  stack.push_back({from, {from}});
  while (!stack.empty()) {
    auto [node, p] = std::move(stack.back());
    stack.pop_back();
    if (node == to) {
      *path = std::move(p);
      return true;
    }
    if (visited[node]) {
      continue;
    }
    visited[node] = true;
    for (ClassId next = 1; next <= n; ++next) {
      if (!visited[next] && g_edge[node][next].load(std::memory_order_relaxed) != 0) {
        auto p2 = p;
        p2.push_back(next);
        stack.push_back({next, std::move(p2)});
      }
    }
  }
  return false;
}

void FileReport(std::string text, const char* counter) {
  obs::Stats::Global().counter(counter).Inc();
  obs::Stats::Global().counter("lockdep.reports").Inc();
  g_reports.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "lockdep: %s\n", text.c_str());
  std::fflush(stderr);
  ReportList().push_back(std::move(text));
}

// Records edge prev -> cls, reporting a cycle if cls already reaches prev.
// Called outside g_graph_m; takes it on the slow (first-sighting) path.
void RecordEdge(ClassId prev, ClassId cls) {
  if (g_edge[prev][cls].load(std::memory_order_relaxed) != 0) {
    return;  // seen before (checked or reported back then)
  }
  std::lock_guard<std::mutex> l(g_graph_m);
  if (g_edge[prev][cls].load(std::memory_order_relaxed) != 0) {
    return;
  }
  std::vector<ClassId> path;
  if (FindPath(cls, prev, &path)) {
    std::ostringstream os;
    os << "lock-order cycle: acquiring \"" << ClassName(cls) << "\" while holding \""
       << ClassName(prev) << "\", but the reverse order is already recorded:\n";
    os << "  new edge:      " << ClassName(prev) << " -> " << ClassName(cls) << "\n"
       << "  this thread:   " << DescribeHeldStack() << "\n";
    os << "  reverse chain: ";
    for (size_t i = 0; i < path.size(); ++i) {
      if (i != 0) {
        os << " -> ";
      }
      os << ClassName(path[i]);
    }
    os << "\n";
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      os << "    edge " << ClassName(path[i]) << " -> " << ClassName(path[i + 1])
         << " first seen: " << g_edge_ctx[path[i]][path[i + 1]] << "\n";
    }
    FileReport(os.str(), "lockdep.cycles");
  }
  // Record the edge either way: a reported cycle must not re-report on
  // every later acquisition in the same (wrong) order.
  g_edge_ctx[prev][cls] = DescribeHeldStack();
  EdgeList().push_back(std::string(ClassName(prev)) + " -> " + ClassName(cls));
  g_edge[prev][cls].store(1, std::memory_order_relaxed);
}

}  // namespace

ClassId RegisterClass(const char* name, Kind kind) {
  std::lock_guard<std::mutex> l(g_reg_m);
  for (u32 i = 1; i <= g_nclasses; ++i) {
    if (std::string_view(g_classes[i].name) == name) {
      return static_cast<ClassId>(i);
    }
  }
  SG_CHECK(g_nclasses < kMaxClasses);
  ++g_nclasses;
  g_classes[g_nclasses] = {name, kind};
  g_nclasses_pub.store(g_nclasses, std::memory_order_release);
  return static_cast<ClassId>(g_nclasses);
}

void OnAcquire(ClassId cls, const void* instance) {
  if (cls == 0) {
    return;
  }
  for (u32 i = 0; i < tl_depth; ++i) {
    // Self-edges are skipped: instances sharing one class (e.g. every
    // ShaddrBlock's listlock_) carry no defined order between themselves,
    // and a same-class pair would otherwise report on the first nesting.
    if (tl_held[i].cls != cls) {
      RecordEdge(tl_held[i].cls, cls);
    }
  }
  SG_CHECK(tl_depth < kMaxHeld);
  tl_held[tl_depth++] = {cls, instance, g_classes[cls].kind};
}

void OnRelease(ClassId cls, const void* instance) {
  if (cls == 0) {
    return;
  }
  // Unwind the matching entry wherever it sits (out-of-order release of
  // e.g. hand-over-hand locking is legal).
  for (u32 i = tl_depth; i > 0; --i) {
    if (tl_held[i - 1].cls == cls && tl_held[i - 1].instance == instance) {
      for (u32 j = i; j < tl_depth; ++j) {
        tl_held[j - 1] = tl_held[j];
      }
      --tl_depth;
      return;
    }
  }
  SG_PANIC("lockdep: releasing a lock this thread does not hold");
}

void MaySleep(const char* what) {
  for (u32 i = 0; i < tl_depth; ++i) {
    if (tl_held[i].kind != Kind::kSpin) {
      continue;
    }
    const ClassId cls = tl_held[i].cls;
    std::lock_guard<std::mutex> l(g_graph_m);
    if (!SleepSites().insert({std::string(what), cls}).second) {
      continue;  // this (site, class) pair already reported
    }
    std::ostringstream os;
    os << "sleep under spinlock: \"" << what << "\" may release the simulated CPU while \""
       << ClassName(cls) << "\" is held\n"
       << "  this thread: " << DescribeHeldStack() << "\n";
    FileReport(os.str(), "lockdep.sleep_under_spin");
  }
}

u32 HeldCount() { return tl_depth; }

u64 Reports() { return g_reports.load(std::memory_order_relaxed); }

std::string RenderReport() {
  std::ostringstream os;
  os << "lockdep: on\n";
  const u32 n = g_nclasses_pub.load(std::memory_order_acquire);
  os << "classes: " << n << "\n";
  for (u32 i = 1; i <= n; ++i) {
    os << "  " << i << ": " << g_classes[i].name << " ("
       << (g_classes[i].kind == Kind::kSpin ? "spin" : "sleep") << ")\n";
  }
  std::lock_guard<std::mutex> l(g_graph_m);
  os << "edges: " << EdgeList().size() << "\n";
  for (const std::string& e : EdgeList()) {
    os << "  " << e << "\n";
  }
  os << "reports: " << ReportList().size() << "\n";
  for (const std::string& r : ReportList()) {
    os << "--\n" << r;
  }
  return os.str();
}

void ResetForTest() {
  std::lock_guard<std::mutex> l(g_graph_m);
  const u32 n = g_nclasses_pub.load(std::memory_order_acquire);
  for (u32 a = 0; a <= n; ++a) {
    for (u32 b = 0; b <= n; ++b) {
      g_edge[a][b].store(0, std::memory_order_relaxed);
      g_edge_ctx[a][b].clear();
    }
  }
  EdgeList().clear();
  ReportList().clear();
  SleepSites().clear();
  g_reports.store(0, std::memory_order_relaxed);
}

}  // namespace lockdep
}  // namespace sg

#endif  // SG_LOCKDEP_ENABLED
