#include "rtc/comm/executor.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "rtc/common/check.hpp"

// Sanitizers must be told about stack switches: ASan tracks fake
// stacks per context, TSan models each fiber as a logical thread. The
// annotations compile to nothing in plain builds.
#if defined(__SANITIZE_ADDRESS__)
#define RTC_EXEC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RTC_EXEC_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define RTC_EXEC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RTC_EXEC_TSAN 1
#endif
#endif
#ifdef RTC_EXEC_ASAN
#include <sanitizer/asan_interface.h>
#endif
#ifdef RTC_EXEC_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace rtc::comm {

std::string to_string(ExecutorKind /*kind*/) { return "pooled"; }

int default_pool_workers(int ranks) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int cap = hw > 0 ? static_cast<int>(hw) : 4;
  return ranks < cap ? (ranks > 0 ? ranks : 1) : cap;
}

namespace {

// A schedulable execution context: either a worker thread's native
// context or a rank fiber. Stack bounds are needed by the ASan
// annotations; the TSan handle models the context as a logical thread.
struct FiberContext {
  ucontext_t uc{};
  void* stack_base = nullptr;  // lowest address
  std::size_t stack_size = 0;
  void* tsan_fiber = nullptr;
};

void fill_current_thread_stack(FiberContext& ctx) {
#ifdef RTC_EXEC_ASAN
  pthread_attr_t attr;
  RTC_CHECK(pthread_getattr_np(pthread_self(), &attr) == 0);
  pthread_attr_getstack(&attr, &ctx.stack_base, &ctx.stack_size);
  pthread_attr_destroy(&attr);
#else
  (void)ctx;
#endif
}

// Switches execution from `from` to `to`, with sanitizer bookkeeping
// on both edges. Returns when something later switches back into
// `from` — unless from_dying, in which case it never returns and ASan
// is told to free the outgoing fake stack.
void switch_context(FiberContext& from, FiberContext& to, bool from_dying) {
  void* fake_stack = nullptr;
#ifdef RTC_EXEC_ASAN
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &fake_stack,
                                 to.stack_base, to.stack_size);
#else
  (void)from_dying;
#endif
#ifdef RTC_EXEC_TSAN
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  swapcontext(&from.uc, &to.uc);
#ifdef RTC_EXEC_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#else
  (void)fake_stack;
#endif
}

}  // namespace

struct PooledExecutor::State {
  enum class FiberState { kReady, kRunning, kParkPending, kParked, kDone };

  struct Fiber {
    FiberContext ctx;
    void* map_base = nullptr;  // mmap base (guard page + stack)
    std::size_t map_len = 0;
    int rank = -1;
    FiberState st = FiberState::kReady;
    std::uint64_t wake_token = 0;  // guarded by mu
    std::uint64_t park_token = 0;  // guarded by mu
    bool timed_out = false;        // set by the deadlock breaker
    State* pool = nullptr;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Fiber*> ready;  // FIFO keeps wakeup order fair
  int running = 0;
  int live = 0;
  int ranks = 0;
  int workers = 0;
  double grace_seconds = 60.0;
  std::vector<std::unique_ptr<Fiber>> fibers;
  const std::function<void(int)>* rank_main = nullptr;

  void worker_loop();
  void run_fiber(FiberContext& worker_ctx, Fiber* f);
  void allocate_fiber(int rank);
  void release_fiber(Fiber& f);
  static void fiber_entry();
};

namespace {
// makecontext's entry takes no useful arguments portably (int varargs
// would need a function-pointer cast that trips -Wcast-function-type),
// so the worker publishes the fiber to enter through a thread_local
// just before the first switch.
thread_local PooledExecutor::State::Fiber* tl_entry_fiber = nullptr;
thread_local FiberContext* tl_worker_ctx = nullptr;
}  // namespace

PooledExecutor::PooledExecutor(int ranks, const ExecutorConfig& cfg)
    : state_(std::make_unique<State>()) {
  RTC_CHECK_MSG(ranks >= 1, "pooled executor needs at least one rank");
  State& s = *state_;
  s.ranks = ranks;
  s.workers = cfg.workers > 0 ? cfg.workers : default_pool_workers(ranks);
  if (s.workers > ranks) s.workers = ranks;
}

PooledExecutor::~PooledExecutor() = default;

void PooledExecutor::set_deadlock_grace(double seconds) {
  state_->grace_seconds = seconds > 0.0 ? seconds : 0.0;
}

void PooledExecutor::State::allocate_fiber(int rank) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // Round the stack up to whole pages so the guard page stays aligned.
  const std::size_t stack = (kFiberStackBytes + page - 1) / page * page;
  const std::size_t len = stack + page;
  void* base = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  RTC_CHECK_MSG(base != MAP_FAILED,
                "mmap of a fiber stack failed — lower the rank count");
  // Guard page at the low end: stack overflow faults instead of
  // silently corrupting the neighboring fiber's stack.
  mprotect(base, page, PROT_NONE);

  auto f = std::make_unique<Fiber>();
  f->map_base = base;
  f->map_len = len;
  f->rank = rank;
  f->pool = this;
  f->ctx.stack_base = static_cast<char*>(base) + page;
  f->ctx.stack_size = stack;
#ifdef RTC_EXEC_TSAN
  f->ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
  getcontext(&f->ctx.uc);
  f->ctx.uc.uc_stack.ss_sp = f->ctx.stack_base;
  f->ctx.uc.uc_stack.ss_size = f->ctx.stack_size;
  f->ctx.uc.uc_link = nullptr;
  makecontext(&f->ctx.uc, &State::fiber_entry, 0);
  fibers.push_back(std::move(f));
}

void PooledExecutor::State::release_fiber(Fiber& f) {
#ifdef RTC_EXEC_TSAN
  if (f.ctx.tsan_fiber != nullptr) __tsan_destroy_fiber(f.ctx.tsan_fiber);
#endif
  if (f.map_base != nullptr) munmap(f.map_base, f.map_len);
  f.map_base = nullptr;
}

void PooledExecutor::State::fiber_entry() {
  Fiber* f = tl_entry_fiber;
#ifdef RTC_EXEC_ASAN
  // Complete the switch the worker started; a fresh fiber has no saved
  // fake stack of its own.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  (*f->pool->rank_main)(f->rank);
  // Mark done-ness for the worker (committed under the pool lock after
  // we are off this stack), then leave the stack forever.
  {
    std::lock_guard<std::mutex> lock(f->pool->mu);
    f->st = FiberState::kDone;
  }
  switch_context(f->ctx, *tl_worker_ctx, /*from_dying=*/true);
  RTC_CHECK_MSG(false, "resumed a finished fiber");
}

void PooledExecutor::State::run_fiber(FiberContext& worker_ctx, Fiber* f) {
  tl_entry_fiber = f;  // only consumed on the fiber's first entry
  switch_context(worker_ctx, f->ctx, /*from_dying=*/false);
}

void PooledExecutor::State::worker_loop() {
  FiberContext worker_ctx;
  fill_current_thread_stack(worker_ctx);
#ifdef RTC_EXEC_TSAN
  worker_ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
  tl_worker_ctx = &worker_ctx;

  std::unique_lock<std::mutex> lock(mu);
  for (;;) {
    if (!ready.empty()) {
      Fiber* f = ready.front();
      ready.pop_front();
      f->st = FiberState::kRunning;
      ++running;
      lock.unlock();
      run_fiber(worker_ctx, f);
      lock.lock();
      --running;
      switch (f->st) {
        case FiberState::kDone:
          --live;
          if (live == 0) cv.notify_all();
          break;
        case FiberState::kParkPending:
          // Commit the park now that the fiber is off its stack. A
          // wake that raced with the switch moved the token; honor it.
          if (f->wake_token != f->park_token) {
            f->st = FiberState::kReady;
            ready.push_back(f);
            cv.notify_one();
          } else {
            f->st = FiberState::kParked;
          }
          break;
        default:
          RTC_CHECK_MSG(false, "fiber yielded in an unexpected state");
      }
      continue;
    }
    if (live == 0) return;
    if (running == 0) {
      // Every live fiber is parked and nothing is ready: no event
      // inside the run can unpark them. Honor the recv-timeout grace
      // (external wake()s may still arrive), then break the deadlock
      // by resuming all parked fibers with the timed-out flag set.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(grace_seconds));
      const bool woke = cv.wait_until(lock, deadline, [&] {
        return !ready.empty() || running > 0 || live == 0;
      });
      if (woke) continue;
      for (const std::unique_ptr<Fiber>& up : fibers) {
        Fiber* f = up.get();
        if (f->st == FiberState::kParked) {
          f->timed_out = true;
          ++f->wake_token;
          f->st = FiberState::kReady;
          ready.push_back(f);
        }
      }
      cv.notify_all();
      continue;
    }
    cv.wait(lock);
  }
}

void PooledExecutor::run(const std::function<void(int)>& rank_main) {
  State& s = *state_;
  RTC_CHECK_MSG(s.fibers.empty(), "PooledExecutor::run is single-shot");
  s.rank_main = &rank_main;
  s.fibers.reserve(static_cast<std::size_t>(s.ranks));
  for (int r = 0; r < s.ranks; ++r) s.allocate_fiber(r);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.live = s.ranks;
    for (const std::unique_ptr<State::Fiber>& f : s.fibers)
      s.ready.push_back(f.get());
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(s.workers));
  for (int w = 0; w < s.workers; ++w)
    pool.emplace_back([&s] { s.worker_loop(); });
  for (std::thread& t : pool) t.join();
  for (const std::unique_ptr<State::Fiber>& f : s.fibers)
    s.release_fiber(*f);
  s.rank_main = nullptr;
}

void PooledExecutor::wake(int rank) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  State::Fiber* f = s.fibers[static_cast<std::size_t>(rank)].get();
  ++f->wake_token;
  if (f->st == State::FiberState::kParked) {
    f->st = State::FiberState::kReady;
    s.ready.push_back(f);
    s.cv.notify_one();
  }
}

void PooledExecutor::wake_all() {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  for (const std::unique_ptr<State::Fiber>& up : s.fibers) {
    State::Fiber* f = up.get();
    ++f->wake_token;
    if (f->st == State::FiberState::kParked) {
      f->st = State::FiberState::kReady;
      s.ready.push_back(f);
    }
  }
  s.cv.notify_all();
}

std::uint64_t PooledExecutor::wake_token(int rank) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  return s.fibers[static_cast<std::size_t>(rank)]->wake_token;
}

bool PooledExecutor::park(int rank, std::uint64_t token) {
  State& s = *state_;
  State::Fiber* f = s.fibers[static_cast<std::size_t>(rank)].get();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (f->wake_token != token) return false;  // wakeup already arrived
    f->park_token = token;
    f->st = State::FiberState::kParkPending;
  }
  switch_context(f->ctx, *tl_worker_ctx, /*from_dying=*/false);
  // Resumed by a worker (wake or deadlock breaker).
  const bool timed_out = f->timed_out;
  f->timed_out = false;
  return timed_out;
}

}  // namespace rtc::comm
