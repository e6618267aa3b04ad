// Rank executor — how the P virtual ranks of a World map onto OS
// threads.
//
// Every rank runs as a cooperatively-scheduled fiber (ucontext)
// multiplexed onto a bounded worker pool, so P=1024–4096 ranks fit in
// one process: a rank that blocks in recv/barrier *parks* — it yields
// its worker to another runnable rank — and is re-readied when a
// message arrives for it.
//
// Virtual time is unaffected by the worker count: clocks are advanced
// only by the message DAG (send/recv/compute charges), never by real
// scheduling, so a run at workers = 1 is bit-identical to the same run
// at any other worker count.
//
// Park/wake protocol (the part that has to be exactly right):
//
//  * every fiber carries a wake token (a counter). A blocking rank
//    reads the token, re-checks its predicate (mailbox, barrier
//    generation), and calls park(rank, token). Any wake() in between
//    bumps the token, so park() returns immediately instead of losing
//    the wakeup.
//  * a parking fiber cannot be handed to another worker while it is
//    still running on this one (two workers on one stack = corruption).
//    park() therefore only *marks* the fiber park-pending and switches
//    back to its worker; the worker — now safely off the fiber's stack
//    — commits the transition under the pool lock: token moved →
//    straight back to the ready queue, else → parked.
//
// Deadlock: with every rank a fiber, "all live fibers parked, none
// ready, none running" is a positive proof that no message inside the
// run can ever unpark them. The pool honors the World's recv timeout
// as a grace period (external wakes may still arrive), then resumes
// every parked fiber with a timed-out flag; blocked receives surface a
// CommError(kTimeout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace rtc::comm {

/// The one executor there is. Kept as an enum so condition lines that
/// print the executor name keep compiling.
enum class ExecutorKind {
  kPooled,  ///< fibers on a bounded worker pool
};

[[nodiscard]] std::string to_string(ExecutorKind kind);

struct ExecutorConfig {
  ExecutorKind kind = ExecutorKind::kPooled;

  /// Worker threads. 0 = min(P, hardware_concurrency).
  int workers = 0;
};

/// Resolved default worker count (0 -> concrete value) for `ranks`.
[[nodiscard]] int default_pool_workers(int ranks);

/// Per-fiber stack bytes (plus one guard page): 256 KiB — comfortably
/// above what any compositor needs, small enough that P=4096 costs
/// ~1 GiB of *reservation* (MAP_NORESERVE: pages are only backed when
/// touched).
inline constexpr std::size_t kFiberStackBytes = std::size_t{256} * 1024;

/// The fiber pool. One instance lives for the duration of a single
/// World::run; the World calls wake()/park() from inside rank bodies
/// (which execute *on* fibers) and deliver paths.
class PooledExecutor {
 public:
  PooledExecutor(int ranks, const ExecutorConfig& cfg);
  ~PooledExecutor();

  PooledExecutor(const PooledExecutor&) = delete;
  PooledExecutor& operator=(const PooledExecutor&) = delete;

  /// Grace period (seconds) between detecting a deadlock and breaking
  /// it — the World's per-recv wall timeout.
  void set_deadlock_grace(double seconds);

  /// Runs rank_main(r) for every rank on the worker pool; returns when
  /// all fibers finished. rank_main must not leak exceptions (the
  /// caller wraps bodies and records errors per rank).
  void run(const std::function<void(int)>& rank_main);

  /// Bumps `rank`'s wake token; re-readies it if parked. Callable from
  /// any fiber or thread.
  void wake(int rank);

  /// wake() for every rank (barrier releases, death notifications).
  void wake_all();

  /// Current wake token for `rank`. Read this *before* re-checking the
  /// blocking predicate, then pass it to park().
  [[nodiscard]] std::uint64_t wake_token(int rank);

  /// Parks the calling fiber (which must be `rank`) until a wake
  /// arrives. Returns immediately if the token already moved. Returns
  /// true if the fiber was resumed by the deadlock breaker rather than
  /// a wake — the caller should surface a timeout error.
  [[nodiscard]] bool park(int rank, std::uint64_t token);

  struct State;

 private:
  std::unique_ptr<State> state_;
};

}  // namespace rtc::comm
