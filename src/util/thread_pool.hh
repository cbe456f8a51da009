/**
 * @file
 * A minimal fixed-size thread pool with a parallel-for helper.
 *
 * The simulation core fans independent work items (the FP32 and INT8
 * halves of each group's training step, GEMM row blocks, conv
 * samples) across the pool. Callers are
 * responsible for keeping results bit-reproducible regardless of pool
 * size: each parallel item must write disjoint outputs, and any
 * cross-item accumulation must be folded serially in a fixed order
 * after the join (see DESIGN.md ch. 9).
 *
 * Safety properties added for the parallel core:
 *  - exceptions thrown by submitted tasks are captured and rethrown
 *    from wait() / parallelFor() on the calling thread (first wins);
 *  - parallelFor() called from inside a pool worker runs inline on
 *    the calling thread (nested-use deadlock guard) -- nested
 *    parallelism degrades to serial instead of deadlocking;
 *  - the process-wide pool can be resized between parallel regions
 *    via setGlobalThreads(), which tests use to prove serial-vs-N
 *    bit-exactness in one process.
 */

#ifndef SOCFLOW_UTIL_THREAD_POOL_HH
#define SOCFLOW_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace socflow {

/**
 * Fixed-size worker pool. Tasks are arbitrary void() callables; the
 * pool drains and joins on destruction.
 */
class ThreadPool
{
  public:
    /** @param num_threads 0 selects hardware_concurrency(). */
    explicit ThreadPool(std::size_t num_threads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Enqueue one task for asynchronous execution. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. If any task
     * threw, the first captured exception is rethrown here.
     */
    void wait();

    /** Number of worker threads. */
    std::size_t size() const { return workers.size(); }

    /**
     * Run fn(i) for i in [0, n) across the pool and block until all
     * iterations complete. Each of min(n, size()) workers claims
     * iterations one at a time from a shared counter until none are
     * left; the calling thread only waits. Runs inline (serially)
     * when n <= 1, when the pool has a single worker, or when called
     * from inside a pool worker (nested-use guard). Rethrows the
     * first task exception.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** True when the calling thread is a worker of *any* pool. */
    static bool inWorkerThread();

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::queue<std::function<void()>> tasks;
    std::mutex mutex;
    std::condition_variable taskReady;
    std::condition_variable allDone;
    std::size_t inFlight = 0;
    bool stopping = false;
    std::exception_ptr firstError; //!< guarded by mutex
};

/**
 * Process-wide shared pool for the simulation core. Created on first
 * use with setGlobalThreads()'s last value, else the SOCFLOW_THREADS
 * environment variable, else hardware_concurrency().
 */
ThreadPool &globalThreadPool();

/**
 * Resize the process-wide pool: joins the old workers and recreates
 * the pool with n threads (0 = hardware_concurrency) on next use.
 * Must not be called while parallel work is in flight.
 */
void setGlobalThreads(std::size_t n);

/** Worker count the process-wide pool has (or will have on first use). */
std::size_t globalThreads();

} // namespace socflow

#endif // SOCFLOW_UTIL_THREAD_POOL_HH
