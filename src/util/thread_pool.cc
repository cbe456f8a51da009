#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace socflow {

namespace {

// Set while a thread is executing inside any pool's workerLoop; the
// nested-use guard in parallelFor keys off it.
thread_local bool tlsPoolWorker = false;

std::size_t
hardwareThreads()
{
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

} // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0)
        num_threads = hardwareThreads();
    workers.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        stopping = true;
    }
    taskReady.notify_all();
    for (auto &t : workers)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        tasks.push(std::move(task));
        ++inFlight;
    }
    taskReady.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mutex);
        allDone.wait(lock, [this] { return inFlight == 0; });
        err = firstError;
        firstError = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    // Inline fast path: trivial sizes, a serial pool, or a nested
    // call from inside a worker (dispatching from a worker would
    // deadlock wait() against our own queue slot).
    if (n == 1 || workers.size() <= 1 || tlsPoolWorker) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // One task per worker (at most n); each claims items one at a
    // time from a shared counter, so uneven items balance across the
    // workers instead of queueing behind a slow neighbour in a fixed
    // block. Which worker runs an item never changes what it writes.
    std::atomic<std::size_t> next{0};
    const std::size_t tasks = std::min(n, workers.size());
    for (std::size_t t = 0; t < tasks; ++t) {
        submit([&fn, &next, n] {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                fn(i);
        });
    }
    wait();
}

bool
ThreadPool::inWorkerThread()
{
    return tlsPoolWorker;
}

void
ThreadPool::workerLoop()
{
    tlsPoolWorker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            taskReady.wait(lock,
                           [this] { return stopping || !tasks.empty(); });
            if (tasks.empty()) {
                if (stopping)
                    return;
                continue;
            }
            task = std::move(tasks.front());
            tasks.pop();
        }
        try {
            task();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mutex);
            if (!firstError)
                firstError = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mutex);
            if (--inFlight == 0)
                allDone.notify_all();
        }
    }
}

namespace {

std::mutex gPoolMutex;
// Intentionally leaked: an atexit destructor would join() the
// workers, and in a fork()ed child (gtest fast-style death tests,
// crash handlers) those threads no longer exist -- the join blocks
// forever on a phantom tid. Process exit reclaims everything anyway;
// setGlobalThreads() still deletes explicitly, where the workers are
// real and joinable.
ThreadPool *gPool = nullptr;
std::size_t gPoolThreads = 0; // 0 = unset -> env -> hardware

std::size_t
configuredThreads()
{
    if (gPoolThreads != 0)
        return gPoolThreads;
    if (const char *env = std::getenv("SOCFLOW_THREADS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<std::size_t>(v);
    }
    return hardwareThreads();
}

} // namespace

ThreadPool &
globalThreadPool()
{
    std::lock_guard<std::mutex> lock(gPoolMutex);
    if (!gPool)
        gPool = new ThreadPool(configuredThreads());
    return *gPool;
}

void
setGlobalThreads(std::size_t n)
{
    std::lock_guard<std::mutex> lock(gPoolMutex);
    gPoolThreads = n;
    delete gPool; // joins old workers; recreated lazily
    gPool = nullptr;
}

std::size_t
globalThreads()
{
    std::lock_guard<std::mutex> lock(gPoolMutex);
    if (gPool)
        return gPool->size();
    return configuredThreads();
}

} // namespace socflow
