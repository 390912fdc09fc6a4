/**
 * @file
 * Clang thread-safety annotations for every locked subsystem.
 *
 * The macros wrap clang's `-Wthread-safety` attributes (and expand
 * to nothing on every other compiler), so the relationship between a
 * mutex and the state it guards is part of the type system instead
 * of a comment: a member tagged ECDP_GUARDED_BY(mutex_) read or
 * written without the lock, a *Locked() helper tagged
 * ECDP_REQUIRES(mutex_) called lock-free, or a callback-firing
 * method tagged ECDP_EXCLUDES(mutex_) invoked under it all fail the
 * clang CI build — the exact bug classes (shutdown use-after-free,
 * callback invoked under a lock) PR 9's review had to find by hand.
 *
 * AnnotatedMutex is the tree's only sanctioned mutex type: a
 * CAPABILITY-annotated wrapper that compiles to a plain std::mutex
 * off-clang, locked through the SCOPED_CAPABILITY MutexLock guard
 * (a std::unique_lock underneath, so condition variables wait on
 * native()). simlint's raw-mutex rule forbids a raw std::mutex
 * declaration anywhere else, so new concurrent state cannot dodge
 * the analysis.
 */

#ifndef ECDP_MEMSIM_THREAD_ANNOTATIONS_HH
#define ECDP_MEMSIM_THREAD_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__)
#define ECDP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ECDP_THREAD_ANNOTATION_(x)
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define ECDP_CAPABILITY(x) ECDP_THREAD_ANNOTATION_(capability(x))

/** Marks an RAII guard that acquires in its constructor and releases
 *  in its destructor. */
#define ECDP_SCOPED_CAPABILITY ECDP_THREAD_ANNOTATION_(scoped_lockable)

/** Data member readable/writable only while holding @p x. */
#define ECDP_GUARDED_BY(x) ECDP_THREAD_ANNOTATION_(guarded_by(x))

/** Pointer member whose *pointee* is guarded by @p x. */
#define ECDP_PT_GUARDED_BY(x) ECDP_THREAD_ANNOTATION_(pt_guarded_by(x))

/** Function callable only while already holding the capabilities. */
#define ECDP_REQUIRES(...)                                             \
    ECDP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/** Function that acquires the capabilities and returns holding them. */
#define ECDP_ACQUIRE(...)                                              \
    ECDP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/** Function that releases the held capabilities. */
#define ECDP_RELEASE(...)                                              \
    ECDP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/** Function that acquires the capability when it returns @p result. */
#define ECDP_TRY_ACQUIRE(...)                                          \
    ECDP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/** Function the caller must NOT hold the capabilities around — the
 *  contract for anything that fires user callbacks which may
 *  re-enter and take the same lock. */
#define ECDP_EXCLUDES(...)                                             \
    ECDP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/** Tells the analysis the capability is held from here on (checked
 *  nowhere, trusted): for lambda bodies, which clang analyzes
 *  without the creating scope's lock context. */
#define ECDP_ASSERT_CAPABILITY(...)                                    \
    ECDP_THREAD_ANNOTATION_(assert_capability(__VA_ARGS__))

/** Escape hatch; every use needs a comment saying why. */
#define ECDP_NO_THREAD_SAFETY_ANALYSIS                                 \
    ECDP_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace ecdp
{

/**
 * The tree's mutex type: a std::mutex clang can reason about.
 * Lock it through MutexLock (below), never by hand, so every
 * critical section is a scope the analysis (and a reader) can see.
 */
class ECDP_CAPABILITY("mutex") AnnotatedMutex
{
  public:
    AnnotatedMutex() = default;
    AnnotatedMutex(const AnnotatedMutex &) = delete;
    AnnotatedMutex &operator=(const AnnotatedMutex &) = delete;

    void lock() ECDP_ACQUIRE() { mutex_.lock(); }
    void unlock() ECDP_RELEASE() { mutex_.unlock(); }
    bool try_lock() ECDP_TRY_ACQUIRE(true)
    {
        return mutex_.try_lock();
    }

    /** No-op runtime-wise; promises the analysis this mutex is held.
     *  Use as the first line of a lambda that runs under the lock
     *  (condition-variable predicates, locked visitors). */
    void assertHeld() const ECDP_ASSERT_CAPABILITY() {}

    /** The wrapped mutex — only for MutexLock's unique_lock. */
    std::mutex &native() { return mutex_; }

  private:
    std::mutex mutex_;
};

/**
 * Scoped lock over an AnnotatedMutex. Backed by a std::unique_lock,
 * so condition variables park on native():
 *
 *     MutexLock lock(mutex_);
 *     cv_.wait(lock.native(), [&] { return ready_; });
 *
 * Relockable: unlock()/lock() hand the capability back and forth for
 * the run-outside-the-lock pattern, and the destructor releases only
 * if still held.
 */
class ECDP_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(AnnotatedMutex &mutex) ECDP_ACQUIRE(mutex)
        : lock_(mutex.native())
    {}

    ~MutexLock() ECDP_RELEASE() {}

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    void unlock() ECDP_RELEASE() { lock_.unlock(); }
    void lock() ECDP_ACQUIRE() { lock_.lock(); }

    /** The underlying unique_lock, for condition-variable waits. */
    std::unique_lock<std::mutex> &native() { return lock_; }

  private:
    std::unique_lock<std::mutex> lock_;
};

} // namespace ecdp

#endif // ECDP_MEMSIM_THREAD_ANNOTATIONS_HH
