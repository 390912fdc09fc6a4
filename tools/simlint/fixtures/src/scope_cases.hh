// Seeded fixture for the tokenizer and structural pass behind the
// scope-aware rules (callback-under-lock, member-destruction-order,
// unbounded-container). Every construct that derails a token-level
// tool sits before a member the rules must still find, so a lost
// brace or a stray name changes ../expected.txt. Lines marked BAD are
// findings; every other line must stay silent. (Never built; only
// scanned.)

#ifndef SIMLINT_FIXTURE_SCOPE_CASES_HH
#define SIMLINT_FIXTURE_SCOPE_CASES_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

class ThreadPool;

// Literals, comments and preprocessor lines hide their braces and
// names: each method body below is skipped whole only if its one
// unbalanced-looking brace is recognised as text.
class Literals
{
  public:
    const char *
    rawBraces() const
    {
        return R"(a " { // x)";
    }

    const char *
    delimitedRaw() const
    {
        return R"ecdp(a )" { b)ecdp";
    }

    bool
    opens(char c) const
    {
        return c == '{';
    }

    const char *
    escaped(char *quote) const
    {
        *quote = '\'';
        return "a\"b{";
    }

  private:
    ThreadPool pool_;
    // int commentedOut_;
    /* int blockCommented_; { */
#define FIXTURE_BLOCK(x) \
    { int macroMember_;
    std::uint64_t big_ = 1'000'000'000; // BAD: after pool_
    int afterTraps_ = 0;                // BAD: after pool_
};

// Members behind nested templates and attributes are found; functions,
// operators, lambdas and a nested class's members are not this
// class's members.
// simlint: long-lived
class Members
{
    ThreadPool pool_;

  public:
    Members(const Members &) = delete;
    Members &operator=(const Members &) = delete;
    void stop() ECDP_EXCLUDES(mutex_);
    unsigned count() const;
    unsigned size() const { return n_; }

    void
    run()
    {
        MutexLock lock(mutex_);
        auto ready = [this] { return queue_.size() > 0; };
        ready();
    }

  private:
    struct Job
    {
        ThreadPool pool;
        std::vector<int> scratch; // BAD: after Job's pool, not long-lived
    };

    std::map<std::string, std::shared_ptr<Job>> cells_ // BAD x2
        ECDP_GUARDED_BY(mutex_);
    std::atomic<std::uint64_t> hits_{0};          // BAD: after pool_
    std::vector<std::pair<int, int>> edges_ = {}; // BAD x2
    AnnotatedMutex mutex_;                        // BAD: after pool_
    std::deque<int> queue_;                       // BAD x2
    unsigned n_ = 0;                              // BAD: after pool_
};

// simlint: long-lived
/**
 * The tag binds through a whole comment block...
 */
class TaggedAboveDocs
{
    std::vector<int> taggedLog_; // BAD: never shrinks
};

// simlint: long-lived

// ...but not across a blank line.
class BlankLineUnbinds
{
    std::vector<int> untaggedLog_;
};

// Erase paths are found behind a subscript and through '->'.
// simlint: long-lived
class ErasePaths
{
  public:
    void
    drop(int key)
    {
        byKey_[key].clear();
        owners_->pop_front();
    }

  private:
    std::map<int, std::vector<int>> byKey_;
    std::unique_ptr<std::deque<int>> owners_;
};

using Notify = std::function<void(std::string)>;
using Hash = std::hash<int>;

// Callback members (alias or std::function), callback parameters,
// and what is no callback: a callable of a non-function alias, a
// function returning a callback, a qualified call.
class Callbacks
{
  public:
    Notify makeNotify();

    void
    fire(const Notify &then)
    {
        MutexLock lock(mutex_);
        notify_("x");     // BAD: alias-typed member
        raw_();           // BAD: std::function member
        then("x");        // BAD: callback parameter
        hash_(1);         // ok: Hash is no callback alias
        makeNotify();     // ok: returns a callback, is none
        Other::notify_(); // ok: qualified, not this value
    }

  private:
    AnnotatedMutex mutex_;
    Notify notify_;
    std::function<void()> raw_;
    Hash hash_;
};

// The relockable guard: the gap between unlock() and lock() is not
// under the lock.
inline void
runJob(AnnotatedMutex &m, Notify job)
{
    MutexLock lock(m);
    lock.unlock();
    job("gap"); // ok: the guard is not held
    lock.lock();
    job("held"); // BAD: held again
}

#endif // SIMLINT_FIXTURE_SCOPE_CASES_HH
