// Seeded fixture: the exact member ordering the ecdpd daemon shipped
// with before its shutdown use-after-free fix. The pool/server/store
// subsystems are declared BEFORE the state their completion
// callbacks touch, so that state is destroyed first and the pool's
// teardown runs failure callbacks into freed maps. member-destruction-order
// must flag every data member declared after the first worker.

#ifndef ECDPLINT_FIXTURE_BAD_DAEMON_MEMBERS_HH
#define ECDPLINT_FIXTURE_BAD_DAEMON_MEMBERS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

class HttpServer;
class ResultStore;
class ThreadPool;

class BadDaemon
{
  private:
    struct Grid
    {
        std::string id;
        std::size_t remaining = 0; // ok: nested struct, no workers
    };

    // Workers first: everything below dies before they do.
    HttpServer *server_ = nullptr;
    ThreadPool *pool_ = nullptr; // pointer members are fine...
    ThreadPool pool2_;           // ...but a by-value worker is not.

    mutable std::mutex mutex_;                 // BAD
    std::map<std::string, Grid> grids_;        // BAD
    std::map<std::string, std::size_t> quota_; // BAD
    std::uint64_t nextGridId_ = 1;             // BAD

    std::atomic<std::uint64_t> inflight_{0}; // BAD

    mutable std::mutex shutdownMutex_;  // BAD
    std::condition_variable cv_;        // BAD
    bool shutdownRequested_ = false;    // BAD
};

// Positive control: the fixed ordering must NOT be flagged.
class GoodDaemon
{
  private:
    mutable std::mutex mutex_;
    std::map<std::string, int> grids_;
    ThreadPool pool_; // workers declared last: destroyed first
};

#endif
