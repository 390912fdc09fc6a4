/**
 * @file
 * Content-addressed result store with single-flight dedup — the one
 * persistent result store of the tree. The daemon files cells in it
 * (stats JSON, exactly as the worker produced them, under cellKey()),
 * and ExperimentContext spills runs to it when ECDP_RESULT_CACHE is
 * set (encodeRunStats() bytes under runKey()). Both keys go through
 * resultKey(), which folds kStatsSchema.
 *
 * Results are immutable byte strings keyed by a 64-bit content key.
 * The store answers three questions atomically:
 *
 *   - is the result already materialized (memory or disk)?
 *   - is somebody already computing it (attach, don't recompute)?
 *   - am I the first (become the leader and compute exactly once)?
 *
 * so N concurrent identical submissions cost exactly one simulation.
 * Completion callbacks fire outside the store lock, on the thread
 * that completed (or, for cache hits, the caller's thread).
 *
 * The optional spill directory makes the store durable: entries are
 * length-framed, key-stamped files published by atomic rename.
 * Truncated or corrupt files are detected on load, logged, removed
 * and rebuilt — never trusted, never fatal.
 *
 * The in-memory map is bounded (memoryCap entries, insertion-order
 * eviction) so a long-running daemon cannot grow without limit: an
 * evicted entry reloads from the spill directory when one is
 * configured, and otherwise simply becomes a miss that re-simulates
 * under a fresh single flight. With a spill directory, complete()
 * publishes to disk only and memory admits an entry on its first
 * read-back, so memory holds the results that are asked for again,
 * not every cold one.
 *
 * The spill directory itself is bounded the same way (diskCap
 * entries, oldest-spill-first eviction): when a new spill pushes the
 * file count over the cap, the oldest cell-*.bin files are removed.
 * Pre-existing entries found at startup are seeded into the eviction
 * order by file mtime, so a restarted daemon keeps honoring the cap.
 * An evicted file is simply a disk miss that re-simulates.
 */

#ifndef ECDP_SERVER_RESULT_STORE_HH
#define ECDP_SERVER_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "memsim/thread_annotations.hh"

namespace ecdp
{
namespace server
{

// simlint: long-lived
class ResultStore
{
  public:
    using Bytes = std::shared_ptr<const std::string>;

    /**
     * Completion callback: exactly one of @p bytes (success) or
     * @p error (non-empty) is set. May fire before fetchOrAttach
     * returns (cache hit) or later from the completing thread.
     */
    using Ready =
        std::function<void(Bytes bytes, const std::string &error)>;

    /** What fetchOrAttach decided. */
    enum class Role
    {
        /** Result was already materialized; cb has fired. */
        Hit,
        /** Someone else is computing; cb fires on their completion. */
        Follower,
        /** Caller must compute and then complete() or fail(). */
        Leader,
    };

    /** Default bound on in-memory entries. */
    static constexpr std::size_t kDefaultMemoryCap = 4096;

    /**
     * @param dir Spill directory; empty = memory-only.
     * @param memoryCap Max entries held in memory (0 = unbounded).
     * @param diskCap Max spill files kept on disk (0 = unbounded).
     *        Enforced oldest-spill-first; existing files are counted
     *        (and trimmed) at construction.
     */
    explicit ResultStore(std::string dir = "",
                         std::size_t memoryCap = kDefaultMemoryCap,
                         std::size_t diskCap = 0);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** Callbacks (including a Hit's immediate one) fire outside the
     *  store lock — they may re-enter the store. */
    Role fetchOrAttach(std::uint64_t key, Ready cb)
        ECDP_EXCLUDES(mutex_);

    /** Publish @p bytes under @p key and fire every attached cb.
     *  With a spill directory they go to disk only (memory too if the
     *  spill fails); memory admits them on their first read-back. */
    void complete(std::uint64_t key, std::string bytes)
        ECDP_EXCLUDES(mutex_);

    /** Abort the flight: fire every attached cb with @p error. The
     *  key stays uncached, so a later submission retries. */
    void fail(std::uint64_t key, const std::string &error)
        ECDP_EXCLUDES(mutex_);

    /** Abort every in-flight key at once (shutdown drain): fire all
     *  attached cbs with @p error. Nothing is cached. */
    void failAllFlights(const std::string &error)
        ECDP_EXCLUDES(mutex_);

    /** Materialized result, or nullptr (never joins a flight). A
     *  read, not a submission: it counts no hit. */
    Bytes lookup(std::uint64_t key) ECDP_EXCLUDES(mutex_);

    /** @{ Monotonic statistics. memoryHits/diskHits count the
     *  fetchOrAttach() submissions served from memory or disk. */
    std::uint64_t memoryHits() const { return memoryHits_.load(); }
    std::uint64_t diskHits() const { return diskHits_.load(); }
    std::uint64_t dedupAttached() const
    {
        return dedupAttached_.load();
    }
    std::uint64_t leaders() const { return leaders_.load(); }
    std::uint64_t corruptRebuilds() const
    {
        return corruptRebuilds_.load();
    }
    std::uint64_t evicted() const { return evicted_.load(); }
    std::uint64_t diskEvicted() const { return diskEvicted_.load(); }
    /** @} */

    /** Entries materialized in memory (diagnostics). */
    std::size_t size() const ECDP_EXCLUDES(mutex_);

    static std::string entryFileName(std::uint64_t key);

  private:
    struct Flight
    {
        std::vector<Ready> waiters;
    };

    Bytes loadFromDisk(std::uint64_t key) ECDP_EXCLUDES(mutex_);
    /** True when @p bytes are published on disk under @p key. */
    bool spillToDisk(std::uint64_t key, const std::string &bytes)
        ECDP_EXCLUDES(mutex_);
    /** Insert under mutex_, tracking eviction order and enforcing
     *  the cap. Returns the entry actually stored (a racing inserter
     *  may have won). */
    Bytes insertLocked(std::uint64_t key, Bytes bytes)
        ECDP_REQUIRES(mutex_);
    /** Record @p key as on disk and pop victims past diskCap_ into
     *  @p victims (oldest first); the caller unlinks them unlocked. */
    void noteSpilledLocked(std::uint64_t key,
                           std::vector<std::uint64_t> &victims)
        ECDP_REQUIRES(mutex_);
    /** Seed disk bookkeeping from a directory listing (ctor only). */
    void scanSpillDir() ECDP_EXCLUDES(mutex_);

    std::string dir_;
    std::size_t memoryCap_;
    std::size_t diskCap_;

    mutable AnnotatedMutex mutex_;
    std::map<std::uint64_t, Bytes> results_ ECDP_GUARDED_BY(mutex_);
    std::map<std::uint64_t, Flight> flights_ ECDP_GUARDED_BY(mutex_);
    /** Keys of results_ in insertion order; 1:1 with results_. */
    std::deque<std::uint64_t> insertionOrder_
        ECDP_GUARDED_BY(mutex_);
    /** Keys with a spill file on disk, oldest spill first. */
    std::deque<std::uint64_t> diskOrder_ ECDP_GUARDED_BY(mutex_);
    /** Same keys as diskOrder_, for O(log n) membership. */
    std::set<std::uint64_t> diskKnown_ ECDP_GUARDED_BY(mutex_);

    std::atomic<std::uint64_t> memoryHits_{0};
    std::atomic<std::uint64_t> diskHits_{0};
    std::atomic<std::uint64_t> dedupAttached_{0};
    std::atomic<std::uint64_t> leaders_{0};
    std::atomic<std::uint64_t> corruptRebuilds_{0};
    std::atomic<std::uint64_t> evicted_{0};
    std::atomic<std::uint64_t> diskEvicted_{0};
};

} // namespace server
} // namespace ecdp

#endif // ECDP_SERVER_RESULT_STORE_HH
