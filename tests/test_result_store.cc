// The content-addressed single-flight result store: exactly one
// leader per key under concurrency, follower fan-out, disk spill and
// reload, and the corrupt-entry detect/log/rebuild path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/result_store.hh"

namespace
{

using namespace ecdp::server;

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ResultStore, LeaderComputesThenHitsServeFromMemory)
{
    ResultStore store;
    std::string got;
    ResultStore::Role role = store.fetchOrAttach(
        7, [&](ResultStore::Bytes bytes, const std::string &error) {
            ASSERT_TRUE(bytes);
            EXPECT_EQ(error, "");
            got = *bytes;
        });
    ASSERT_EQ(role, ResultStore::Role::Leader);
    EXPECT_EQ(store.leaders(), 1u);
    store.complete(7, "payload");
    EXPECT_EQ(got, "payload");

    // Second fetch is a memory hit whose callback fires inline.
    got.clear();
    role = store.fetchOrAttach(
        7, [&](ResultStore::Bytes bytes, const std::string &) {
            got = *bytes;
        });
    EXPECT_EQ(role, ResultStore::Role::Hit);
    EXPECT_EQ(got, "payload");
    EXPECT_EQ(store.memoryHits(), 1u);
    EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, ExactlyOneLeaderAmongConcurrentFetches)
{
    // N threads race fetchOrAttach on the same key while the leader's
    // completion is deliberately delayed until every thread has
    // attached — the single-flight core of the daemon.
    ResultStore store;
    constexpr int kThreads = 16;
    std::atomic<int> leaders{0};
    std::atomic<int> attached{0};
    std::atomic<int> delivered{0};
    std::mutex mutex;
    std::condition_variable cv;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            ResultStore::Role role = store.fetchOrAttach(
                42, [&](ResultStore::Bytes bytes,
                        const std::string &error) {
                    EXPECT_TRUE(bytes);
                    EXPECT_EQ(error, "");
                    if (bytes && *bytes == "the-one-result")
                        delivered.fetch_add(1);
                });
            if (role == ResultStore::Role::Leader) {
                leaders.fetch_add(1);
                // Wait for every other thread to attach before
                // completing, so none of them can be a memory Hit.
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] {
                    return attached.load() == kThreads - 1;
                });
                store.complete(42, "the-one-result");
            } else {
                EXPECT_EQ(role, ResultStore::Role::Follower);
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    attached.fetch_add(1);
                }
                cv.notify_one();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(leaders.load(), 1);
    EXPECT_EQ(delivered.load(), kThreads);
    EXPECT_EQ(store.leaders(), 1u);
    EXPECT_EQ(store.dedupAttached(), std::uint64_t(kThreads - 1));
}

TEST(ResultStore, FailedFlightLeavesKeyUncachedForRetry)
{
    ResultStore store;
    std::string firstError;
    ResultStore::Role role = store.fetchOrAttach(
        9, [&](ResultStore::Bytes bytes, const std::string &error) {
            EXPECT_FALSE(bytes);
            firstError = error;
        });
    ASSERT_EQ(role, ResultStore::Role::Leader);

    std::string followerError;
    EXPECT_EQ(store.fetchOrAttach(
                  9,
                  [&](ResultStore::Bytes, const std::string &error) {
                      followerError = error;
                  }),
              ResultStore::Role::Follower);

    store.fail(9, "worker crashed");
    EXPECT_EQ(firstError, "worker crashed");
    EXPECT_EQ(followerError, "worker crashed");
    EXPECT_FALSE(store.lookup(9));

    // A later submission must get to retry as a fresh leader.
    EXPECT_EQ(store.fetchOrAttach(
                  9, [](ResultStore::Bytes, const std::string &) {}),
              ResultStore::Role::Leader);
    store.complete(9, "second try");
    ASSERT_TRUE(store.lookup(9));
    EXPECT_EQ(*store.lookup(9), "second try");
}

TEST(ResultStore, LookupCountsNoHit)
{
    // Hits count served submissions; lookup() is a read of a result
    // (the daemon renders a grid's results with it), so neither a
    // memory entry nor a disk-only entry moves a counter.
    const std::string dir = freshDir("ecdp_store_lookup");
    {
        ResultStore writer(dir);
        writer.fetchOrAttach(
            1, [](ResultStore::Bytes, const std::string &) {});
        writer.complete(1, "on disk");
    }
    ResultStore store(dir);
    store.fetchOrAttach(2,
                        [](ResultStore::Bytes, const std::string &) {});
    store.complete(2, "in memory");

    ASSERT_TRUE(store.lookup(2));
    EXPECT_EQ(*store.lookup(2), "in memory");
    ASSERT_TRUE(store.lookup(1));
    EXPECT_EQ(*store.lookup(1), "on disk");
    EXPECT_EQ(store.memoryHits(), 0u);
    EXPECT_EQ(store.diskHits(), 0u);
}

TEST(ResultStore, SpillsToDiskAndReloadsInFreshStore)
{
    const std::string dir = freshDir("ecdp_store_spill");
    const std::string payload = "{\"workload\":\"mst\"}";
    {
        ResultStore store(dir);
        ASSERT_EQ(store.fetchOrAttach(0xabcdef,
                                      [](ResultStore::Bytes,
                                         const std::string &) {}),
                  ResultStore::Role::Leader);
        store.complete(0xabcdef, payload);
    }
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) /
        ResultStore::entryFileName(0xabcdef)));

    // A brand-new store over the same directory serves the entry
    // from disk without any flight.
    ResultStore reopened(dir);
    std::string got;
    EXPECT_EQ(reopened.fetchOrAttach(
                  0xabcdef,
                  [&](ResultStore::Bytes bytes, const std::string &) {
                      got = *bytes;
                  }),
              ResultStore::Role::Hit);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(reopened.diskHits(), 1u);
}

TEST(ResultStore, EntryFileNameEncodesKeyAsHex16)
{
    EXPECT_EQ(ResultStore::entryFileName(0x1a2b),
              "cell-0000000000001a2b.bin");
    EXPECT_EQ(ResultStore::entryFileName(~0ull),
              "cell-ffffffffffffffff.bin");
}

TEST(ResultStore, CorruptDiskEntryIsRemovedAndRebuilt)
{
    const std::string dir = freshDir("ecdp_store_corrupt");
    const std::uint64_t key = 0x77;
    {
        ResultStore store(dir);
        store.fetchOrAttach(
            key, [](ResultStore::Bytes, const std::string &) {});
        store.complete(key, "good bytes");
    }
    const std::filesystem::path file =
        std::filesystem::path(dir) / ResultStore::entryFileName(key);
    ASSERT_TRUE(std::filesystem::exists(file));

    // Truncate the entry mid-payload: the fresh store must detect
    // it, drop the file and hand the caller a Leader role so the
    // result is rebuilt rather than trusted.
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << "cell";
    }
    ResultStore reopened(dir);
    EXPECT_EQ(reopened.fetchOrAttach(
                  key, [](ResultStore::Bytes, const std::string &) {}),
              ResultStore::Role::Leader);
    EXPECT_EQ(reopened.corruptRebuilds(), 1u);
    EXPECT_FALSE(std::filesystem::exists(file));

    reopened.complete(key, "rebuilt");
    EXPECT_TRUE(std::filesystem::exists(file));
    ResultStore third(dir);
    ASSERT_TRUE(third.lookup(key));
    EXPECT_EQ(*third.lookup(key), "rebuilt");
}

TEST(ResultStore, KeyStampMismatchCountsAsCorrupt)
{
    // A file whose embedded key disagrees with its name (e.g. a
    // botched manual copy) must also be rejected and rebuilt.
    const std::string dir = freshDir("ecdp_store_stamp");
    const std::uint64_t key = 0x1234;
    {
        ResultStore store(dir);
        store.fetchOrAttach(
            key, [](ResultStore::Bytes, const std::string &) {});
        store.complete(key, "stamped");
    }
    const std::filesystem::path wrongName =
        std::filesystem::path(dir) /
        ResultStore::entryFileName(key + 1);
    std::filesystem::copy_file(
        std::filesystem::path(dir) / ResultStore::entryFileName(key),
        wrongName);

    ResultStore reopened(dir);
    EXPECT_FALSE(reopened.lookup(key + 1));
    EXPECT_EQ(reopened.corruptRebuilds(), 1u);
}

TEST(ResultStore, MemoryCapEvictsOldestInsertionFirst)
{
    // Memory-only store bounded to 2 entries: the third insert
    // evicts the oldest, which then misses and re-leads.
    ResultStore store("", 2);
    for (std::uint64_t key : {1, 2, 3}) {
        store.fetchOrAttach(
            key, [](ResultStore::Bytes, const std::string &) {});
        store.complete(key, "r" + std::to_string(key));
    }
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.evicted(), 1u);
    EXPECT_FALSE(store.lookup(1)); // the oldest went
    ASSERT_TRUE(store.lookup(2));
    ASSERT_TRUE(store.lookup(3));
    EXPECT_EQ(store.fetchOrAttach(
                  1, [](ResultStore::Bytes, const std::string &) {}),
              ResultStore::Role::Leader);
}

TEST(ResultStore, EvictedEntryReloadsFromDisk)
{
    // With a spill directory the cap only bounds memory: an evicted
    // entry comes back as a disk hit, not a recompute.
    const std::string dir = freshDir("ecdp_store_cap");
    ResultStore store(dir, 1);
    for (std::uint64_t key : {10, 11}) {
        store.fetchOrAttach(
            key, [](ResultStore::Bytes, const std::string &) {});
        store.complete(key, "k" + std::to_string(key));
    }
    // Read both back: 10 is admitted to memory, then displaced by 11.
    for (std::uint64_t key : {10, 11}) {
        EXPECT_EQ(store.fetchOrAttach(
                      key, [](ResultStore::Bytes, const std::string &) {}),
                  ResultStore::Role::Hit);
    }
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.evicted(), 1u);

    std::string got;
    EXPECT_EQ(store.fetchOrAttach(
                  10,
                  [&](ResultStore::Bytes bytes, const std::string &) {
                      got = *bytes;
                  }),
              ResultStore::Role::Hit);
    EXPECT_EQ(got, "k10");
    EXPECT_EQ(store.diskHits(), 3u);
    // The reload displaced key 11 in memory (cap still holds)...
    EXPECT_EQ(store.size(), 1u);
    // ...which is itself still durable on disk.
    ASSERT_TRUE(store.lookup(11));
    EXPECT_EQ(*store.lookup(11), "k11");
}

TEST(ResultStore, SpilledResultsEnterMemoryOnlyWhenReadBack)
{
    // With a spill directory, complete() publishes to disk only: a
    // cold result nobody asks for again costs no memory. The first
    // submission of a key is a disk hit that admits it, the next a
    // memory hit.
    const std::string dir = freshDir("ecdp_store_disk_first");
    ResultStore store(dir);
    for (std::uint64_t key = 1; key <= 8; ++key) {
        store.fetchOrAttach(
            key, [](ResultStore::Bytes, const std::string &) {});
        store.complete(key, "r" + std::to_string(key));
    }
    EXPECT_EQ(store.size(), 0u);

    std::string got;
    auto keep = [&](ResultStore::Bytes bytes, const std::string &) {
        got = *bytes;
    };
    EXPECT_EQ(store.fetchOrAttach(3, keep), ResultStore::Role::Hit);
    EXPECT_EQ(got, "r3");
    EXPECT_EQ(store.diskHits(), 1u);
    EXPECT_EQ(store.memoryHits(), 0u);
    EXPECT_EQ(store.size(), 1u);

    got.clear();
    EXPECT_EQ(store.fetchOrAttach(3, keep), ResultStore::Role::Hit);
    EXPECT_EQ(got, "r3");
    EXPECT_EQ(store.diskHits(), 1u);
    EXPECT_EQ(store.memoryHits(), 1u);
}

TEST(ResultStore, FailedSpillKeepsTheResultInMemory)
{
    // A spill directory that cannot be created (a file is in the
    // way): the result stays served from memory.
    const std::string dir = freshDir("ecdp_store_unwritable");
    std::filesystem::create_directories(dir);
    const std::string blocked = dir + "/blocked";
    std::ofstream(blocked) << "not a directory";
    ResultStore store(blocked + "/spill");
    store.fetchOrAttach(5, [](ResultStore::Bytes, const std::string &) {});
    store.complete(5, "kept");
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.fetchOrAttach(
                  5, [](ResultStore::Bytes, const std::string &) {}),
              ResultStore::Role::Hit);
    EXPECT_EQ(store.memoryHits(), 1u);
}

TEST(ResultStore, DiskCapEvictsOldestSpillFirst)
{
    // Disk bounded to 2 spill files: the third completion unlinks
    // the oldest file, counted by diskEvicted().
    const std::string dir = freshDir("ecdp_store_disk_cap");
    ResultStore store(dir, ResultStore::kDefaultMemoryCap, 2);
    for (std::uint64_t key : {1, 2, 3}) {
        store.fetchOrAttach(
            key, [](ResultStore::Bytes, const std::string &) {});
        store.complete(key, "d" + std::to_string(key));
    }
    EXPECT_EQ(store.diskEvicted(), 1u);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/" + ResultStore::entryFileName(1)));
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + ResultStore::entryFileName(2)));
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + ResultStore::entryFileName(3)));
}

TEST(ResultStore, DiskCapTrimsPreexistingFilesAtStartup)
{
    // A restarted daemon inherits yesterday's spill set: the startup
    // scan seeds the eviction order by file mtime and trims straight
    // down to the cap.
    const std::string dir = freshDir("ecdp_store_disk_scan");
    {
        ResultStore store(dir); // unbounded: leave 3 files behind
        for (std::uint64_t key : {21, 22, 23}) {
            store.fetchOrAttach(
                key, [](ResultStore::Bytes, const std::string &) {});
            store.complete(key, "p" + std::to_string(key));
        }
    }
    // Stamp distinct mtimes so oldest-first is deterministic even on
    // coarse filesystem clocks: 21 oldest, 23 newest.
    const auto now = std::filesystem::file_time_type::clock::now();
    for (std::uint64_t key : {21, 22, 23}) {
        std::filesystem::last_write_time(
            dir + "/" + ResultStore::entryFileName(key),
            now - std::chrono::seconds(10 * (24 - key)));
    }

    ResultStore reopened(dir, ResultStore::kDefaultMemoryCap, 1);
    EXPECT_EQ(reopened.diskEvicted(), 2u);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/" + ResultStore::entryFileName(21)));
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/" + ResultStore::entryFileName(22)));
    ASSERT_TRUE(reopened.lookup(23));
    EXPECT_EQ(*reopened.lookup(23), "p23");
}

TEST(ResultStore, DiskEvictedEntryMissesAndReleads)
{
    // Evicted from memory AND disk: the key is simply gone, and the
    // next submission re-leads (re-simulates) instead of crashing on
    // a dangling bookkeeping entry.
    const std::string dir = freshDir("ecdp_store_disk_gone");
    ResultStore store(dir, 1, 1);
    for (std::uint64_t key : {31, 32}) {
        store.fetchOrAttach(
            key, [](ResultStore::Bytes, const std::string &) {});
        store.complete(key, "g" + std::to_string(key));
    }
    EXPECT_EQ(store.diskEvicted(), 1u);
    EXPECT_FALSE(store.lookup(31));
    EXPECT_EQ(store.fetchOrAttach(
                  31, [](ResultStore::Bytes, const std::string &) {}),
              ResultStore::Role::Leader);
}

TEST(ResultStore, CorruptEntryRemovalFreesItsDiskCapSlot)
{
    // A corrupt file is removed on load; its bookkeeping slot must
    // free up too, or the cap would evict a healthy file to make
    // room for a ghost.
    const std::string dir = freshDir("ecdp_store_disk_corrupt");
    ResultStore store(dir, 1, 2);
    for (std::uint64_t key : {41, 42}) {
        store.fetchOrAttach(
            key, [](ResultStore::Bytes, const std::string &) {});
        store.complete(key, "c" + std::to_string(key));
    }
    {
        std::ofstream os(dir + "/" + ResultStore::entryFileName(41),
                         std::ios::binary | std::ios::trunc);
        os << "garbage";
    }
    EXPECT_FALSE(store.lookup(41)); // disk only -> corrupt
    EXPECT_EQ(store.corruptRebuilds(), 1u);

    store.fetchOrAttach(43,
                        [](ResultStore::Bytes, const std::string &) {});
    store.complete(43, "c43");
    // Two files on disk (42, 43) fit the cap: nothing evicted.
    EXPECT_EQ(store.diskEvicted(), 0u);
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + ResultStore::entryFileName(42)));
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + ResultStore::entryFileName(43)));
}

TEST(ResultStore, FailAllFlightsAbortsEveryWaiter)
{
    ResultStore store;
    std::vector<std::string> errors;
    store.fetchOrAttach(1, [&](ResultStore::Bytes bytes,
                               const std::string &error) {
        EXPECT_FALSE(bytes);
        errors.push_back(error);
    });
    store.fetchOrAttach(1, [&](ResultStore::Bytes,
                               const std::string &error) {
        errors.push_back(error);
    });
    store.fetchOrAttach(2, [&](ResultStore::Bytes,
                               const std::string &error) {
        errors.push_back(error);
    });

    store.failAllFlights("daemon shutting down");
    ASSERT_EQ(errors.size(), 3u);
    for (const std::string &error : errors)
        EXPECT_EQ(error, "daemon shutting down");

    // Nothing was cached; both keys retry as fresh leaders.
    EXPECT_FALSE(store.lookup(1));
    EXPECT_EQ(store.fetchOrAttach(
                  1, [](ResultStore::Bytes, const std::string &) {}),
              ResultStore::Role::Leader);
}

TEST(ResultStore, LookupNeverJoinsAFlight)
{
    ResultStore store;
    store.fetchOrAttach(5,
                        [](ResultStore::Bytes, const std::string &) {});
    EXPECT_FALSE(store.lookup(5)); // in flight, not materialized
    store.complete(5, "done");
    ASSERT_TRUE(store.lookup(5));
    EXPECT_EQ(*store.lookup(5), "done");
}

} // namespace
