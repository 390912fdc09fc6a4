#include "server/result_store.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "stats/json.hh"

namespace ecdp
{
namespace server
{

namespace
{

std::string
hexKey(std::uint64_t key)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

} // namespace

ResultStore::ResultStore(std::string dir, std::size_t memoryCap,
                         std::size_t diskCap)
    : dir_(std::move(dir)), memoryCap_(memoryCap), diskCap_(diskCap)
{
    if (!dir_.empty() && diskCap_ != 0)
        scanSpillDir();
}

void
ResultStore::scanSpillDir()
{
    // Collect pre-existing spill files so the cap covers them too:
    // a restarted daemon must not treat yesterday's spill set as
    // free. Sorted by mtime so eviction stays oldest-first across
    // restarts.
    std::vector<std::pair<std::filesystem::file_time_type,
                          std::uint64_t>>
        found;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        // cell-<16 hex digits>.bin, nothing else.
        if (name.size() != 25 || name.rfind("cell-", 0) != 0 ||
            name.compare(21, 4, ".bin") != 0)
            continue;
        std::uint64_t key = 0;
        bool hex = true;
        for (std::size_t i = 5; i < 21; ++i) {
            const char c = name[i];
            int digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = c - 'a' + 10;
            else {
                hex = false;
                break;
            }
            key = (key << 4) | std::uint64_t(digit);
        }
        if (!hex)
            continue;
        std::error_code tec;
        auto mtime = std::filesystem::last_write_time(entry.path(),
                                                      tec);
        if (tec)
            mtime = std::filesystem::file_time_type::min();
        found.emplace_back(mtime, key);
    }
    std::sort(found.begin(), found.end());

    std::vector<std::uint64_t> victims;
    {
        MutexLock lock(mutex_);
        for (const auto &[mtime, key] : found) {
            if (diskKnown_.insert(key).second)
                diskOrder_.push_back(key);
        }
        while (diskOrder_.size() > diskCap_) {
            const std::uint64_t victim = diskOrder_.front();
            diskOrder_.pop_front();
            diskKnown_.erase(victim);
            victims.push_back(victim);
        }
    }
    for (std::uint64_t victim : victims) {
        std::error_code rec;
        std::filesystem::remove(dir_ + "/" + entryFileName(victim),
                                rec);
        diskEvicted_.fetch_add(1);
    }
}

void
ResultStore::noteSpilledLocked(std::uint64_t key,
                               std::vector<std::uint64_t> &victims)
{
    if (diskKnown_.insert(key).second)
        diskOrder_.push_back(key);
    while (diskCap_ != 0 && diskOrder_.size() > diskCap_) {
        const std::uint64_t victim = diskOrder_.front();
        diskOrder_.pop_front();
        diskKnown_.erase(victim);
        victims.push_back(victim);
    }
}

ResultStore::Bytes
ResultStore::insertLocked(std::uint64_t key, Bytes bytes)
{
    auto [it, inserted] = results_.emplace(key, bytes);
    if (!inserted) {
        // Republishing an existing key (complete() after a disk
        // reload, or a racing loader): the bytes are
        // content-addressed, so both copies match — keep the newer.
        it->second = std::move(bytes);
        return it->second;
    }
    insertionOrder_.push_back(key);
    while (memoryCap_ != 0 && results_.size() > memoryCap_) {
        const std::uint64_t victim = insertionOrder_.front();
        insertionOrder_.pop_front();
        results_.erase(victim);
        evicted_.fetch_add(1);
    }
    return bytes;
}

std::string
ResultStore::entryFileName(std::uint64_t key)
{
    return "cell-" + hexKey(key) + ".bin";
}

std::size_t
ResultStore::size() const
{
    MutexLock lock(mutex_);
    return results_.size();
}

ResultStore::Bytes
ResultStore::lookup(std::uint64_t key)
{
    {
        MutexLock lock(mutex_);
        auto it = results_.find(key);
        if (it != results_.end()) {
            memoryHits_.fetch_add(1);
            return it->second;
        }
    }
    return loadFromDisk(key);
}

ResultStore::Role
ResultStore::fetchOrAttach(std::uint64_t key, Ready cb)
{
    // Memory/flight check, then (on miss) a lock-free disk probe,
    // then a re-check: a racing submitter either also probes the
    // disk (harmless double read) or finds our flight entry.
    for (bool probedDisk : {false, true}) {
        Bytes hitBytes;
        {
            MutexLock lock(mutex_);
            auto hit = results_.find(key);
            if (hit != results_.end()) {
                memoryHits_.fetch_add(1);
                hitBytes = hit->second;
            } else {
                auto flight = flights_.find(key);
                if (flight != flights_.end()) {
                    flight->second.waiters.push_back(std::move(cb));
                    dedupAttached_.fetch_add(1);
                    return Role::Follower;
                }
                if (probedDisk) {
                    flights_[key].waiters.push_back(std::move(cb));
                    leaders_.fetch_add(1);
                    return Role::Leader;
                }
            }
        }
        // Callbacks fire outside the lock (they may re-enter).
        if (hitBytes) {
            cb(std::move(hitBytes), "");
            return Role::Hit;
        }
        if (Bytes fromDisk = loadFromDisk(key)) {
            cb(std::move(fromDisk), "");
            return Role::Hit;
        }
    }
    // Unreachable: the second pass always leads or attaches.
    return Role::Leader;
}

void
ResultStore::complete(std::uint64_t key, std::string bytes)
{
    Bytes shared = std::make_shared<const std::string>(
        std::move(bytes));
    spillToDisk(key, *shared);

    std::vector<Ready> waiters;
    {
        MutexLock lock(mutex_);
        insertLocked(key, shared);
        auto it = flights_.find(key);
        if (it != flights_.end()) {
            waiters = std::move(it->second.waiters);
            flights_.erase(it);
        }
    }
    for (Ready &cb : waiters)
        cb(shared, "");
}

void
ResultStore::fail(std::uint64_t key, const std::string &error)
{
    std::vector<Ready> waiters;
    {
        MutexLock lock(mutex_);
        auto it = flights_.find(key);
        if (it != flights_.end()) {
            waiters = std::move(it->second.waiters);
            flights_.erase(it);
        }
    }
    for (Ready &cb : waiters)
        cb(nullptr, error);
}

void
ResultStore::failAllFlights(const std::string &error)
{
    std::map<std::uint64_t, Flight> drained;
    {
        MutexLock lock(mutex_);
        drained.swap(flights_);
    }
    for (auto &[key, flight] : drained) {
        for (Ready &cb : flight.waiters)
            cb(nullptr, error);
    }
}

ResultStore::Bytes
ResultStore::loadFromDisk(std::uint64_t key)
{
    if (dir_.empty())
        return nullptr;
    const std::string path = dir_ + "/" + entryFileName(key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return nullptr; // plain miss

    // Entry layout: one JSON header line carrying the key and the
    // exact payload length, then the raw payload bytes. The frame
    // makes truncation detectable: a partial write can never pass
    // the length check.
    auto corrupt = [&](const std::string &why) -> Bytes {
        std::cerr << "ecdp: result store: corrupt entry " << path
                  << " (" << why << "); removing and rebuilding\n";
        corruptRebuilds_.fetch_add(1);
        in.close();
        std::error_code ec;
        std::filesystem::remove(path, ec);
        // The file is gone; drop it from the disk-cap bookkeeping
        // so the cap slot frees up.
        MutexLock lock(mutex_);
        if (diskKnown_.erase(key)) {
            auto pos = std::find(diskOrder_.begin(),
                                 diskOrder_.end(), key);
            if (pos != diskOrder_.end())
                diskOrder_.erase(pos);
        }
        return nullptr;
    };

    std::string header;
    if (!std::getline(in, header))
        return corrupt("empty file");
    std::optional<JsonValue> parsed = tryParseJson(header);
    if (!parsed)
        return corrupt("unparsable header");
    std::string payload;
    try {
        if (parsed->at("version").asI64() != 1)
            return corrupt("unknown version");
        if (parsed->at("key").asString() != hexKey(key))
            return corrupt("key mismatch");
        std::uint64_t length = parsed->at("bytes").asU64();
        payload.resize(length);
        in.read(payload.data(),
                static_cast<std::streamsize>(length));
        if (static_cast<std::uint64_t>(in.gcount()) != length)
            return corrupt("truncated payload");
        // Exactly the framed bytes and nothing more.
        if (in.peek() != std::char_traits<char>::eof())
            return corrupt("trailing bytes");
    } catch (const JsonError &e) {
        return corrupt(e.what());
    }

    Bytes shared =
        std::make_shared<const std::string>(std::move(payload));
    {
        MutexLock lock(mutex_);
        shared = insertLocked(key, std::move(shared));
    }
    diskHits_.fetch_add(1);
    return shared;
}

void
ResultStore::spillToDisk(std::uint64_t key, const std::string &bytes)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return;
    const std::string path = dir_ + "/" + entryFileName(key);
    std::ostringstream id;
    id << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp = path + ".tmp." + id.str();
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os)
            return;
        os << "{\"version\":1,\"key\":\"" << hexKey(key)
           << "\",\"bytes\":" << bytes.size() << "}\n"
           << bytes;
        if (!os)
            return;
    }
    // Atomic publish: concurrent daemons (or a reader mid-crash)
    // never observe a half-written entry.
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return;
    }

    // Bookkeep the new file and enforce the disk cap. Victims are
    // chosen under the lock but unlinked outside it: filesystem
    // latency must not serialize the whole store.
    std::vector<std::uint64_t> victims;
    {
        MutexLock lock(mutex_);
        noteSpilledLocked(key, victims);
    }
    for (std::uint64_t victim : victims) {
        std::error_code rec;
        std::filesystem::remove(dir_ + "/" + entryFileName(victim),
                                rec);
        diskEvicted_.fetch_add(1);
    }
}

} // namespace server
} // namespace ecdp
