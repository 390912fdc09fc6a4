#include "runner/result_cache.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "stats/json.hh"

namespace ecdp
{
namespace runner
{

namespace
{

std::string
hashHex(std::uint64_t hash)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

/** Keep workload names filesystem-safe (they are alnum today). */
std::string
sanitize(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '-' && c != '_' && c != '.') {
            c = '_';
        }
    }
    return out;
}

void
writeDouble(std::ostream &os, double v)
{
    std::ostringstream ss;
    ss.precision(std::numeric_limits<double>::max_digits10);
    ss << v;
    os << ss.str();
}

} // namespace

std::unique_ptr<ResultCache>
ResultCache::fromEnv()
{
    const char *dir = std::getenv("ECDP_RESULT_CACHE");
    if (!dir || !*dir)
        return nullptr;
    return std::make_unique<ResultCache>(dir);
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::entryPath(const std::string &name,
                       std::uint64_t hash) const
{
    return dir_ + "/" + sanitize(name) + "-" + hashHex(hash) +
           ".json";
}

std::optional<RunStats>
ResultCache::load(const std::string &name, std::uint64_t hash) const
{
    const std::string path = entryPath(name, hash);
    std::ifstream in(path);
    if (!in)
        return std::nullopt; // plain miss
    std::ostringstream buf;
    buf << in.rdbuf();
    in.close();

    // A truncated or corrupt entry (killed process, full disk,
    // botched copy) must never poison the cache: warn, drop the
    // file and report a miss so the result is rebuilt cleanly.
    auto corrupt = [&](const std::string &why) {
        std::cerr << "ecdp: result cache: corrupt entry " << path
                  << " (" << why << "); removing and rebuilding\n";
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return std::nullopt;
    };

    std::optional<JsonValue> parsed = tryParseJson(buf.str());
    if (!parsed)
        return corrupt("unparsable JSON");
    try {
        const JsonValue &doc = *parsed;
        // A version mismatch is a stale format, not corruption:
        // stay silent and leave the file for whoever wrote it.
        if (doc.at("version").asI64() != kVersion)
            return std::nullopt;
        // The file name embeds workload and hash, so a disagreeing
        // stamp means the bytes are not what the name promises.
        if (doc.at("configHash").asString() != hashHex(hash))
            return corrupt("configHash stamp mismatch");
        if (doc.at("workload").asString() != name)
            return corrupt("workload stamp mismatch");

        RunStats stats;
        stats.workload = name;
        stats.cycles = Cycle{doc.at("cycles").asU64()};
        stats.instructions = doc.at("instructions").asU64();
        stats.ipc = doc.at("ipc").asDouble();
        stats.timedOut = doc.at("timedOut").asBool();
        stats.busTransactions = doc.at("busTransactions").asU64();
        stats.bpki = doc.at("bpki").asDouble();
        stats.demandLoads = doc.at("demandLoads").asU64();
        stats.l2DemandAccesses = doc.at("l2DemandAccesses").asU64();
        stats.l2DemandMisses = doc.at("l2DemandMisses").asU64();
        stats.l2LdsMisses = doc.at("l2LdsMisses").asU64();
        for (const JsonValue &pg : doc.at("pgStats").asArray()) {
            PgId id;
            id.loadPc = pg.at("pc").asU64();
            id.slot =
                static_cast<std::int16_t>(pg.at("slot").asI64());
            PgStats &entry = stats.pgStats[id];
            entry.issued = pg.at("issued").asU64();
            entry.used = pg.at("used").asU64();
        }
        stats.intervals = doc.at("intervals").asU64();
        for (const JsonValue &item :
             doc.at("intervalSeries").asArray()) {
            IntervalSample sample;
            sample.cycle = Cycle{item.at("cycle").asU64()};
            for (const JsonValue &x : item.at("slots").asArray()) {
                IntervalSample::Slot slot;
                slot.accuracy = x.at("accuracy").asDouble();
                slot.coverage = x.at("coverage").asDouble();
                slot.level =
                    static_cast<AggLevel>(x.at("level").asI64());
                slot.enabled = x.at("enabled").asBool();
                sample.slots.push_back(slot);
            }
            // Optional: written only when non-empty.
            if (const JsonValue *p = item.find("policy"))
                sample.policy = p->asString();
            stats.intervalSeries.push_back(sample);
        }
        for (const JsonValue &item : doc.at("engines").asArray()) {
            RunStats::EngineRunStats es;
            es.instance = item.at("instance").asString();
            es.engine = item.at("engine").asString();
            es.issued = item.at("issued").asU64();
            es.used = item.at("used").asU64();
            es.late = item.at("late").asU64();
            es.dropped = item.at("dropped").asU64();
            es.usefulLatencySum = item.at("usefulLatencySum").asU64();
            es.usefulLatencyCount =
                item.at("usefulLatencyCount").asU64();
            es.finalLevel =
                static_cast<AggLevel>(item.at("finalLevel").asI64());
            es.finalEnabled = item.at("finalEnabled").asBool();
            stats.engineStats.push_back(std::move(es));
        }
        // Optional policy fields, written only for stateful
        // policies.
        if (const JsonValue *p = doc.find("throttlePolicy"))
            stats.throttlePolicy = p->asString();
        if (const JsonValue *p = doc.find("throttlePolicyState"))
            stats.throttlePolicyState = p->asString();
        return stats;
    } catch (const JsonError &e) {
        return corrupt(e.what());
    } catch (const std::out_of_range &e) {
        return corrupt(e.what());
    }
}

void
ResultCache::store(const std::string &name, std::uint64_t hash,
                   const RunStats &stats) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return;

    const std::string path = entryPath(name, hash);
    std::ostringstream id;
    id << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp = path + ".tmp." + id.str();
    {
        std::ofstream os(tmp);
        if (!os)
            return;
        os << "{\"version\":" << kVersion << ","
           << "\"configHash\":\"" << hashHex(hash) << "\","
           << "\"workload\":\"" << jsonEscape(name) << "\","
           << "\"cycles\":" << stats.cycles.raw() << ","
           << "\"instructions\":" << stats.instructions << ","
           << "\"ipc\":";
        writeDouble(os, stats.ipc);
        os << ",\"bpki\":";
        writeDouble(os, stats.bpki);
        os << ",\"timedOut\":" << (stats.timedOut ? "true" : "false")
           << ",\"busTransactions\":" << stats.busTransactions
           << ",\"demandLoads\":" << stats.demandLoads
           << ",\"l2DemandAccesses\":" << stats.l2DemandAccesses
           << ",\"l2DemandMisses\":" << stats.l2DemandMisses
           << ",\"l2LdsMisses\":" << stats.l2LdsMisses;
        os << ",\"pgStats\":[";
        bool first = true;
        for (const auto &[id_, pg] : stats.pgStats) {
            if (!first)
                os << ",";
            first = false;
            os << "{\"pc\":" << id_.loadPc.raw()
               << ",\"slot\":" << id_.slot
               << ",\"issued\":" << pg.issued
               << ",\"used\":" << pg.used << "}";
        }
        os << "]"
           << ",\"intervals\":" << stats.intervals
           << ",\"intervalSeries\":[";
        for (std::size_t i = 0; i < stats.intervalSeries.size();
             ++i) {
            const IntervalSample &s = stats.intervalSeries[i];
            os << (i ? "," : "") << "{\"cycle\":" << s.cycle.raw()
               << ",\"slots\":[";
            for (std::size_t k = 0; k < s.slots.size(); ++k) {
                const IntervalSample::Slot &slot = s.slots[k];
                os << (k ? "," : "") << "{\"accuracy\":";
                writeDouble(os, slot.accuracy);
                os << ",\"coverage\":";
                writeDouble(os, slot.coverage);
                os << ",\"level\":" << static_cast<int>(slot.level)
                   << ",\"enabled\":"
                   << (slot.enabled ? "true" : "false") << "}";
            }
            os << "]";
            // The raw policy blob round-trips as an escaped string
            // (the cache's JsonValue reader has no re-serializer).
            if (!s.policy.empty()) {
                os << ",\"policy\":\"" << jsonEscape(s.policy)
                   << "\"";
            }
            os << "}";
        }
        os << "],\"engines\":[";
        for (std::size_t i = 0; i < stats.engineStats.size(); ++i) {
            const RunStats::EngineRunStats &es = stats.engineStats[i];
            os << (i ? "," : "") << "{\"instance\":\""
               << jsonEscape(es.instance) << "\",\"engine\":\""
               << jsonEscape(es.engine) << "\",\"issued\":" << es.issued
               << ",\"used\":" << es.used << ",\"late\":" << es.late
               << ",\"dropped\":" << es.dropped
               << ",\"usefulLatencySum\":" << es.usefulLatencySum
               << ",\"usefulLatencyCount\":" << es.usefulLatencyCount
               << ",\"finalLevel\":" << static_cast<int>(es.finalLevel)
               << ",\"finalEnabled\":"
               << (es.finalEnabled ? "true" : "false") << "}";
        }
        os << "]";
        if (!stats.throttlePolicyState.empty()) {
            os << ",\"throttlePolicy\":\""
               << jsonEscape(stats.throttlePolicy)
               << "\",\"throttlePolicyState\":\""
               << jsonEscape(stats.throttlePolicyState) << "\"";
        }
        os << "}\n";
        if (!os)
            return;
    }
    // Atomic publish so concurrent jobs / processes never observe a
    // half-written entry.
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

} // namespace runner
} // namespace ecdp
