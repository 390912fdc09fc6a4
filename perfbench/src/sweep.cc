/**
 * @file
 * ecdpd-sweep: a closed loop of two client connections (one process,
 * one thread each) against a separately started `ecdpd --workers 2`.
 * Every request is a one-cell grid with wait:true, so a client sends
 * its next request only when the previous one is answered.
 *
 * The run is a sequence of rounds. A round holds 75 cold cells — each
 * of the 15 train workloads x the five fig07 configs once, in seeded
 * order, made unique by an `interval` value no earlier request used —
 * and 9 store hits per cold cell, drawn from the warm set the `warm`
 * mode computed during set-up. Both connections take requests from
 * the round's shared queue. A seeded share of the cold cells is sent
 * on both connections: the other connection sends it next, so the
 * daemon's single-flight dedup path runs when the two overlap.
 *
 * After the timed rounds, untimed: a seeded sample of cold cells is
 * recomputed in-process with runCell() + cellStatsJson() and compared
 * byte for byte with what the daemon returned.
 */

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <memory>
#include <random>
#include <thread>

#include "layers.hh"
#include "server/cell.hh"
#include "server/http_client.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace ecdp;

constexpr unsigned kConnections = 2;
constexpr unsigned kHitsPerCold = 9;
constexpr double kDupShare = 0.2;
constexpr unsigned kVerifySample = 6;
/** SystemConfig's default interval; cold cells count up from it. */
constexpr long kIntervalBase = 1024;

const char *const kColdConfigs[] = {"cdp", "ecdp", "cdp+throttle", "full",
                                    "baseline"};
const char *const kWarmConfigs[] = {"baseline"};

struct Spec
{
    std::string bench;
    std::string config;
    long interval = -1;
};

std::string
cellJson(const Spec &spec)
{
    std::string json = "{\"bench\":\"" + spec.bench + "\",\"config\":\"" +
                       spec.config + "\",\"input\":\"train\"";
    if (spec.interval > 0)
        json += ",\"interval\":" + std::to_string(spec.interval);
    return json + "}";
}

std::string
gridBody(const std::string &client, const std::string &cells)
{
    return "{\"client\":\"" + client + "\",\"wait\":true,\"cells\":[" +
           cells + "]}";
}

std::vector<Spec>
warmSet()
{
    std::vector<Spec> specs;
    for (const std::string &name : pointerIntensiveNames())
        for (const char *config : kWarmConfigs)
            specs.push_back({name, config});
    return specs;
}

/** The stored result bytes in a one-cell results body; empty when the
 *  cell did not complete. */
std::string
statsBytes(const std::string &body)
{
    const std::string marker = "\"status\":\"done\",\"stats\":";
    std::size_t at = body.find(marker);
    if (at == std::string::npos || !body.ends_with("}]}"))
        return {};
    at += marker.size();
    return body.substr(at, body.size() - 3 - at);
}

std::uint64_t
instructionsOf(const std::string &statsJson)
{
    const std::string key = "\"instructions\":";
    const std::size_t at = statsJson.find(key);
    return at == std::string::npos
               ? 0
               : std::strtoull(statsJson.c_str() + at + key.size(),
                               nullptr, 10);
}

/** One queued request of a round. */
struct Op
{
    bool cold = false;
    /** Warm-set index (hit) or run-wide cold-cell index. */
    std::size_t index = 0;
    bool dup = false;
};

/** One answered (or failed) request. */
struct Sample
{
    bool cold = false;
    /** The dedup copy of a cold cell sent by the other connection. */
    bool second = false;
    std::size_t index = 0;
    Clock::time_point sent;
    Clock::time_point done;
    bool ok = false;
    bool refused = false;
    std::string bytes;

    double ms() const { return msBetween(sent, done); }
};

/** A round's shared queue and the connections' dedup mailboxes. */
class RoundQueue
{
  public:
    explicit RoundQueue(std::vector<Op> ops) : ops_(std::move(ops)) {}

    /** Next op for connection @p me; false once the round is over. */
    bool take(unsigned me, Op &op, bool &second) ECDP_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        for (;;) {
            if (!mailbox_[me].empty()) {
                op = {true, mailbox_[me].front(), false};
                mailbox_[me].pop_front();
                second = true;
                return true;
            }
            if (next_ < ops_.size()) {
                op = ops_[next_++];
                second = false;
                if (op.cold && op.dup) {
                    mailbox_[1 - me].push_back(op.index);
                    cv_.notify_all();
                }
                return true;
            }
            idle_[me] = true;
            cv_.notify_all();
            cv_.wait(lock.native(), [&] {
                mutex_.assertHeld();
                return !mailbox_[me].empty() || idle_[1 - me];
            });
            if (mailbox_[me].empty())
                return false;
            idle_[me] = false;
        }
    }

  private:
    AnnotatedMutex mutex_;
    std::condition_variable cv_;
    const std::vector<Op> ops_;
    std::size_t next_ ECDP_GUARDED_BY(mutex_) = 0;
    std::deque<std::size_t> mailbox_[kConnections] ECDP_GUARDED_BY(mutex_);
    bool idle_[kConnections] ECDP_GUARDED_BY(mutex_) = {false, false};
};

class Sweep
{
  public:
    Sweep(const Options &opts, Result &result)
        : opts_(opts), result_(result), rng_(opts.seed),
          names_(pointerIntensiveNames()), warm_(warmSet())
    {
        for (unsigned c = 0; c < kConnections; ++c)
            clients_.push_back(
                std::make_unique<server::HttpClient>(opts.port));
    }

    /** Fetches each warm cell once (a store hit) as its expected bytes. */
    void fetchWarm()
    {
        for (std::size_t i = 0; i < warm_.size(); ++i) {
            Sample sample = send(0, {false, i, false}, warm_[i], false);
            result_.attempt(sample.ok);
            expected_.push_back(std::move(sample.bytes));
        }
    }

    /** Runs one round; returns its wall time in seconds. */
    double round(SpanRecorder *spans)
    {
        std::vector<Op> ops;
        std::vector<std::size_t> order(std::size(kColdConfigs) *
                                       names_.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng_);
        std::bernoulli_distribution dup(kDupShare);
        std::uniform_int_distribution<std::size_t> hit(0, warm_.size() - 1);
        for (std::size_t combo : order) {
            const std::string &bench =
                names_[combo / std::size(kColdConfigs)];
            const char *config = kColdConfigs[combo % std::size(kColdConfigs)];
            cold_.push_back(
                {bench, config, kIntervalBase + 1 + long(cold_.size())});
            ops.push_back({true, cold_.size() - 1, dup(rng_)});
            for (unsigned h = 0; h < kHitsPerCold; ++h)
                ops.push_back({false, hit(rng_), false});
        }
        std::shuffle(ops.begin(), ops.end(), rng_);

        RoundQueue queue(std::move(ops));
        std::vector<std::vector<Sample>> samples(kConnections);
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                Op op;
                bool second = false;
                while (queue.take(c, op, second)) {
                    const Spec &spec =
                        op.cold ? cold_[op.index] : warm_[op.index];
                    samples[c].push_back(send(c, op, spec, second));
                    const Sample &s = samples[c].back();
                    if (spans)
                        spans->record(static_cast<std::uint32_t>(op.index),
                                      "server.request", s.sent, s.done);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
        const double wallS = msSince(start) / 1e3;
        for (std::vector<Sample> &connection : samples) {
            for (Sample &sample : connection) {
                result_.attempt(sample.ok);
                samples_.push_back(std::move(sample));
            }
        }
        return wallS;
    }

    /** Later rounds are measured; earlier ones were warm-up. */
    void startTiming() { timedFrom_ = samples_.size(); }

    /** Untimed checks after the rounds: dedup pairs and the in-process
     *  byte comparison of a seeded cold sample. */
    void verify()
    {
        std::map<std::size_t, const Sample *> primary;
        for (const Sample &s : samples_)
            if (s.cold && !s.second)
                primary[s.index] = &s;
        for (const Sample &s : samples_) {
            if (!s.cold || !s.second)
                continue;
            ++dedupPairs_;
            const Sample *first = primary.at(s.index);
            if (s.sent < first->done)
                ++dedupOverlapped_;
            const bool same = s.ok && first->ok && s.bytes == first->bytes;
            if (!same)
                std::cerr << "perfbench: dedup copy of "
                          << cellJson(cold_[s.index])
                          << " differs from the first answer\n";
            result_.attempt(same);
        }

        std::vector<const Sample *> done;
        for (const auto &entry : primary)
            if (entry.second->ok)
                done.push_back(entry.second);
        std::shuffle(done.begin(), done.end(), rng_);
        done.resize(std::min<std::size_t>(done.size(), kVerifySample));
        for (const Sample *sample : done) {
            const Spec &spec = cold_[sample->index];
            server::CellSpec cell;
            cell.bench = spec.bench;
            cell.config = spec.config;
            cell.input = "train";
            cell.interval = spec.interval;
            ExperimentContext ctx;
            const Clock::time_point t = Clock::now();
            const RunStats stats = server::runCell(cell, ctx);
            const double inProcessMs = msSince(t);
            const Clock::time_point j = Clock::now();
            const std::string bytes = server::cellStatsJson(cell, stats);
            jsonUs_.push_back(msSince(j) * 1e3);
            overheadMs_.push_back(sample->ms() - inProcessMs);
            const bool same = bytes == sample->bytes;
            if (!same)
                std::cerr << "perfbench: daemon answer for "
                          << cellJson(spec) << " differs from runCell\n";
            result_.attempt(same);
        }
    }

    /** /metrics of the daemon, as numbers. */
    std::map<std::string, double> scrape()
    {
        const server::HttpResponse response = clients_[0]->get("/metrics");
        if (response.status != 200)
            throw std::runtime_error("/metrics answered " +
                                     std::to_string(response.status));
        const JsonValue doc = parseJson(response.body);
        std::map<std::string, double> out;
        for (const auto &[key, value] : doc.asObject())
            out[key] = double(value.asU64());
        return out;
    }

    /** End-to-end metrics over every round (setup_s and peak_rss_mb
     *  are measured on the daemon by run.py). */
    void addEndToEnd(const std::vector<double> &roundWalls)
    {
        std::vector<double> cold, hit;
        std::uint64_t completed = 0, instructions = 0;
        for (std::size_t i = timedFrom_; i < samples_.size(); ++i) {
            const Sample &s = samples_[i];
            completed += s.ok;
            if (!s.ok)
                continue;
            if (!s.cold) {
                hit.push_back(s.ms());
            } else if (!s.second) {
                cold.push_back(s.ms());
                instructions += instructionsOf(s.bytes);
            }
        }
        double windowS = 0.0;
        for (double wall : roundWalls)
            windowS += wall;
        result_.add("wall_s", median(roundWalls), "s");
        result_.add("cells_per_s", double(completed) / windowS, "1/s");
        result_.add("minstr_per_s", double(instructions) / 1e6 / windowS,
                    "Minstr/s");
        result_.add("cold_p50_ms", quantile(cold, 0.5), "ms");
        result_.add("cold_p90_ms", quantile(cold, 0.9), "ms");
        result_.add("hit_p50_ms", quantile(hit, 0.5), "ms");
        std::cout << "perfbench rounds: " << roundWalls.size()
                  << ", cold samples " << cold.size() << ", hit samples "
                  << hit.size() << std::endl;
    }

    /** Per-layer metrics of the server path. */
    void addLayers(const std::map<std::string, double> &before,
                   const std::map<std::string, double> &after,
                   const SpanRecorder &spans, double overheadS)
    {
        auto delta = [&](const std::string &key) {
            return after.at(key) - before.at(key);
        };
        std::uint64_t refused = 0, failed = 0;
        double clientMsSum = 0.0;
        std::vector<double> hitMs;
        for (const Sample &s : samples_) {
            refused += s.refused;
            failed += !s.ok;
            clientMsSum += s.ms();
            if (!s.cold && s.ok)
                hitMs.push_back(s.ms());
        }
        const double sideUs = delta("ecdpd.latency.us.sum") /
                              std::max(1.0, delta("ecdpd.latency.us.count"));
        const double clientUs =
            clientMsSum * 1e3 / double(std::max<std::size_t>(1, samples_.size()));
        const std::map<std::string, double> self = spans.selfMs();
        const auto requestSelf = self.find("server.request");

        LayerValues v;
        v["server.request_ms"] = clientUs / 1e3;
        v["server.hit_p99_ms"] = quantile(hitMs, 0.99);
        v["server.side_latency_us.mean"] = sideUs;
        v["server.client_gap_us"] = clientUs - sideUs;
        v["server.requests_attempted"] = double(samples_.size());
        v["server.requests_refused"] = double(refused);
        v["server.requests_failed"] = double(failed);
        v["server.spawned"] = delta("ecdpd.pool.spawned");
        v["server.store_hits"] = delta("ecdpd.store.memory_hits") +
                                 delta("ecdpd.store.disk_hits");
        v["server.dedup_attached"] = delta("ecdpd.store.dedup_attached");
        v["server.dedup_pairs"] = double(dedupPairs_);
        v["server.dedup_overlapped"] = double(dedupOverlapped_);
        v["server.cold_overhead_ms"] = median(overheadMs_);
        v["stats.json_us"] = median(jsonUs_);
        v["server.self_ms"] =
            requestSelf == self.end() ? 0.0 : requestSelf->second;
        v["trace.spans"] = double(spans.size());
        v["trace.overhead_s"] = overheadS;
        addLayerMetrics(result_, v);
    }

  private:
    /** One request on @p connection; called from that connection's
     *  thread, so it touches no shared state but its own client. */
    Sample send(unsigned connection, const Op &op, const Spec &spec,
                bool second)
    {
        Sample sample;
        sample.cold = op.cold;
        sample.second = second;
        sample.index = op.index;
        sample.sent = Clock::now();
        server::HttpResponse response;
        try {
            response = clients_[connection]->post(
                "/v1/grids",
                gridBody("perfbench-" + std::to_string(connection),
                         cellJson(spec)));
        } catch (const std::exception &e) {
            std::cerr << "perfbench: request failed: " << e.what() << '\n';
            response.status = 0;
            clients_[connection] =
                std::make_unique<server::HttpClient>(opts_.port);
        }
        sample.done = Clock::now();
        sample.refused = response.status == 429 || response.status >= 500;
        if (response.status == 200)
            sample.bytes = statsBytes(response.body);
        if (!op.cold)
            sample.ok = !sample.bytes.empty() &&
                        (op.index >= expected_.size() ||
                         sample.bytes == expected_[op.index]);
        else
            sample.ok = instructionsOf(sample.bytes) > 0;
        if (!sample.ok)
            std::cerr << "perfbench: " << cellJson(spec) << " answered "
                      << response.status << '\n';
        return sample;
    }

    const Options &opts_;
    Result &result_;
    std::mt19937_64 rng_;
    const std::vector<std::string> names_;
    const std::vector<Spec> warm_;
    std::vector<std::string> expected_;
    std::vector<Spec> cold_;
    std::vector<Sample> samples_;
    /** First sample of the measured rounds (after the warm-up). */
    std::size_t timedFrom_ = 0;
    std::vector<std::unique_ptr<server::HttpClient>> clients_;
    std::uint64_t dedupPairs_ = 0;
    std::uint64_t dedupOverlapped_ = 0;
    std::vector<double> overheadMs_;
    std::vector<double> jsonUs_;
};

} // namespace

int
runSweepWarm(const Options &opts)
{
    std::string cells;
    for (const Spec &spec : warmSet())
        cells += (cells.empty() ? "" : ",") + cellJson(spec);
    server::HttpClient client(opts.port);
    const server::HttpResponse response =
        client.post("/v1/grids", gridBody("perfbench-warm", cells));
    std::size_t done = 0;
    for (std::size_t at = 0;
         (at = response.body.find("\"status\":\"done\"", at)) !=
         std::string::npos;
         ++at)
        ++done;
    if (response.status != 200 || done != warmSet().size()) {
        std::cerr << "perfbench: warm set answered " << response.status
                  << " with " << done << " of " << warmSet().size()
                  << " cells done\n";
        return 1;
    }
    return 0;
}

int
runSweep(const Options &opts, Result &result)
{
    Sweep sweep(opts, result);
    sweep.fetchWarm();
    const std::map<std::string, double> before = sweep.scrape();
    std::vector<double> walls;
    if (opts.trace) {
        // Untraced rounds before and after the traced one; the traced
        // round's excess over their mean is the tracing overhead.
        SpanRecorder spans;
        double untraced = sweep.round(nullptr);
        const double traced = sweep.round(&spans);
        untraced = (untraced + sweep.round(nullptr)) / 2.0;
        const std::map<std::string, double> after = sweep.scrape();
        sweep.verify();
        sweep.addLayers(before, after, spans, traced - untraced);
        return 0;
    }
    // One unmeasured warm-up round (checked like the others), then
    // rounds while another fits in --seconds.
    const Clock::time_point start = Clock::now();
    double roundS = sweep.round(nullptr);
    sweep.startTiming();
    while (walls.empty() ||
           msSince(start) + roundS * 1e3 <= opts.seconds * 1e3) {
        roundS = sweep.round(nullptr);
        walls.push_back(roundS);
    }
    sweep.verify();
    sweep.addEndToEnd(walls);
    return 0;
}

} // namespace perfbench
