/**
 * @file
 * Machine-readable export of run statistics. The bench binaries print
 * human tables; tooling (plotters, CI trend checks) consumes this
 * JSON instead. Also hosts the exact RunStats codec and key the
 * persistent result store files runs under, and a minimal JSON value
 * model and parser so the codec, the daemon and the tests can read
 * back what the writers emit — no external JSON dependency.
 */

#ifndef ECDP_STATS_JSON_HH
#define ECDP_STATS_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hh"

namespace ecdp
{

/**
 * Write @p stats as a single JSON object to @p os.
 *
 * @param label Optional "config" field value (e.g. "baseline").
 */
void writeRunStatsJson(std::ostream &os, const RunStats &stats,
                       const std::string &label = "");

/**
 * Version of what a persisted result means. Bump it with any change
 * to the stats a run reports — a RunStats field, the codec below, or
 * a simulator change that moves a golden (tests/golden) — so results
 * spilled before the change are never served after it.
 */
inline constexpr std::uint64_t kStatsSchema = 5;

/**
 * The key every persisted result is filed under: FNV-1a 64 over
 * @p identity, @p hash and kStatsSchema. The bench path files a run
 * as (workload name, configHash), the daemon a cell as (canonical
 * cell JSON, 0).
 */
std::uint64_t resultKey(std::string_view identity,
                        std::uint64_t hash = 0);

/**
 * Exact encoding of @p stats for the result store: counters verbatim,
 * doubles at max_digits10, so a decoded run is bit-for-bit the
 * original. The workload name is left out; the key carries it.
 */
std::string encodeRunStats(const RunStats &stats);

/** Inverse of encodeRunStats, naming the run @p workload; nullopt
 *  when @p bytes do not decode (the caller treats that as a miss). */
std::optional<RunStats> decodeRunStats(const std::string &bytes,
                                       std::string workload);

/** JSON string escaping (exposed for tests). */
std::string jsonEscape(const std::string &text);

/**
 * A parsed JSON value. Numbers keep their source text so integer
 * counters round-trip exactly (no double rounding at 2^53).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** @{ Typed readers; abort via exception on kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::map<std::string, JsonValue> &asObject() const;
    /** @} */

    /**
     * Source text of a Number, exactly as parsed. The golden-stats
     * tests compare this so a counter differing in the 17th digit
     * cannot hide behind double rounding.
     */
    const std::string &numberText() const;

    /** Object member, or nullptr when missing / not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member that must exist; throws JsonError otherwise. */
    const JsonValue &at(const std::string &key) const;

    /** @{ Construction (used by the parser and tests). */
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(std::string text);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(
        std::map<std::string, JsonValue> members);
    /** @} */

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    /** Source text of a Number, decoded text of a String. */
    std::string scalar_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/** Error thrown by the parser and the typed readers. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Parse one JSON document. Throws JsonError on malformed input. */
JsonValue parseJson(const std::string &text);

/** Parse, returning nullopt instead of throwing. */
std::optional<JsonValue> tryParseJson(const std::string &text);

} // namespace ecdp

#endif // ECDP_STATS_JSON_HH
