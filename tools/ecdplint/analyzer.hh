/**
 * @file
 * Structural analysis over the ecdplint token stream, plus the rule
 * registry.
 *
 * The Analysis walks every file once and extracts what the rules
 * share: class definitions with their data members (function bodies
 * and initializers skipped, so a brace in a lambda cannot derail
 * member extraction), `using X = std::function<...>` callback
 * aliases, and the ecdplint comment tags:
 *
 *   // ecdplint: long-lived          opt the next class into the
 *                                    unbounded-container rule
 *   // ecdplint-cap(<what>)          document the bound that caps a
 *                                    container member
 *   // ecdplint-allow(<rule>)        suppress <rule> on this line or
 *                                    the line below
 *
 * Rules are pure functions from an Analysis to violations; see
 * rules.cc for the four shipped rules and DESIGN.md section 15 for
 * the discipline they enforce.
 */

#ifndef ECDP_TOOLS_ECDPLINT_ANALYZER_HH
#define ECDP_TOOLS_ECDPLINT_ANALYZER_HH

#include <set>
#include <string>
#include <vector>

#include "lexer.hh"

namespace ecdp
{
namespace lint
{

struct SourceFile
{
    std::string path;
    LexResult lex;
};

/** Read @p path and tokenize it. Throws std::runtime_error when the
 *  file cannot be read. */
SourceFile loadSource(const std::string &path);

/** Tokenize in-memory @p text (tests use this). */
SourceFile sourceFromString(std::string path, const std::string &text);

struct MemberDecl
{
    std::string name;
    /** Token texts of the declared type (everything left of the
     *  member name, attributes excluded). */
    std::vector<std::string> type;
    int line = 0;
};

struct ClassInfo
{
    std::string name;
    std::string file;
    int line = 0;
    /** True when a `// ecdplint: long-lived` tag sits on the class
     *  line or in the contiguous comment block directly above it. */
    bool longLived = false;
    std::vector<MemberDecl> members;
};

struct Violation
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

class Analysis
{
  public:
    explicit Analysis(std::vector<SourceFile> files);

    const std::vector<SourceFile> &files() const { return files_; }
    const std::vector<ClassInfo> &classes() const { return classes_; }

    /** Alias names bound to std::function via `using`. */
    const std::set<std::string> &callbackAliases() const
    {
        return callbackAliases_;
    }

    /** Names of data members whose declared type is a callback. */
    const std::set<std::string> &callbackMembers() const
    {
        return callbackMembers_;
    }

    const SourceFile *fileByPath(const std::string &path) const;

    /** `ecdplint-allow(<rule>)` on @p line or the line above. */
    bool allowed(const SourceFile &f, int line,
                 const std::string &rule) const;

    /** `ecdplint-cap(...)` on @p line or up to two lines above. */
    bool capped(const SourceFile &f, int line) const;

    /**
     * True when any scanned file shrinks @p member: calls .erase,
     * .pop_front, .pop_back, .clear or .swap on it (an optional
     * [index] subscript in between is fine), or swaps it away via
     * other.swap(member) / swap(member, ...).
     */
    bool hasErasePath(const std::string &member) const;

    /** Type classification helpers (exact identifier matches over
     *  the type's token texts). @{ */
    static bool isWorkerType(const std::vector<std::string> &type);
    static bool
    isGrowableContainer(const std::vector<std::string> &type);
    bool isCallbackType(const std::vector<std::string> &type) const;
    /** @} */

  private:
    std::vector<SourceFile> files_;
    std::vector<ClassInfo> classes_;
    std::set<std::string> callbackAliases_;
    std::set<std::string> callbackMembers_;
};

struct Rule
{
    const char *name;
    const char *description;
    void (*check)(const Analysis &, std::vector<Violation> &);
};

/** The shipped rules, in reporting order. */
const std::vector<Rule> &rules();

} // namespace lint
} // namespace ecdp

#endif // ECDP_TOOLS_ECDPLINT_ANALYZER_HH
