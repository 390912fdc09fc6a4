#include "analyzer.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ecdp
{
namespace lint
{

namespace
{

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

/**
 * Extracts classes, members and using-aliases from one token
 * stream. Function bodies and member initializers are skipped by
 * balanced-brace matching, so statements inside them never register
 * as members; nested classes recurse and register independently.
 */
class StructureParser
{
  public:
    StructureParser(const SourceFile &f,
                    std::vector<ClassInfo> &classes,
                    std::set<std::string> &aliases)
        : f_(f), toks_(f.lex.tokens), classes_(classes),
          aliases_(aliases)
    {}

    void
    run()
    {
        parseRegion(nullptr);
    }

  private:
    bool
    done() const
    {
        return i_ >= toks_.size();
    }

    const Token &
    cur() const
    {
        return toks_[i_];
    }

    bool
    at(const char *text) const
    {
        return !done() && cur().text == text;
    }

    void
    advance()
    {
        if (!done())
            ++i_;
    }

    /** At an opening token: skip past its balanced close. */
    void
    skipBalanced(const char *open, const char *close)
    {
        int depth = 0;
        while (!done()) {
            if (cur().text == open)
                ++depth;
            else if (cur().text == close && --depth == 0) {
                advance();
                return;
            }
            advance();
        }
    }

    void
    parseRegion(ClassInfo *cls)
    {
        while (!done()) {
            if (at("}")) {
                advance();
                return;
            }
            if (at("{")) { // stray block
                skipBalanced("{", "}");
                continue;
            }
            const std::string &t = cur().text;
            if (cur().kind == TokKind::Identifier) {
                if (t == "namespace") {
                    advance();
                    while (!done() && !at("{") && !at(";"))
                        advance();
                    if (at("{")) {
                        advance();
                        parseRegion(nullptr);
                    } else {
                        advance();
                    }
                    continue;
                }
                if (t == "template") {
                    advance();
                    if (at("<"))
                        skipBalanced("<", ">");
                    continue;
                }
                if (t == "class" || t == "struct") {
                    parseClassHead();
                    continue;
                }
                if (t == "enum") {
                    parseEnum();
                    continue;
                }
                if (t == "using") {
                    parseUsing();
                    continue;
                }
                if (t == "public" || t == "private" ||
                    t == "protected") {
                    advance();
                    if (at(":"))
                        advance();
                    continue;
                }
            }
            parseStatement(cls);
        }
    }

    void
    parseClassHead()
    {
        int kwLine = cur().line;
        advance(); // class / struct
        std::string name;
        while (!done() && !at("{") && !at(";") && !at(":")) {
            if (cur().kind == TokKind::Identifier)
                name = cur().text;
            else if (at("(")) // attribute macro args
                skipBalanced("(", ")");
            if (!at("{") && !at(";") && !at(":"))
                advance();
        }
        if (at(";")) { // forward declaration
            advance();
            return;
        }
        if (at(":")) { // base clause
            while (!done() && !at("{"))
                advance();
        }
        if (at("{")) {
            advance();
            ClassInfo info;
            info.name = name;
            info.file = f_.path;
            info.line = kwLine;
            info.longLived = hasLongLivedTag(kwLine);
            parseRegion(&info);
            classes_.push_back(std::move(info));
        }
        // Trailing declarator ("} instance;") or just ";".
        while (!done() && !at(";")) {
            if (at("{"))
                skipBalanced("{", "}");
            else
                advance();
        }
        advance();
    }

    bool
    hasLongLivedTag(int classLine) const
    {
        const auto &comments = f_.lex.comments;
        // The class line itself, then contiguous comment lines
        // walking upward.
        auto it = comments.find(classLine);
        if (it != comments.end() &&
            contains(it->second, "ecdplint: long-lived"))
            return true;
        for (int l = classLine - 1; l >= 1; --l) {
            it = comments.find(l);
            if (it == comments.end())
                return false;
            if (contains(it->second, "ecdplint: long-lived"))
                return true;
        }
        return false;
    }

    void
    parseEnum()
    {
        while (!done() && !at("{") && !at(";"))
            advance();
        if (at("{"))
            skipBalanced("{", "}");
        while (!done() && !at(";"))
            advance();
        advance();
    }

    void
    parseUsing()
    {
        std::vector<const Token *> stmt;
        while (!done() && !at(";")) {
            stmt.push_back(&cur());
            advance();
        }
        advance();
        // using NAME = ... std::function<...> ...;
        if (stmt.size() >= 3 &&
            stmt[1]->kind == TokKind::Identifier &&
            stmt[1]->text != "namespace" && stmt[2]->text == "=") {
            for (const Token *t : stmt) {
                if (t->text == "function") {
                    aliases_.insert(stmt[1]->text);
                    break;
                }
            }
        }
    }

    void
    parseStatement(ClassInfo *cls)
    {
        std::vector<Token> stmt;
        bool sawBody = false;
        while (!done()) {
            if (at(";")) {
                advance();
                break;
            }
            if (at("}"))
                break; // leave for parseRegion
            if (at("{")) {
                bool body = true;
                if (!stmt.empty()) {
                    const Token &prev = stmt.back();
                    // A brace after the member name or '=' is an
                    // initializer; after ')'/specifiers it is a
                    // function body.
                    if (prev.text != ")" && prev.text != "const" &&
                        prev.text != "override" &&
                        prev.text != "final" &&
                        prev.text != "noexcept" && prev.text != "try")
                        body = false;
                }
                skipBalanced("{", "}");
                if (body) {
                    sawBody = true;
                    if (at(";"))
                        advance();
                    break;
                }
                continue; // initializer: keep going to ';'
            }
            stmt.push_back(cur());
            advance();
        }
        if (!cls || sawBody || stmt.empty())
            return;
        recordMember(*cls, stmt);
    }

    static bool
    startsWithAny(const std::string &t)
    {
        return t == "using" || t == "typedef" || t == "friend" ||
               t == "static" || t == "static_assert" ||
               t == "template" || t == "operator" ||
               t == "extern" || t == "return";
    }

    void
    recordMember(ClassInfo &cls, const std::vector<Token> &stmt)
    {
        std::size_t begin = 0;
        // Strip harmless decl-specifiers so classification sees the
        // type itself.
        while (begin < stmt.size() &&
               (stmt[begin].text == "mutable" ||
                stmt[begin].text == "constexpr" ||
                stmt[begin].text == "inline" ||
                stmt[begin].text == "volatile"))
            ++begin;
        if (begin >= stmt.size())
            return;
        if (startsWithAny(stmt[begin].text))
            return;
        if (stmt[begin].text == "~") // destructor decl
            return;
        for (const Token &t : stmt) {
            if (t.text == "operator")
                return; // operator decls are functions
        }

        int angle = 0;
        std::string name;
        int nameLine = 0;
        std::size_t typeEnd = 0;
        for (std::size_t k = begin; k < stmt.size(); ++k) {
            const Token &t = stmt[k];
            if (t.text == "<") {
                ++angle;
                continue;
            }
            if (t.text == ">") {
                if (angle > 0)
                    --angle;
                continue;
            }
            if (t.text == "=" && angle == 0)
                break; // initializer follows
            if (t.kind != TokKind::Identifier)
                continue;
            const Token *next =
                (k + 1 < stmt.size()) ? &stmt[k + 1] : nullptr;
            bool nextIsAttr = next &&
                              next->kind == TokKind::Identifier &&
                              next->text.rfind("ECDP_", 0) == 0;
            if (t.text.rfind("ECDP_", 0) == 0 && next &&
                next->text == "(") {
                // Skip the attribute's argument list.
                int p = 0;
                while (k + 1 < stmt.size()) {
                    ++k;
                    if (stmt[k].text == "(")
                        ++p;
                    else if (stmt[k].text == ")" && --p == 0)
                        break;
                }
                continue;
            }
            if (angle != 0)
                continue;
            if (next && next->text == "(")
                return; // function declaration
            if (!next || next->text == "=" || next->text == "[" ||
                nextIsAttr) {
                name = t.text;
                nameLine = t.line;
                typeEnd = k;
            }
        }
        if (name.empty())
            return;
        MemberDecl m;
        m.name = name;
        m.line = nameLine;
        for (std::size_t k = begin; k < typeEnd; ++k)
            m.type.push_back(stmt[k].text);
        cls.members.push_back(std::move(m));
    }

    const SourceFile &f_;
    const std::vector<Token> &toks_;
    std::vector<ClassInfo> &classes_;
    std::set<std::string> &aliases_;
    std::size_t i_ = 0;
};

const std::set<std::string> &
workerTypeNames()
{
    static const std::set<std::string> kNames = {
        "thread",      "jthread",     "HttpServer",
        "ThreadPool",  "ResultStore", "ExperimentRunner",
    };
    return kNames;
}

const std::set<std::string> &
containerTypeNames()
{
    static const std::set<std::string> kNames = {
        "vector",        "deque",
        "list",          "map",
        "unordered_map", "set",
        "unordered_set", "multimap",
        "multiset",      "unordered_multimap",
        "unordered_multiset",
    };
    return kNames;
}

bool
commentHas(const SourceFile &f, int line, const std::string &needle)
{
    auto it = f.lex.comments.find(line);
    return it != f.lex.comments.end() &&
           contains(it->second, needle);
}

} // namespace

SourceFile
loadSource(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("ecdplint: cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return sourceFromString(path, buf.str());
}

SourceFile
sourceFromString(std::string path, const std::string &text)
{
    SourceFile f;
    f.path = std::move(path);
    f.lex = lex(text);
    return f;
}

Analysis::Analysis(std::vector<SourceFile> files)
    : files_(std::move(files))
{
    for (const SourceFile &f : files_)
        StructureParser(f, classes_, callbackAliases_).run();
    for (const ClassInfo &c : classes_) {
        for (const MemberDecl &m : c.members) {
            if (isCallbackType(m.type))
                callbackMembers_.insert(m.name);
        }
    }
}

const SourceFile *
Analysis::fileByPath(const std::string &path) const
{
    for (const SourceFile &f : files_) {
        if (f.path == path)
            return &f;
    }
    return nullptr;
}

bool
Analysis::allowed(const SourceFile &f, int line,
                  const std::string &rule) const
{
    const std::string needle = "ecdplint-allow(" + rule + ")";
    return commentHas(f, line, needle) ||
           (line > 1 && commentHas(f, line - 1, needle));
}

bool
Analysis::capped(const SourceFile &f, int line) const
{
    for (int l = line; l >= line - 2 && l >= 1; --l) {
        if (commentHas(f, l, "ecdplint-cap("))
            return true;
    }
    return false;
}

bool
Analysis::hasErasePath(const std::string &member) const
{
    static const std::set<std::string> kShrinkers = {
        "erase", "pop_front", "pop_back", "clear", "swap",
    };
    for (const SourceFile &f : files_) {
        const std::vector<Token> &toks = f.lex.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].text != member)
                continue;
            // other.swap(member) / swap(member, ...): the member as
            // the first argument of a swap call.
            if (i >= 2 && toks[i - 1].text == "(" &&
                toks[i - 2].text == "swap")
                return true;
            // member[index].shrinker(...) / member.shrinker(...)
            std::size_t j = i + 1;
            if (j < toks.size() && toks[j].text == "[") {
                int depth = 0;
                while (j < toks.size()) {
                    if (toks[j].text == "[")
                        ++depth;
                    else if (toks[j].text == "]" && --depth == 0) {
                        ++j;
                        break;
                    }
                    ++j;
                }
            }
            if (j + 2 < toks.size() &&
                (toks[j].text == "." || toks[j].text == "->") &&
                kShrinkers.count(toks[j + 1].text) &&
                toks[j + 2].text == "(")
                return true;
        }
    }
    return false;
}

bool
Analysis::isWorkerType(const std::vector<std::string> &type)
{
    bool named = false;
    for (const std::string &t : type) {
        if (t == "*")
            return false; // a raw pointer does not own the worker
        if (workerTypeNames().count(t))
            named = true;
    }
    return named;
}

bool
Analysis::isGrowableContainer(const std::vector<std::string> &type)
{
    for (const std::string &t : type) {
        if (containerTypeNames().count(t))
            return true;
    }
    return false;
}

bool
Analysis::isCallbackType(const std::vector<std::string> &type) const
{
    for (const std::string &t : type) {
        if (t == "function" || callbackAliases_.count(t))
            return true;
    }
    return false;
}

} // namespace lint
} // namespace ecdp
