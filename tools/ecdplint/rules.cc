/**
 * @file
 * The three ecdplint rules. Each is a pure function over the shared
 * Analysis; suppression is always `// ecdplint-allow(<rule>)` on the
 * flagged line or the line above.
 *
 *   callback-under-lock      a deferred callback (std::function
 *                            value — alias, member, local or param)
 *                            is invoked while a MutexLock /
 *                            lock_guard / unique_lock is live in an
 *                            enclosing scope. Callbacks re-enter
 *                            subsystems; running one under a lock is
 *                            how PR 9's daemon deadlocked.
 *
 *   member-destruction-order a non-worker data member is declared
 *                            after a thread/pool/server member.
 *                            Members destroy in reverse declaration
 *                            order, so state a worker's callbacks
 *                            touch must be declared first (and the
 *                            workers last).
 *
 *   unbounded-container      a growable container member of a class
 *                            tagged `// ecdplint: long-lived` has no
 *                            erase path anywhere in the scanned
 *                            tree, no `// ecdplint-cap(...)` note
 *                            and no allow. Every admission needs a
 *                            matching eviction.
 *
 * A raw std::mutex is simlint's raw-mutex rule, which scans every
 * declaration, not only class members.
 */

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hh"

namespace ecdp
{
namespace lint
{

namespace
{

// ---------------------------------------------------------------
// callback-under-lock

/** Local/parameter names in @p f declared with a callback type:
 *  `Done done`, `const Responder &respond`, `std::function<...> job`,
 *  including range-for bindings (`Responder &r : waiters`). */
void
collectLocalCallbackNames(const SourceFile &f, const Analysis &a,
                          std::set<std::string> &names)
{
    const std::vector<Token> &toks = f.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier)
            continue;
        if (t.text != "function" && !a.callbackAliases().count(t.text))
            continue;
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].text == "<") {
            int depth = 0;
            while (j < toks.size()) {
                if (toks[j].text == "<")
                    ++depth;
                else if (toks[j].text == ">" && --depth == 0) {
                    ++j;
                    break;
                }
                ++j;
            }
        }
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                toks[j].text == "const"))
            ++j;
        if (j >= toks.size() ||
            toks[j].kind != TokKind::Identifier)
            continue;
        // A '(' next means a function returning the callback type,
        // not a variable of it.
        if (j + 1 < toks.size() && toks[j + 1].text == "(")
            continue;
        names.insert(toks[j].text);
    }
}

struct LockScope
{
    int depth;
    std::string var;
    bool active;
};

void
checkCallbackUnderLock(const Analysis &a, std::vector<Violation> &out)
{
    for (const SourceFile &f : a.files()) {
        std::set<std::string> names = a.callbackMembers();
        collectLocalCallbackNames(f, a, names);

        const std::vector<Token> &toks = f.lex.tokens;
        int depth = 0;
        std::vector<LockScope> locks;
        auto anyActive = [&] {
            for (const LockScope &l : locks) {
                if (l.active)
                    return true;
            }
            return false;
        };
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.text == "{") {
                ++depth;
                continue;
            }
            if (t.text == "}") {
                --depth;
                while (!locks.empty() &&
                       locks.back().depth > depth)
                    locks.pop_back();
                continue;
            }
            if (t.kind != TokKind::Identifier)
                continue;
            // Guard declaration: MutexLock lock(m); and the std
            // guards, with or without template arguments.
            if (t.text == "MutexLock" || t.text == "lock_guard" ||
                t.text == "unique_lock" || t.text == "scoped_lock") {
                std::size_t j = i + 1;
                if (j < toks.size() && toks[j].text == "<") {
                    int d = 0;
                    while (j < toks.size()) {
                        if (toks[j].text == "<")
                            ++d;
                        else if (toks[j].text == ">" && --d == 0) {
                            ++j;
                            break;
                        }
                        ++j;
                    }
                }
                if (j + 1 < toks.size() &&
                    toks[j].kind == TokKind::Identifier &&
                    toks[j + 1].text == "(") {
                    locks.push_back({depth, toks[j].text, true});
                }
                continue;
            }
            // guard.unlock() / guard.lock() toggles (the relockable
            // MutexLock pattern around running a job).
            if (i + 3 < toks.size() && toks[i + 1].text == "." &&
                toks[i + 3].text == "(" &&
                (toks[i + 2].text == "unlock" ||
                 toks[i + 2].text == "lock")) {
                for (LockScope &l : locks) {
                    if (l.var == t.text)
                        l.active = (toks[i + 2].text == "lock");
                }
                continue;
            }
            // Callback invocation?
            if (!names.count(t.text))
                continue;
            if (i + 1 >= toks.size() || toks[i + 1].text != "(")
                continue;
            if (i > 0 && toks[i - 1].text == "::")
                continue; // qualified call, not our value
            if (!anyActive())
                continue;
            if (a.allowed(f, t.line, "callback-under-lock"))
                continue;
            out.push_back(
                {f.path, t.line, "callback-under-lock",
                 "callback '" + t.text +
                     "' invoked while a lock guard is live; "
                     "collect it under the lock and invoke it "
                     "after the guard's scope closes"});
        }
    }
}

// ---------------------------------------------------------------
// member-destruction-order

void
checkMemberDestructionOrder(const Analysis &a,
                            std::vector<Violation> &out)
{
    for (const ClassInfo &c : a.classes()) {
        const SourceFile *f = a.fileByPath(c.file);
        const MemberDecl *firstWorker = nullptr;
        for (const MemberDecl &m : c.members) {
            if (Analysis::isWorkerType(m.type)) {
                if (!firstWorker)
                    firstWorker = &m;
                continue;
            }
            if (!firstWorker)
                continue;
            if (f && a.allowed(*f, m.line,
                               "member-destruction-order"))
                continue;
            out.push_back(
                {c.file, m.line, "member-destruction-order",
                 "member '" + m.name + "' of class '" + c.name +
                     "' is declared after worker member '" +
                     firstWorker->name +
                     "'; members destroy in reverse declaration "
                     "order, so the worker's callbacks could touch "
                     "'" + m.name +
                     "' after it is gone — declare state first, "
                     "threads and pools last"});
        }
    }
}

// ---------------------------------------------------------------
// unbounded-container

void
checkUnboundedContainer(const Analysis &a,
                        std::vector<Violation> &out)
{
    for (const ClassInfo &c : a.classes()) {
        if (!c.longLived)
            continue;
        const SourceFile *f = a.fileByPath(c.file);
        for (const MemberDecl &m : c.members) {
            if (!Analysis::isGrowableContainer(m.type))
                continue;
            if (f &&
                (a.allowed(*f, m.line, "unbounded-container") ||
                 a.capped(*f, m.line)))
                continue;
            if (a.hasErasePath(m.name))
                continue;
            out.push_back(
                {c.file, m.line, "unbounded-container",
                 "container member '" + m.name +
                     "' of long-lived class '" + c.name +
                     "' never shrinks: no erase/pop/clear/swap "
                     "path, no // ecdplint-cap(...) note — every "
                     "admission needs a matching eviction"});
        }
    }
}

} // namespace

const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> kRules = {
        {"callback-under-lock",
         "deferred callbacks must not run under a lock guard",
         &checkCallbackUnderLock},
        {"member-destruction-order",
         "declare callback-reachable state before thread/pool "
         "members",
         &checkMemberDestructionOrder},
        {"unbounded-container",
         "containers in long-lived classes need an erase path or a "
         "documented cap",
         &checkUnboundedContainer},
    };
    return kRules;
}

} // namespace lint
} // namespace ecdp
