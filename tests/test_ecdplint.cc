/**
 * @file
 * Unit battery for the ecdplint analyzer (tools/ecdplint): the
 * lexer's handling of the constructs that usually derail token-level
 * tools (raw strings, comments, preprocessor continuations), the
 * structural pass (member extraction through nested templates,
 * initializers and lambdas), and exact-violation assertions for all
 * three rules over their seeded fixtures. A meta-test walks the rule
 * registry so a fourth rule cannot ship without a fixture proving it
 * fires.
 */

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ecdplint/analyzer.hh"

namespace fs = std::filesystem;
using namespace ecdp::lint;

namespace
{

std::vector<std::string>
tokenTexts(const std::string &src)
{
    std::vector<std::string> texts;
    for (const Token &t : lex(src).tokens)
        texts.push_back(t.text);
    return texts;
}

Analysis
analyze(const std::string &src)
{
    std::vector<SourceFile> files;
    files.push_back(sourceFromString("mem.hh", src));
    return Analysis(std::move(files));
}

const ClassInfo *
findClass(const Analysis &a, const std::string &name)
{
    for (const ClassInfo &c : a.classes()) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

const Rule &
ruleByName(const std::string &name)
{
    for (const Rule &r : rules()) {
        if (name == r.name)
            return r;
    }
    throw std::runtime_error("no such rule: " + name);
}

/** Load every .hh/.cc under <fixtures>/<rule>/src and run <rule>. */
std::vector<Violation>
runRuleOnFixture(const std::string &rule)
{
    fs::path dir = fs::path(ECDP_LINT_FIXTURE_DIR) / rule / "src";
    std::vector<std::string> paths;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".hh" ||
            e.path().extension() == ".cc")
            paths.push_back(e.path().string());
    }
    std::sort(paths.begin(), paths.end());
    std::vector<SourceFile> files;
    for (const std::string &p : paths)
        files.push_back(loadSource(p));
    Analysis analysis(std::move(files));
    std::vector<Violation> out;
    ruleByName(rule).check(analysis, out);
    return out;
}

std::vector<int>
lines(const std::vector<Violation> &vs)
{
    std::vector<int> out;
    for (const Violation &v : vs)
        out.push_back(v.line);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

// ----------------------------------------------------------------
// Lexer

TEST(EcdplintLexer, RawStringIsOneTokenAndHidesBraces)
{
    auto texts = tokenTexts("auto s = R\"(a \" { } // x)\"; int y;");
    std::vector<std::string> expect = {
        "auto", "s", "=", "R\"(a \" { } // x)\"", ";", "int", "y",
        ";"};
    EXPECT_EQ(texts, expect);
}

TEST(EcdplintLexer, RawStringWithDelimiter)
{
    // A plain )" inside must not close a delimited raw string.
    auto texts = tokenTexts("R\"ecdp(a )\" b)ecdp\" z");
    ASSERT_EQ(texts.size(), std::size_t(2));
    EXPECT_EQ(texts[0], "R\"ecdp(a )\" b)ecdp\"");
    EXPECT_EQ(texts[1], "z");
}

TEST(EcdplintLexer, CommentsProduceNoTokensButAreRecorded)
{
    LexResult r = lex("int a; // int b;\n/* int c; */ int d;\n");
    auto texts = tokenTexts("int a; // int b;\n/* int c; */ int d;\n");
    std::vector<std::string> expect = {"int", "a", ";",
                                       "int", "d", ";"};
    EXPECT_EQ(texts, expect);
    ASSERT_TRUE(r.comments.count(1));
    EXPECT_NE(r.comments.at(1).find("int b;"), std::string::npos);
    ASSERT_TRUE(r.comments.count(2));
    EXPECT_NE(r.comments.at(2).find("int c;"), std::string::npos);
}

TEST(EcdplintLexer, BlockCommentSpansMarkEveryLine)
{
    LexResult r = lex("/**\n * docs\n */\nclass A;\n");
    EXPECT_TRUE(r.comments.count(1));
    EXPECT_TRUE(r.comments.count(2));
    EXPECT_TRUE(r.comments.count(3));
    ASSERT_FALSE(r.tokens.empty());
    EXPECT_EQ(r.tokens[0].text, "class");
    EXPECT_EQ(r.tokens[0].line, 4);
}

TEST(EcdplintLexer, StringEscapesDoNotDesync)
{
    auto texts = tokenTexts("f(\"a\\\"b{\"); g('\\'');");
    std::vector<std::string> expect = {"f", "(", "\"a\\\"b{\"", ")",
                                       ";", "g", "(", "'\\''",
                                       ")", ";"};
    EXPECT_EQ(texts, expect);
}

TEST(EcdplintLexer, PreprocessorLinesVanishIncludingContinuations)
{
    LexResult r =
        lex("#define FOO(a) \\\n    bar(a)\n#include <mutex>\n"
            "int x;\n");
    ASSERT_EQ(r.tokens.size(), std::size_t(3));
    EXPECT_EQ(r.tokens[0].text, "int");
    EXPECT_EQ(r.tokens[0].line, 4);
}

TEST(EcdplintLexer, MultiCharPunctsAndDigitSeparators)
{
    auto texts = tokenTexts("a->b(); std::size_t n = 1'000'000;");
    std::vector<std::string> expect = {
        "a", "->", "b",         "(", ")", ";", "std",
        "::", "size_t", "n", "=", "1'000'000", ";"};
    EXPECT_EQ(texts, expect);
}

// ----------------------------------------------------------------
// Structural analysis

TEST(EcdplintAnalyzer, ExtractsMembersThroughNestedTemplates)
{
    Analysis a = analyze(
        "class C\n"
        "{\n"
        "    std::map<std::string, std::shared_ptr<Cell>> cells_\n"
        "        ECDP_GUARDED_BY(mutex_);\n"
        "    std::atomic<std::uint64_t> hits_{0};\n"
        "    std::vector<std::pair<int, int>> edges_ = {};\n"
        "};\n");
    const ClassInfo *c = findClass(a, "C");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->members.size(), std::size_t(3));
    EXPECT_EQ(c->members[0].name, "cells_");
    EXPECT_TRUE(Analysis::isGrowableContainer(c->members[0].type));
    EXPECT_EQ(c->members[1].name, "hits_");
    EXPECT_EQ(c->members[2].name, "edges_");
}

TEST(EcdplintAnalyzer, FunctionsAndOperatorsAreNotMembers)
{
    Analysis a = analyze(
        "class C\n"
        "{\n"
        "  public:\n"
        "    C(const C &) = delete;\n"
        "    C &operator=(const C &) = delete;\n"
        "    void stop() ECDP_EXCLUDES(mutex_);\n"
        "    unsigned size() const { return n_; }\n"
        "  private:\n"
        "    unsigned n_ = 0;\n"
        "};\n");
    const ClassInfo *c = findClass(a, "C");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->members.size(), std::size_t(1));
    EXPECT_EQ(c->members[0].name, "n_");
}

TEST(EcdplintAnalyzer, LambdaBracesInMethodsDoNotDerailExtraction)
{
    Analysis a = analyze(
        "class C\n"
        "{\n"
        "  public:\n"
        "    void run()\n"
        "    {\n"
        "        MutexLock lock(mutex_);\n"
        "        auto f = [this] { return queue_.size() > 0; };\n"
        "        f();\n"
        "    }\n"
        "  private:\n"
        "    AnnotatedMutex mutex_;\n"
        "    std::deque<int> queue_;\n"
        "};\n");
    const ClassInfo *c = findClass(a, "C");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->members.size(), std::size_t(2));
    EXPECT_EQ(c->members[0].name, "mutex_");
    EXPECT_EQ(c->members[1].name, "queue_");
}

TEST(EcdplintAnalyzer, LongLivedTagBindsThroughCommentBlockOnly)
{
    Analysis a = analyze(
        "/**\n"
        " * Documented like the real classes.\n"
        " */\n"
        "// ecdplint: long-lived\n"
        "class Tagged\n"
        "{\n"
        "};\n"
        "\n"
        "class Untagged\n"
        "{\n"
        "};\n");
    const ClassInfo *tagged = findClass(a, "Tagged");
    const ClassInfo *untagged = findClass(a, "Untagged");
    ASSERT_NE(tagged, nullptr);
    ASSERT_NE(untagged, nullptr);
    EXPECT_TRUE(tagged->longLived);
    EXPECT_FALSE(untagged->longLived);
}

TEST(EcdplintAnalyzer, TagSeparatedByBlankLineDoesNotBind)
{
    Analysis a = analyze("// ecdplint: long-lived\n"
                         "\n"
                         "class NotBound\n"
                         "{\n"
                         "};\n");
    const ClassInfo *c = findClass(a, "NotBound");
    ASSERT_NE(c, nullptr);
    EXPECT_FALSE(c->longLived);
}

TEST(EcdplintAnalyzer, CollectsFunctionAliasesAndCallbackMembers)
{
    Analysis a = analyze(
        "using Done = std::function<void(std::string)>;\n"
        "using Clock = std::chrono::steady_clock;\n"
        "class C\n"
        "{\n"
        "    Done done_;\n"
        "    std::function<void()> raw_;\n"
        "    int n_ = 0;\n"
        "};\n");
    EXPECT_TRUE(a.callbackAliases().count("Done"));
    EXPECT_FALSE(a.callbackAliases().count("Clock"));
    EXPECT_TRUE(a.callbackMembers().count("done_"));
    EXPECT_TRUE(a.callbackMembers().count("raw_"));
    EXPECT_FALSE(a.callbackMembers().count("n_"));
}

TEST(EcdplintAnalyzer, NestedClassMembersStayWithTheNestedClass)
{
    Analysis a = analyze("// ecdplint: long-lived\n"
                         "class Outer\n"
                         "{\n"
                         "    struct Job\n"
                         "    {\n"
                         "        std::vector<int> scratch;\n"
                         "    };\n"
                         "    int n_ = 0;\n"
                         "};\n");
    const ClassInfo *outer = findClass(a, "Outer");
    const ClassInfo *job = findClass(a, "Job");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(job, nullptr);
    EXPECT_TRUE(outer->longLived);
    EXPECT_FALSE(job->longLived); // nested structs are exempt
    ASSERT_EQ(outer->members.size(), std::size_t(1));
    EXPECT_EQ(outer->members[0].name, "n_");
    ASSERT_EQ(job->members.size(), std::size_t(1));
    EXPECT_EQ(job->members[0].name, "scratch");
}

// ----------------------------------------------------------------
// Rules over the seeded fixtures (exact violations)

TEST(EcdplintRules, CallbackUnderLockFixture)
{
    std::vector<Violation> vs =
        runRuleOnFixture("callback-under-lock");
    ASSERT_EQ(vs.size(), std::size_t(1));
    EXPECT_EQ(vs[0].line, 19);
    EXPECT_NE(vs[0].message.find("done_"), std::string::npos);
}

TEST(EcdplintRules, MemberDestructionOrderFixture)
{
    std::vector<Violation> vs =
        runRuleOnFixture("member-destruction-order");
    // The captured pre-fix daemon ordering: every data member after
    // the by-value pool. The fixed GoodDaemon must stay silent.
    std::vector<int> expect = {36, 37, 38, 39, 41, 43, 44, 45};
    EXPECT_EQ(lines(vs), expect);
    for (const Violation &v : vs)
        EXPECT_NE(v.message.find("BadDaemon"), std::string::npos);
}

TEST(EcdplintRules, UnboundedContainerFixture)
{
    std::vector<Violation> vs =
        runRuleOnFixture("unbounded-container");
    ASSERT_EQ(vs.size(), std::size_t(1));
    EXPECT_EQ(vs[0].line, 31);
    EXPECT_NE(vs[0].message.find("sessions_"), std::string::npos);
}

TEST(EcdplintRules, RelockableGuardGapIsNotUnderLock)
{
    // The thread-pool worker loop unlocks around running the job;
    // invoking the callback in that gap is legal.
    std::vector<SourceFile> files;
    files.push_back(sourceFromString(
        "gap.cc",
        "using Job = std::function<void()>;\n"
        "void run(AnnotatedMutex &m, Job job)\n"
        "{\n"
        "    MutexLock lock(m);\n"
        "    lock.unlock();\n"
        "    job();\n"
        "    lock.lock();\n"
        "    job();\n"
        "}\n"));
    Analysis a(std::move(files));
    std::vector<Violation> vs;
    ruleByName("callback-under-lock").check(a, vs);
    ASSERT_EQ(vs.size(), std::size_t(1));
    EXPECT_EQ(vs[0].line, 8); // only the re-locked invocation
}

// ----------------------------------------------------------------
// Meta: every registered rule must prove itself on a fixture.

TEST(EcdplintRules, EveryRuleHasAFiringFixture)
{
    for (const Rule &r : rules()) {
        fs::path dir =
            fs::path(ECDP_LINT_FIXTURE_DIR) / r.name / "src";
        ASSERT_TRUE(fs::is_directory(dir))
            << "rule " << r.name << " has no fixture dir";
        std::vector<Violation> vs = runRuleOnFixture(r.name);
        EXPECT_FALSE(vs.empty())
            << "rule " << r.name
            << " does not fire on its own fixture";
        for (const Violation &v : vs)
            EXPECT_EQ(v.rule, r.name);
    }
}
