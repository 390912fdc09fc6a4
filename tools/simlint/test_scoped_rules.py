#!/usr/bin/env python3
"""Unit cases for simlint's scope-aware pass: the tokenizer, the
structural pass (classes, data members, std::function aliases) and the
three concurrency rules, each case on a few lines of C++ or on one
seeded fixture file.

The suite and case names are the ids these cases have carried since
the concurrency rules had a C++ analyzer of their own; each id still
checks the behaviour its name says. The fixture tree's pinned output
(fixtures/expected.txt) checks the same behaviours end to end.

    test_scoped_rules.py            run every case
    test_scoped_rules.py --list     print the case ids
    test_scoped_rules.py ID...      run the named cases
"""

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, HERE)
import simlint  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")


def token_texts(src):
    return [t.text for t in simlint.tokenize(src)[0]]


def tree_of(files):
    """A CppTree over @p files, a {name: text} map placed under src/."""
    with tempfile.TemporaryDirectory() as root:
        os.mkdir(os.path.join(root, "src"))
        for name, text in files.items():
            with open(os.path.join(root, "src", name), "w",
                      encoding="utf-8") as f:
                f.write(text)
        return simlint.CppTree(root)


def find_class(tree, name):
    for c in tree.classes:
        if c.name == name:
            return c
    return None


def member_names(cls):
    return [m.name for m in cls.members]


def fixture_findings(rule, name):
    """@p rule's findings in the seeded fixture file src/<name>."""
    tree = simlint.CppTree(FIXTURES)
    return [v for v in simlint.SCOPED_RULES[rule](tree)
            if v.path == os.path.join("src", name)]


class EcdplintLexer(unittest.TestCase):
    def RawStringIsOneTokenAndHidesBraces(self):
        # The literal yields no token at all, so its braces and its
        # "//" never reach a rule.
        self.assertEqual(
            token_texts('auto s = R"(a " { } // x)"; int y;'),
            ["auto", "s", "=", ";", "int", "y", ";"])

    def RawStringWithDelimiter(self):
        # A plain )" inside must not close a delimited raw string.
        self.assertEqual(token_texts('R"ecdp(a )" b)ecdp" z'), ["z"])

    def CommentsProduceNoTokensButAreRecorded(self):
        tokens, comments = simlint.tokenize(
            "int a; // int b;\n/* int c; */ int d;\n")
        self.assertEqual([t.text for t in tokens],
                         ["int", "a", ";", "int", "d", ";"])
        self.assertIn("int b;", comments[1])
        self.assertIn("int c;", comments[2])

    def BlockCommentSpansMarkEveryLine(self):
        tokens, comments = simlint.tokenize("/**\n * docs\n */\nclass A;\n")
        for line in (1, 2, 3):
            self.assertIn(line, comments)
        self.assertNotIn(4, comments)
        self.assertEqual((tokens[0].text, tokens[0].line), ("class", 4))

    def StringEscapesDoNotDesync(self):
        self.assertEqual(token_texts("f(\"a\\\"b{\"); g('\\'');"),
                         ["f", "(", ")", ";", "g", "(", ")", ";"])

    def PreprocessorLinesVanishIncludingContinuations(self):
        tokens, _ = simlint.tokenize(
            "#define FOO(a) \\\n    bar(a)\n#include <mutex>\nint x;\n")
        self.assertEqual([(t.text, t.line) for t in tokens],
                         [("int", 4), ("x", 4), (";", 4)])

    def MultiCharPunctsAndDigitSeparators(self):
        self.assertEqual(
            token_texts("a->b(); std::size_t n = 1'000'000;"),
            ["a", "->", "b", "(", ")", ";", "std", "::", "size_t", "n",
             "=", "1'000'000", ";"])


class EcdplintAnalyzer(unittest.TestCase):
    def ExtractsMembersThroughNestedTemplates(self):
        tree = tree_of({"mem.hh": (
            "class C\n"
            "{\n"
            "    std::map<std::string, std::shared_ptr<Cell>> cells_\n"
            "        ECDP_GUARDED_BY(mutex_);\n"
            "    std::atomic<std::uint64_t> hits_{0};\n"
            "    std::vector<std::pair<int, int>> edges_ = {};\n"
            "};\n")})
        c = find_class(tree, "C")
        self.assertIsNotNone(c)
        self.assertEqual(member_names(c), ["cells_", "hits_", "edges_"])
        self.assertTrue(
            simlint.CONTAINER_TYPES.intersection(c.members[0].type))

    def FunctionsAndOperatorsAreNotMembers(self):
        tree = tree_of({"mem.hh": (
            "class C\n"
            "{\n"
            "  public:\n"
            "    C(const C &) = delete;\n"
            "    C &operator=(const C &) = delete;\n"
            "    void stop() ECDP_EXCLUDES(mutex_);\n"
            "    unsigned size() const { return n_; }\n"
            "  private:\n"
            "    unsigned n_ = 0;\n"
            "};\n")})
        c = find_class(tree, "C")
        self.assertIsNotNone(c)
        self.assertEqual(member_names(c), ["n_"])

    def LambdaBracesInMethodsDoNotDerailExtraction(self):
        tree = tree_of({"mem.hh": (
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
            "};\n")})
        c = find_class(tree, "C")
        self.assertIsNotNone(c)
        self.assertEqual(member_names(c), ["mutex_", "queue_"])

    def LongLivedTagBindsThroughCommentBlockOnly(self):
        tree = tree_of({"mem.hh": (
            "/**\n"
            " * Documented like the real classes.\n"
            " */\n"
            "// simlint: long-lived\n"
            "class Tagged\n"
            "{\n"
            "};\n"
            "\n"
            "class Untagged\n"
            "{\n"
            "};\n")})
        self.assertTrue(find_class(tree, "Tagged").long_lived)
        self.assertFalse(find_class(tree, "Untagged").long_lived)

    def TagSeparatedByBlankLineDoesNotBind(self):
        tree = tree_of({"mem.hh": ("// simlint: long-lived\n"
                                   "\n"
                                   "class NotBound\n"
                                   "{\n"
                                   "};\n")})
        c = find_class(tree, "NotBound")
        self.assertIsNotNone(c)
        self.assertFalse(c.long_lived)

    def CollectsFunctionAliasesAndCallbackMembers(self):
        tree = tree_of({"mem.hh": (
            "using Done = std::function<void(std::string)>;\n"
            "using Clock = std::chrono::steady_clock;\n"
            "class C\n"
            "{\n"
            "    Done done_;\n"
            "    std::function<void()> raw_;\n"
            "    int n_ = 0;\n"
            "};\n")})
        self.assertIn("Done", tree.aliases)
        self.assertNotIn("Clock", tree.aliases)
        self.assertIn("done_", tree.callback_members)
        self.assertIn("raw_", tree.callback_members)
        self.assertNotIn("n_", tree.callback_members)

    def NestedClassMembersStayWithTheNestedClass(self):
        tree = tree_of({"mem.hh": ("// simlint: long-lived\n"
                                   "class Outer\n"
                                   "{\n"
                                   "    struct Job\n"
                                   "    {\n"
                                   "        std::vector<int> scratch;\n"
                                   "    };\n"
                                   "    int n_ = 0;\n"
                                   "};\n")})
        outer = find_class(tree, "Outer")
        job = find_class(tree, "Job")
        self.assertTrue(outer.long_lived)
        self.assertFalse(job.long_lived)  # nested structs are exempt
        self.assertEqual(member_names(outer), ["n_"])
        self.assertEqual(member_names(job), ["scratch"])


class EcdplintRules(unittest.TestCase):
    def CallbackUnderLockFixture(self):
        vs = fixture_findings("callback-under-lock",
                              "bad_callback_under_lock.cc")
        self.assertEqual([v.line for v in vs], [19])
        self.assertIn("done_", vs[0].message)

    def MemberDestructionOrderFixture(self):
        vs = fixture_findings("member-destruction-order",
                              "bad_daemon_members.hh")
        # The captured pre-fix daemon ordering: every data member after
        # the by-value pool. The fixed GoodDaemon must stay silent.
        self.assertEqual(sorted(v.line for v in vs),
                         [36, 37, 38, 39, 41, 43, 44, 45])
        for v in vs:
            self.assertIn("BadDaemon", v.message)

    def UnboundedContainerFixture(self):
        vs = fixture_findings("unbounded-container", "bad_unbounded.hh")
        self.assertEqual([v.line for v in vs], [31])
        self.assertIn("sessions_", vs[0].message)

    def RelockableGuardGapIsNotUnderLock(self):
        # The thread-pool worker loop unlocks around running the job;
        # invoking the callback in that gap is legal.
        tree = tree_of({"gap.cc": ("using Job = std::function<void()>;\n"
                                   "void run(AnnotatedMutex &m, Job job)\n"
                                   "{\n"
                                   "    MutexLock lock(m);\n"
                                   "    lock.unlock();\n"
                                   "    job();\n"
                                   "    lock.lock();\n"
                                   "    job();\n"
                                   "}\n")})
        vs = simlint.check_callback_under_lock(tree)
        # Only the re-locked invocation.
        self.assertEqual([v.line for v in vs], [8])


CASES = (EcdplintLexer, EcdplintAnalyzer, EcdplintRules)


def case_ids():
    return ["%s.%s" % (cls.__name__, name)
            for cls in CASES for name in vars(cls)
            if name[:1].isupper()]


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--list"]:
        print("\n".join(case_ids()))
        sys.exit(0)
    suite = unittest.defaultTestLoader.loadTestsFromNames(
        args or case_ids(), sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    sys.exit(0 if result.wasSuccessful() and result.testsRun else 1)
