#!/usr/bin/env python3
"""simlint — static invariant checker for the ECDP simulator tree.

Enforces repository invariants that the C++ type system cannot (or
that live across files), so the byte-vs-block and silent-stat bug
classes fail CI instead of corrupting experiments:

  magic-block-shift     No shift by a literal 6/7/8 (the usual block
                        shifts for 64/128/256-byte blocks) anywhere in
                        src/ outside memsim/block_geometry.hh. Every
                        byte<->block conversion must go through
                        BlockGeometry so it tracks the configured
                        block size.
  raw-addr-param        No public interface in a src/ header may take
                        a raw std::uint32_t/std::uint64_t parameter
                        named like an address (addr/vaddr/pc/...).
                        Use ByteAddr/BlockAddr/Cycle from
                        memsim/types.hh so unit mixing cannot compile.
  unregistered-counter  Every obs::Counter* member declared in src/
                        must be registered with the MetricRegistry
                        (assigned from a counter(...) call) somewhere
                        in src/. An unregistered counter is a null
                        deref waiting on the hot path — or a stat that
                        silently never reaches the output JSON.
  test-registration     Every gtest suite defined in tests/*.cc must
                        appear in the ctest listing of the built test
                        binary (requires --build-dir). A suite can go
                        missing when a source file never makes it into
                        the test target or gtest discovery fails —
                        either way a "green" run simply isn't running
                        those tests.
  engine-conformance    Every class inheriting PrefetchEngine in src/
                        must be constructed by a factory
                        (make<Class> or make_unique<Class> somewhere
                        in src/, i.e. a kEngines row in
                        prefetch/engine.cc), and every kEngines row
                        {"name", ...} must have a conformance fixture
                        row ({"name", WorkloadKind...}) in
                        tests/engine_harness.hh — so a new engine
                        cannot ship outside the table or dodge the
                        conformance battery.
  policy-conformance    The same check for ThrottlePolicy classes,
                        the kPolicies table (throttle/policies.cc)
                        and the fixture rows ({"name", PolicyProbe...})
                        in tests/test_throttle_policy.cc.
  raw-process-spawn     No system()/fork()/vfork()/popen()/exec*()/
                        posix_spawn() call anywhere in src/, tools/,
                        bench/, tests/ or examples/ outside
                        src/server/process_util.*. Process spawning
                        must go through WorkerProcess/WorkerSet so
                        exec failures, exit/signal decoding, fd
                        hygiene (CLOEXEC status pipe, non-blocking
                        stdin feed) and SIGPIPE handling live in one
                        audited place — a raw fork that forgets any
                        of these hangs or leaks a child only under
                        load.
  raw-mutex             No raw std::mutex (or shared/recursive/timed
                        flavour) declaration anywhere in src/, tools/,
                        bench/ or examples/ outside
                        src/memsim/thread_annotations.hh. Use
                        AnnotatedMutex/MutexLock from that header so
                        clang -Wthread-safety sees every lock. tests/
                        are exempt (test-local synchronization is
                        fine), as is simlint's own fixture tree.
  hot-path-vector       In files tagged '// simlint: hot-path', no
                        line may construct a std::vector by value: a
                        per-event heap allocation is exactly the bug
                        class the hot-path flattening removed
                        (Mshr::ripe() once returned a fresh vector per
                        event). Members (identifier ending in '_') and
                        references/pointers are fine — the rule
                        targets locals and by-value returns. Move the
                        buffer to a caller-owned scratch member, or
                        suppress with a reason if the line provably
                        runs outside the event loop.
  sim-clock             No host clock read (std::chrono steady_clock/
                        system_clock/high_resolution_clock,
                        clock_gettime, gettimeofday) anywhere in src/
                        outside src/runner/ and src/server/. The
                        simulated machine is measured by deterministic
                        counters in the MetricRegistry; wall time is
                        measured from outside it (simbench, perfbench),
                        so a clock probe in the model cannot slow the
                        run it claims to explain.
  callback-under-lock   No deferred callback (a std::function value:
                        alias-typed or std::function member, local or
                        parameter) may be invoked in src/ while a
                        MutexLock/lock_guard/unique_lock/scoped_lock
                        guard is held in an enclosing scope; the gap
                        between guard.unlock() and guard.lock() is not
                        held. Callbacks re-enter subsystems: decide
                        under the lock, invoke after the guard closes.
  member-destruction-order
                        No data member may be declared after a
                        thread/pool/server member (std::thread,
                        jthread, HttpServer, ThreadPool, ResultStore,
                        ExperimentRunner; pointers excepted). Members
                        destroy in reverse declaration order, so state
                        a worker's callbacks touch is declared first.
  unbounded-container   A growable container member of a class tagged
                        '// simlint: long-lived' (on the class line or
                        in the comment lines right above it) needs an
                        erase path somewhere in src/ (x.erase/pop_front/
                        pop_back/clear/swap(, or swap(x), matched by
                        name) or a '// simlint-cap(<bound>)' note on
                        its line or the two above. Every admission
                        needs a matching eviction.

Suppress a finding by putting, on the offending line (or the line
above it):

    // simlint-allow(<rule>): <reason>

The reason is mandatory by convention: a suppression without a why
will not survive review.

Usage:
    tools/simlint/simlint.py [--root DIR] [--build-dir DIR]
                             [--rules r1,r2] [--list-rules]

Exit status: 0 clean, 1 violations found, 2 usage/environment error.
"""

import argparse
import collections
import os
import re
import subprocess
import sys

RULES = (
    "magic-block-shift",
    "raw-addr-param",
    "unregistered-counter",
    "test-registration",
    "engine-conformance",
    "policy-conformance",
    "raw-process-spawn",
    "raw-mutex",
    "hot-path-vector",
    "sim-clock",
    "callback-under-lock",
    "member-destruction-order",
    "unbounded-container",
)

ALLOW_RE = re.compile(r"simlint-allow\(([a-z-]+)\)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def iter_source_files(root, subdir, exts=(".hh", ".cc")):
    base = os.path.join(root, subdir)
    for dirpath, _dirnames, filenames in sorted(os.walk(base)):
        for name in sorted(filenames):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


def allowed(lines, idx, rule):
    """True if line idx (0-based) carries or follows a suppression."""
    here = ALLOW_RE.search(lines[idx])
    if here and here.group(1) == rule:
        return True
    if idx > 0:
        above = ALLOW_RE.search(lines[idx - 1])
        if above and above.group(1) == rule and \
                lines[idx - 1].lstrip().startswith("//"):
            return True
    return False


def relpath(root, path):
    return os.path.relpath(path, root)


# --- magic-block-shift ------------------------------------------------

SHIFT_RE = re.compile(r"(<<|>>)\s*[678]\b")
SHIFT_EXEMPT = os.path.join("src", "memsim", "block_geometry.hh")


def check_magic_block_shift(root):
    out = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        if rel == SHIFT_EXEMPT:
            continue
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            if not SHIFT_RE.search(code):
                continue
            if allowed(lines, i, "magic-block-shift"):
                continue
            out.append(Violation(
                rel, i + 1, "magic-block-shift",
                "shift by literal block-shift candidate (6/7/8); "
                "use BlockGeometry (memsim/block_geometry.hh) or "
                "add 'simlint-allow(magic-block-shift): <reason>'"))
    return out


# --- raw-addr-param ---------------------------------------------------

ADDR_PARAM_RE = re.compile(
    r"std::uint(?:32|64)_t\s+(\w+)\s*(?:=\s*[\w:{}]+\s*)?[,)]")
ADDR_NAME_RE = re.compile(r"(addr|vaddr|paddr)", re.IGNORECASE)


def is_addr_name(name):
    if ADDR_NAME_RE.search(name):
        return True
    return name in ("pc", "loadPc") or name.endswith("Pc") or \
        (name.startswith("pc") and len(name) > 2 and name[2].isupper())


def check_raw_addr_param(root):
    out = []
    for path in iter_source_files(root, "src", exts=(".hh",)):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            for m in ADDR_PARAM_RE.finditer(code):
                name = m.group(1)
                if not is_addr_name(name):
                    continue
                if allowed(lines, i, "raw-addr-param"):
                    continue
                out.append(Violation(
                    rel, i + 1, "raw-addr-param",
                    "raw integer parameter '%s' looks like an "
                    "address; use ByteAddr/BlockAddr from "
                    "memsim/types.hh" % name))
    return out


# --- unregistered-counter ---------------------------------------------

COUNTER_DECL_RE = re.compile(
    r"(?:obs::)?Counter\s*\*\s*(\w+)\s*(?:\[\w*\])?\s*=\s*(?:nullptr|\{\})")
COUNTER_REG_RE = re.compile(
    r"\b(\w+)\s*(?:\[\w+\])?\s*=\s*&[^;]*?\bcounter\(", re.DOTALL)


def check_unregistered_counter(root):
    decls = []  # (rel, line_no, name)
    registered = set()
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            m = COUNTER_DECL_RE.search(code)
            if m and not allowed(lines, i, "unregistered-counter"):
                decls.append((rel, i + 1, m.group(1)))
        for m in COUNTER_REG_RE.finditer(text):
            registered.add(m.group(1))
    out = []
    for rel, line_no, name in decls:
        if name in registered:
            continue
        out.append(Violation(
            rel, line_no, "unregistered-counter",
            "obs::Counter* member '%s' is never assigned from a "
            "MetricRegistry counter(...) call; register it or it "
            "stays null and its stat never reaches the output" % name))
    return out


# --- test-registration ------------------------------------------------

TEST_SUITE_RE = re.compile(r"TEST(?:_[FP])?\(\s*([A-Za-z0-9_]+)")


def check_test_registration(root, build_dir):
    out = []
    suites = {}
    for path in iter_source_files(root, "tests", exts=(".cc",)):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            m = TEST_SUITE_RE.search(line.split("//", 1)[0])
            if m:
                suites.setdefault(m.group(1), (rel, i + 1))
    try:
        listing = subprocess.run(
            ["ctest", "--test-dir", build_dir, "-N"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print("simlint: error: ctest listing failed for %r: %s"
              % (build_dir, e), file=sys.stderr)
        sys.exit(2)
    # Fixture and parameterized suites appear in ctest names as
    # ".../Suite.Test/...", so a plain "Suite." match covers
    # TEST, TEST_F and TEST_P alike.
    for suite in sorted(suites):
        if suite + "." not in listing:
            rel, line_no = suites[suite]
            out.append(Violation(
                rel, line_no, "test-registration",
                "gtest suite '%s' is defined in tests/ but absent "
                "from the ctest listing — it would silently not "
                "run in CI" % suite))
    return out


# --- engine-conformance / policy-conformance -------------------------

# One check, two kinds: every class implementing the kind's interface
# must be constructed by a factory in src/ (the table's make<Class>
# rows, or a make_unique<Class> in a hand-written factory), and every
# row of the kind's constant table must have a conformance fixture row
# under tests/.
CONFORMANCE_KINDS = {
    "engine-conformance": dict(
        base="PrefetchEngine", table="kEngines",
        table_file="prefetch/engine.cc",
        fixture_re=re.compile(
            r"\{\s*\"([a-z0-9_-]+)\"\s*,\s*WorkloadKind"),
        fixture="'{\"%s\", WorkloadKind...}' in tests/engine_harness.hh",
        noun="engine"),
    "policy-conformance": dict(
        base="ThrottlePolicy", table="kPolicies",
        table_file="throttle/policies.cc",
        fixture_re=re.compile(
            r"\{\s*\"([a-z0-9_-]+)\"\s*,\s*PolicyProbe"),
        fixture="'{\"%s\", PolicyProbe...}' in "
                "tests/test_throttle_policy.cc",
        noun="throttle policy"),
}
MAKE_RE = re.compile(r"\bmake(?:_unique)?<\s*(\w+)\s*>")
TABLE_ROW_RE = re.compile(r"\{\s*\"([a-z0-9_-]+)\"\s*,")


def check_conformance(root, rule):
    kind = CONFORMANCE_KINDS[rule]
    class_re = re.compile(r"class\s+(\w+)\s*(?:final)?\s*:\s*public\s+"
                          + kind["base"] + r"\b")
    table_re = re.compile(r"\b" + kind["table"] +
                          r"\s*\[\s*\]\s*=\s*\{(.*?)^\};",
                          re.S | re.M)
    classes = []  # (rel, line_no, class name)
    rows = []     # (rel, line_no, table name)
    constructed = set()
    fixture_rows = set()
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            m = class_re.search(code)
            if m and not allowed(lines, i, rule):
                classes.append((rel, i + 1, m.group(1)))
            for m in MAKE_RE.finditer(code):
                constructed.add(m.group(1))
        for table in table_re.finditer(text):
            for m in TABLE_ROW_RE.finditer(table.group(1)):
                i = text.count("\n", 0, table.start(1) + m.start())
                if not allowed(lines, i, rule):
                    rows.append((rel, i + 1, m.group(1)))
    for path in iter_source_files(root, "tests"):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for m in kind["fixture_re"].finditer(text):
            fixture_rows.add(m.group(1))

    out = []
    for rel, line_no, name in classes:
        if name in constructed:
            continue
        out.append(Violation(
            rel, line_no, rule,
            "class '%s' inherits %s but no factory constructs it (no "
            "make<%s> or make_unique<%s> in src/); add a %s row in %s "
            "so configurations and the conformance battery can reach "
            "it" % (name, kind["base"], name, name, kind["table"],
                    kind["table_file"])))
    for rel, line_no, name in rows:
        if name in fixture_rows:
            continue
        out.append(Violation(
            rel, line_no, rule,
            "%s '%s' has a %s row but no conformance fixture row (%s); "
            "the conformance battery cannot exercise it"
            % (kind["noun"], name, kind["table"],
               kind["fixture"] % name)))
    return out


# --- raw-process-spawn ------------------------------------------------

SPAWN_RE = re.compile(
    r"(?<![\w:.>])(?:std\s*::\s*|::\s*)?"
    r"(system|fork|vfork|popen|exec(?:l|lp|le|v|vp|vpe)|"
    r"posix_spawnp?)\s*\(")
SPAWN_EXEMPT_PREFIX = os.path.join("src", "server", "process_util")
SPAWN_SUBDIRS = ("src", "tools", "bench", "tests", "examples")
# The seeded-violation fixture tree lives under tools/; the clean run
# over the real repository must not trip on it.
FIXTURE_PREFIX = os.path.join("tools", "simlint")


def check_raw_process_spawn(root):
    out = []
    for subdir in SPAWN_SUBDIRS:
        for path in iter_source_files(root, subdir):
            rel = relpath(root, path)
            if rel.startswith(SPAWN_EXEMPT_PREFIX) or \
                    rel.startswith(FIXTURE_PREFIX):
                continue
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            for i, line in enumerate(lines):
                code = line.split("//", 1)[0]
                # Block-comment bodies ("* ... system (...") are prose.
                if code.lstrip().startswith(("*", "/*")):
                    continue
                m = SPAWN_RE.search(code)
                if not m:
                    continue
                if allowed(lines, i, "raw-process-spawn"):
                    continue
                out.append(Violation(
                    rel, i + 1, "raw-process-spawn",
                    "raw process spawn '%s()' outside "
                    "src/server/process_util; use WorkerProcess/"
                    "WorkerSet so exec failure reporting, exit/"
                    "signal decoding and fd hygiene stay in one "
                    "audited place, or add "
                    "'simlint-allow(raw-process-spawn): <reason>'"
                    % m.group(1)))
    return out


# --- raw-mutex --------------------------------------------------------

# A mutex type followed by a declarator name. Template arguments
# (std::lock_guard<std::mutex>) and return-by-reference
# (std::mutex &native()) do not match: both lack the
# whitespace-then-identifier tail.
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex)\s+\w+")
MUTEX_EXEMPT = os.path.join("src", "memsim", "thread_annotations.hh")
MUTEX_SUBDIRS = ("src", "tools", "bench", "examples")


def check_raw_mutex(root):
    out = []
    for subdir in MUTEX_SUBDIRS:
        for path in iter_source_files(root, subdir):
            rel = relpath(root, path)
            if rel == MUTEX_EXEMPT or rel.startswith(FIXTURE_PREFIX):
                continue
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            for i, line in enumerate(lines):
                code = line.split("//", 1)[0]
                m = RAW_MUTEX_RE.search(code)
                if not m:
                    continue
                if allowed(lines, i, "raw-mutex"):
                    continue
                out.append(Violation(
                    rel, i + 1, "raw-mutex",
                    "raw std::%s declared outside "
                    "memsim/thread_annotations.hh; use "
                    "AnnotatedMutex/MutexLock so clang "
                    "-Wthread-safety sees the lock, or add "
                    "'simlint-allow(raw-mutex): <reason>'"
                    % m.group(1)))
    return out


# --- hot-path-vector --------------------------------------------------

HOT_PATH_MARK_RE = re.compile(r"//\s*simlint:\s*hot-path\b")
VECTOR_RE = re.compile(r"std::vector\s*<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def vector_by_value_at(code, start):
    """True if the std::vector< at @p start declares a by-value object.

    @p start indexes the character right after the opening '<'. Tracks
    template nesting to the matching '>', then inspects what follows:
    a reference or pointer ('&'/'*') is not an allocation site, and an
    identifier ending in '_' is a member buffer by the repo's naming
    convention (allocated once at construction, reused per event).
    Anything else — a local, a by-value return type, or a braced
    temporary — is a per-event allocation candidate. A '<' that never
    closes on this line (multi-line declaration) is skipped rather
    than guessed at.
    """
    depth = 1
    i = start
    while i < len(code) and depth:
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
        i += 1
    if depth:
        return False
    while i < len(code) and code[i].isspace():
        i += 1
    if i < len(code) and code[i] in "&*":
        return False
    m = IDENT_RE.match(code, i)
    if m and m.group(0).endswith("_"):
        return False
    return True


def check_hot_path_vector(root):
    out = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        if not any(HOT_PATH_MARK_RE.search(l) for l in lines):
            continue
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            for m in VECTOR_RE.finditer(code):
                if not vector_by_value_at(code, m.end()):
                    continue
                if allowed(lines, i, "hot-path-vector"):
                    continue
                out.append(Violation(
                    rel, i + 1, "hot-path-vector",
                    "by-value std::vector in a hot-path file is a "
                    "per-event allocation; use a caller-owned "
                    "scratch member (name ending in '_') or add "
                    "'simlint-allow(hot-path-vector): <reason>'"))
                break
    return out


# --- sim-clock --------------------------------------------------------

CLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock|"
    r"clock_gettime|gettimeofday)\b")
# The experiment runner and the daemon time real work (queue waits,
# request latency); the simulated machine itself never reads a clock.
CLOCK_EXEMPT_PREFIXES = (
    os.path.join("src", "runner") + os.sep,
    os.path.join("src", "server") + os.sep,
)


def check_sim_clock(root):
    out = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        if rel.startswith(CLOCK_EXEMPT_PREFIXES):
            continue
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            # Block-comment bodies are prose.
            if code.lstrip().startswith(("*", "/*")):
                continue
            m = CLOCK_RE.search(code)
            if not m:
                continue
            if allowed(lines, i, "sim-clock"):
                continue
            out.append(Violation(
                rel, i + 1, "sim-clock",
                "host clock '%s' read in the simulated machine; "
                "count the event in the MetricRegistry and time it "
                "from outside src/ (simbench, perfbench), or add "
                "'simlint-allow(sim-clock): <reason>'" % m.group(1)))
    return out


# --- scope-aware concurrency rules ------------------------------------

# callback-under-lock, member-destruction-order and unbounded-container
# need scopes, classes and members, which a line regex cannot see. They
# share one token stream per src/ file and one structural pass over it
# (CppTree). Comments, string/char/raw-string literals and preprocessor
# lines (continuations included) yield no token, so a brace or a name
# inside them never reaches a rule; numbers stay whole, digit
# separators included.
TOKEN_RE = re.compile(r"""
    (?P<nl>\n)
  | (?P<ws>[ \t\r\v\f]+)
  | (?P<comment>//[^\n]*)
  | (?P<block>/\*.*?(?:\*/|\Z))
  | (?P<pp>\#(?:\\\r*\n|[^\n])*)
  | (?P<raw>R"(?P<delim>[^(\n]*)\((?:.*?\)(?P=delim)"|.*\Z))
  | (?P<lit>"(?:\\.|[^"\\])*(?:"|\Z)|'(?:\\.|[^'\\])*(?:'|\Z))
  | (?P<id>[A-Za-z_]\w*)
  | (?P<num>\d(?:[eEpP][+-]|[\w.'])*)
  | (?P<punct>::|->|.)
""", re.VERBOSE | re.DOTALL | re.ASCII)

Token = collections.namedtuple("Token", "text line ident")
Member = collections.namedtuple("Member", "name type line")

GUARDS = ("MutexLock", "lock_guard", "unique_lock", "scoped_lock")
WORKER_TYPES = frozenset(("thread", "jthread", "HttpServer", "ThreadPool",
                          "ResultStore", "ExperimentRunner"))
CONTAINER_TYPES = frozenset((
    "vector", "deque", "list", "map", "unordered_map", "set",
    "unordered_set", "multimap", "multiset", "unordered_multimap",
    "unordered_multiset"))
SHRINKERS = frozenset(("erase", "pop_front", "pop_back", "clear", "swap"))
LONG_LIVED_TAG = "simlint: long-lived"
CAP_TAG = "simlint-cap("


def tokenize(text):
    """(tokens, comments) of C++ @p text.

    comments maps a line to its comment text. A block comment records
    its text on its first line and an empty entry on every further
    line, so "is this line inside a comment block" stays answerable.
    A '#' opens a preprocessor line only when nothing but blanks and
    comments precede it on its line.
    """
    tokens = []
    comments = {}
    line = 1
    line_start = True
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        kind, chunk = m.lastgroup, m.group()
        if kind == "pp" and not line_start:
            kind, chunk = "punct", "#"
        if kind in ("comment", "block"):
            comments[line] = comments.get(line, "") + " " + chunk
            for k in range(1, chunk.count("\n") + 1):
                comments.setdefault(line + k, "")
        elif kind in ("id", "num", "punct"):
            tokens.append(Token(chunk, line, kind == "id"))
        line_start = kind == "nl" or \
            (line_start and kind in ("ws", "comment", "block"))
        line += chunk.count("\n")
        pos += len(chunk)
    return tokens, comments


def skip_balanced(toks, i, open_, close):
    """Index just past the @p close matching the @p open_ at @p i."""
    depth = 0
    while i < len(toks):
        if toks[i].text == open_:
            depth += 1
        elif toks[i].text == close:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


class CppClass:
    def __init__(self, name, path, long_lived):
        self.name = name
        self.path = path
        self.long_lived = long_lived
        self.members = []


class StructureParser:
    """Classes, data members and std::function aliases of one file.

    Function bodies and member initializers are skipped by balanced
    brace matching, so statements inside them never register as
    members (a lambda's braces included); nested classes register on
    their own.
    """

    def __init__(self, path, toks, comments, classes, aliases):
        self.path = path
        self.toks = toks
        self.comments = comments
        self.classes = classes
        self.aliases = aliases
        self.i = 0

    def at(self, text):
        return self.i < len(self.toks) and self.toks[self.i].text == text

    def skip(self, open_, close):
        self.i = skip_balanced(self.toks, self.i, open_, close)

    def parse_region(self, cls):
        while self.i < len(self.toks):
            if self.at("}"):
                self.i += 1
                return
            if self.at("{"):  # a stray block
                self.skip("{", "}")
                continue
            t = self.toks[self.i].text
            if t == "namespace":
                while self.i < len(self.toks) and not self.at("{") \
                        and not self.at(";"):
                    self.i += 1
                opened = self.at("{")
                self.i += 1
                if opened:
                    self.parse_region(None)
            elif t == "template":
                self.i += 1
                if self.at("<"):
                    self.skip("<", ">")
            elif t in ("class", "struct"):
                self.parse_class()
            elif t == "enum":
                self.skip_to_semicolon()
            elif t == "using":
                self.parse_using()
            elif t in ("public", "private", "protected"):
                self.i += 1
                if self.at(":"):
                    self.i += 1
            else:
                self.parse_statement(cls)

    def skip_to_semicolon(self):
        """Past the next ';' outside braces."""
        while self.i < len(self.toks) and not self.at(";"):
            if self.at("{"):
                self.skip("{", "}")
            else:
                self.i += 1
        self.i += 1

    def parse_class(self):
        line = self.toks[self.i].line
        self.i += 1
        name = ""
        stops = ("{", ";", ":")
        while self.i < len(self.toks) and self.toks[self.i].text \
                not in stops:
            if self.toks[self.i].ident:
                name = self.toks[self.i].text
            elif self.at("("):  # an attribute macro's arguments
                self.skip("(", ")")
            if self.i < len(self.toks) and self.toks[self.i].text \
                    not in stops:
                self.i += 1
        if self.at(";"):  # a forward declaration
            self.i += 1
            return
        while self.i < len(self.toks) and not self.at("{"):
            self.i += 1  # the base clause
        if self.at("{"):
            self.i += 1
            cls = CppClass(name, self.path, self.long_lived(line))
            self.parse_region(cls)
            self.classes.append(cls)
        self.skip_to_semicolon()  # "} instance;" or just ";"

    def long_lived(self, line):
        """The tag sits on the class line or in the comment lines
        directly above it (a blank line ends the search)."""
        for at in range(line, 0, -1):
            text = self.comments.get(at)
            if text is None and at != line:
                return False
            if text is not None and LONG_LIVED_TAG in text:
                return True
        return False

    def parse_using(self):
        start = self.i
        while self.i < len(self.toks) and not self.at(";"):
            self.i += 1
        stmt = self.toks[start:self.i]
        self.i += 1
        # using NAME = ... std::function<...> ...;
        if len(stmt) >= 3 and stmt[1].ident and \
                stmt[1].text != "namespace" and stmt[2].text == "=" and \
                any(t.text == "function" for t in stmt):
            self.aliases.add(stmt[1].text)

    def parse_statement(self, cls):
        stmt = []
        while self.i < len(self.toks):
            if self.at(";"):
                self.i += 1
                break
            if self.at("}"):
                break  # parse_region's
            if self.at("{"):
                # After ')' or a specifier the brace opens a function
                # body; after a name or '=' it is an initializer.
                body = not stmt or stmt[-1].text in (
                    ")", "const", "override", "final", "noexcept", "try")
                self.skip("{", "}")
                if body:
                    if self.at(";"):
                        self.i += 1
                    return
                continue
            stmt.append(self.toks[self.i])
            self.i += 1
        if cls is not None and stmt:
            member = parse_member(stmt)
            if member:
                cls.members.append(member)


def parse_member(stmt):
    """The data member @p stmt declares, or None."""
    begin = 0
    while begin < len(stmt) and stmt[begin].text in (
            "mutable", "constexpr", "inline", "volatile"):
        begin += 1
    if begin >= len(stmt) or stmt[begin].text in (
            "using", "typedef", "friend", "static", "static_assert",
            "template", "operator", "extern", "return", "~"):
        return None
    if any(t.text == "operator" for t in stmt):
        return None
    angle = 0
    name = None
    k = begin
    while k < len(stmt):
        t = stmt[k]
        nxt = stmt[k + 1] if k + 1 < len(stmt) else None
        k += 1
        if t.text == "<":
            angle += 1
        elif t.text == ">":
            angle = max(angle - 1, 0)
        elif t.text == "=" and angle == 0:
            break  # an initializer follows
        elif not t.ident:
            pass
        elif t.text.startswith("ECDP_") and nxt and nxt.text == "(":
            k = skip_balanced(stmt, k, "(", ")")  # an attribute
        elif angle != 0:
            pass
        elif nxt and nxt.text == "(":
            return None  # a function declaration
        elif not nxt or nxt.text in ("=", "[") or \
                (nxt.ident and nxt.text.startswith("ECDP_")):
            name = t
            type_end = k - 1
    if name is None:
        return None
    return Member(name.text, [t.text for t in stmt[begin:type_end]],
                  name.line)


class CppTree:
    """Every src/ file's tokens, classes and callback names."""

    def __init__(self, root):
        self.files = []  # (rel, lines, tokens, comments)
        self.classes = []
        self.aliases = set()
        for path in iter_source_files(root, "src"):
            rel = relpath(root, path)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            tokens, comments = tokenize(text)
            self.files.append((rel, text.split("\n"), tokens, comments))
            StructureParser(rel, tokens, comments, self.classes,
                            self.aliases).parse_region(None)
        self.callback_members = {
            m.name for c in self.classes for m in c.members
            if self.is_callback(m.type)}
        self.shrunk = set()
        for _rel, _lines, tokens, _comments in self.files:
            self.shrunk |= shrunk_names(tokens)
        self.by_path = {f[0]: f for f in self.files}

    def is_callback(self, type_):
        return any(t == "function" or t in self.aliases for t in type_)

    def local_callbacks(self, toks):
        """Locals and parameters declared with a callback type:
        `Done done`, `const Responder &respond`,
        `std::function<...> job`, `Responder &r : waiters`."""
        names = set()
        for i, t in enumerate(toks):
            if not t.ident or (t.text != "function" and
                               t.text not in self.aliases):
                continue
            j = i + 1
            if j < len(toks) and toks[j].text == "<":
                j = skip_balanced(toks, j, "<", ">")
            while j < len(toks) and toks[j].text in ("&", "*", "const"):
                j += 1
            # A '(' next declares a function returning the type.
            if j < len(toks) and toks[j].ident and \
                    (j + 1 >= len(toks) or toks[j + 1].text != "("):
                names.add(toks[j].text)
        return names


def shrunk_names(toks):
    """Names a statement shrinks: `x.erase(`, `x[i]->pop_back(`, and
    `swap(x` (the `other.swap(x)` and `swap(x, y)` forms)."""
    out = set()
    for i, t in enumerate(toks):
        if i >= 2 and toks[i - 1].text == "(" and \
                toks[i - 2].text == "swap":
            out.add(t.text)
        j = i + 1
        if j < len(toks) and toks[j].text == "[":
            j = skip_balanced(toks, j, "[", "]")
        if j + 2 < len(toks) and toks[j].text in (".", "->") and \
                toks[j + 1].text in SHRINKERS and toks[j + 2].text == "(":
            out.add(t.text)
    return out


def check_callback_under_lock(tree):
    out = []
    for rel, lines, toks, _comments in tree.files:
        names = tree.callback_members | tree.local_callbacks(toks)
        depth = 0
        locks = []  # [brace depth, guard name, held]
        for i, t in enumerate(toks):
            if t.text == "{":
                depth += 1
                continue
            if t.text == "}":
                depth -= 1
                while locks and locks[-1][0] > depth:
                    locks.pop()
                continue
            if not t.ident:
                continue
            nxt = toks[i + 1].text if i + 1 < len(toks) else None
            if t.text in GUARDS:
                j = i + 1
                if nxt == "<":
                    j = skip_balanced(toks, j, "<", ">")
                if j + 1 < len(toks) and toks[j].ident and \
                        toks[j + 1].text == "(":
                    locks.append([depth, toks[j].text, True])
                continue
            # guard.unlock() ... guard.lock(): the relockable guard
            # around running a job.
            if nxt == "." and i + 3 < len(toks) and \
                    toks[i + 2].text in ("unlock", "lock") and \
                    toks[i + 3].text == "(":
                for lock in locks:
                    if lock[1] == t.text:
                        lock[2] = toks[i + 2].text == "lock"
                continue
            if t.text not in names or nxt != "(" or \
                    (i > 0 and toks[i - 1].text == "::"):
                continue
            if not any(lock[2] for lock in locks):
                continue
            if allowed(lines, t.line - 1, "callback-under-lock"):
                continue
            out.append(Violation(
                rel, t.line, "callback-under-lock",
                "callback '%s' invoked while a lock guard is live; "
                "collect it under the lock and invoke it after the "
                "guard's scope closes" % t.text))
    return out


def check_member_destruction_order(tree):
    out = []
    for c in tree.classes:
        lines = tree.by_path[c.path][1]
        worker = None
        for m in c.members:
            if "*" not in m.type and WORKER_TYPES.intersection(m.type):
                worker = worker or m
                continue
            if worker is None or \
                    allowed(lines, m.line - 1, "member-destruction-order"):
                continue
            out.append(Violation(
                c.path, m.line, "member-destruction-order",
                "member '%s' of class '%s' is declared after worker "
                "member '%s'; members destroy in reverse declaration "
                "order, so the worker's callbacks could touch '%s' "
                "after it is gone — declare state first, threads and "
                "pools last" % (m.name, c.name, worker.name, m.name)))
    return out


def check_unbounded_container(tree):
    out = []
    for c in tree.classes:
        if not c.long_lived:
            continue
        _rel, lines, _toks, comments = tree.by_path[c.path]
        for m in c.members:
            if not CONTAINER_TYPES.intersection(m.type) or \
                    m.name in tree.shrunk or \
                    allowed(lines, m.line - 1, "unbounded-container") or \
                    any(CAP_TAG in comments.get(l, "")
                        for l in range(m.line - 2, m.line + 1)):
                continue
            out.append(Violation(
                c.path, m.line, "unbounded-container",
                "container member '%s' of long-lived class '%s' never "
                "shrinks: no erase/pop/clear/swap path, no "
                "// simlint-cap(...) note — every admission needs a "
                "matching eviction" % (m.name, c.name)))
    return out


SCOPED_RULES = {
    "callback-under-lock": check_callback_under_lock,
    "member-destruction-order": check_member_destruction_order,
    "unbounded-container": check_unbounded_container,
}


# --- driver -----------------------------------------------------------

def main(argv):
    default_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap = argparse.ArgumentParser(prog="simlint")
    ap.add_argument("--root", default=default_root,
                    help="repository root to scan (default: the repo "
                         "containing this script)")
    ap.add_argument("--build-dir", default=None,
                    help="CMake build dir; enables the "
                         "test-registration rule")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    if args.rules is not None:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        for r in rules:
            if r not in RULES:
                print("simlint: error: unknown rule %r (see "
                      "--list-rules)" % r, file=sys.stderr)
                return 2
        if "test-registration" in rules and args.build_dir is None:
            print("simlint: error: test-registration needs "
                  "--build-dir", file=sys.stderr)
            return 2
    else:
        rules = [r for r in RULES
                 if r != "test-registration" or args.build_dir]

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print("simlint: error: %s has no src/ directory" % root,
              file=sys.stderr)
        return 2

    violations = []
    if "magic-block-shift" in rules:
        violations += check_magic_block_shift(root)
    if "raw-addr-param" in rules:
        violations += check_raw_addr_param(root)
    if "unregistered-counter" in rules:
        violations += check_unregistered_counter(root)
    if "test-registration" in rules:
        violations += check_test_registration(root, args.build_dir)
    for rule in CONFORMANCE_KINDS:
        if rule in rules:
            violations += check_conformance(root, rule)
    if "raw-process-spawn" in rules:
        violations += check_raw_process_spawn(root)
    if "raw-mutex" in rules:
        violations += check_raw_mutex(root)
    if "hot-path-vector" in rules:
        violations += check_hot_path_vector(root)
    if "sim-clock" in rules:
        violations += check_sim_clock(root)
    scoped = [r for r in SCOPED_RULES if r in rules]
    if scoped:
        tree = CppTree(root)
        for rule in scoped:
            violations += sorted(SCOPED_RULES[rule](tree),
                                 key=lambda v: (v.path, v.line))

    for v in violations:
        print(v)
    if violations:
        print("simlint: %d violation(s) in %s" %
              (len(violations), root), file=sys.stderr)
        return 1
    print("simlint: clean (%s) over %s" % (", ".join(rules), root))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
