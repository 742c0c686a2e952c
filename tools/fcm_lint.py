#!/usr/bin/env python3
"""fcm_lint: repo-invariant linter for the determinism & concurrency rules
the test suite cannot see (registered as the tier-1 `fcm_lint` ctest,
label `static`; see docs/ARCHITECTURE.md "Static analysis & invariant
enforcement").

Rules (all scoped to src/):

  unordered-iter   No iteration over std::unordered_map/unordered_set in
                   src/index or src/relevance: hash iteration order leaks
                   straight into ranked output (use SortedIds or sort the
                   result — see search_engine.cc).
  wall-clock       No rand()/std::random_device/time()/system_clock/
                   gettimeofday outside src/common/rng.* — randomness
                   flows through seeded common::Rng and time through
                   injected time points (AsyncSearchService::Submit takes
                   an absolute deadline; steady_clock is monotonic and
                   allowed).
  float-order      A sort comparator over a float score field in
                   src/index or src/relevance must carry the documented
                   tie-break pattern (`a.x != b.x ? a.x > b.x : a.id <
                   b.id` — RankHits) or ties rank nondeterministically
                   across stdlibs.
  naked-mutex      No std::mutex/std::shared_mutex/std::condition_variable
                   (or std lock RAII types) outside
                   src/common/annotated_mutex.h: the annotated wrappers
                   are what make the clang -Wthread-safety build able to
                   prove lock discipline.
  cast-justify     reinterpret_cast outside src/storage and
                   src/common/simd* needs a `// fcm-lint:` justification
                   on the same or preceding line.
  epoch-pin        No raw `EngineEpoch*`/`EngineEpoch&` in src/index
                   outside the engine internals (search_engine.{h,cc},
                   ingest.cc, engine_snapshot.cc, index_segment.h):
                   a raw epoch pointer can outlive the EpochPin that
                   keeps its segments alive — hold the pin (a
                   shared_ptr) for the duration of the request instead.
  thread-owner     No std::thread/std::jthread/std::async outside
                   src/common/thread_pool.{h,cc} and
                   src/index/async_service.{h,cc}: the pool's workers and
                   the service's dispatcher are the only threads the
                   library spawns; other parallel work goes through
                   ParallelFor. std::thread::hardware_concurrency is
                   fine.

Suppression: `// fcm-lint: disable=<rule>[,<rule>]` on the offending line
or the line directly above. `// fcm-lint: <free text>` is the cast
justification form (and also suppresses cast-justify on the next line).

Usage:
  fcm_lint.py [repo_root]   lint the tree (default: repo containing this
                            script); exit 1 on any violation
  fcm_lint.py --self-test   run the violation fixtures under
                            tools/lint_fixtures/; exit 1 on any mismatch
  fcm_lint.py --list-rules  print the rule table
"""

import os
import re
import sys

RULES = {
    "unordered-iter": "unordered-container iteration in ranking code "
                      "(hash-order nondeterminism)",
    "wall-clock": "ambient randomness/wall-clock read outside "
                  "src/common/rng.* (breaks reproducibility)",
    "float-order": "float sort comparator without the documented "
                   "tie-break pattern",
    "naked-mutex": "raw std mutex/condvar outside "
                   "src/common/annotated_mutex.h (bypasses thread-safety "
                   "annotations)",
    "cast-justify": "reinterpret_cast without a `// fcm-lint:` "
                    "justification",
    "epoch-pin": "raw EngineEpoch pointer/reference outside the engine "
                 "internals (hold an EpochPin for the request instead)",
    "thread-owner": "thread spawned outside the pool and the async "
                    "dispatcher (use ThreadPool::ParallelFor)",
}

RANKING_DIRS = ("src/index/", "src/relevance/")
RNG_FILES = ("src/common/rng.h", "src/common/rng.cc")
ANNOTATED_MUTEX = "src/common/annotated_mutex.h"
CAST_EXEMPT_PREFIXES = ("src/storage/",)
CAST_EXEMPT_GLOBS = ("src/common/simd",)  # simd.h, simd.cc, simd_avx2.cc...
# The engine internals that implement the epoch machinery itself — the
# only files allowed to touch EngineEpoch outside a pin.
EPOCH_PIN_EXEMPT = (
    "src/index/search_engine.h", "src/index/search_engine.cc",
    "src/index/ingest.cc", "src/index/engine_snapshot.cc",
    "src/index/index_segment.h",
)
# The only files allowed to spawn threads: the pool's workers and the
# async service's dispatcher.
THREAD_OWNERS = (
    "src/common/thread_pool.h", "src/common/thread_pool.cc",
    "src/index/async_service.h", "src/index/async_service.cc",
)

SUPPRESS_RE = re.compile(r"//\s*fcm-lint:\s*disable=([\w,-]+)")
JUSTIFY_RE = re.compile(r"//\s*fcm-lint:")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{}]*>\s*&?\s*(\w+)\s*[;={(,)]")
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std::)?unordered_(?:map|set)\b")
WALL_CLOCK_RE = re.compile(
    r"(?:(?<![\w.:>])rand\s*\(|\brandom_device\b|(?<![\w.:>_])time\s*\(|"
    r"\bsystem_clock\b|\bgettimeofday\b|\blocaltime\b|\bstrftime\b)")
NAKED_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b")
EPOCH_PIN_RE = re.compile(r"\bEngineEpoch\b\s*(?:const\b\s*)?[*&]")
# std::thread::hardware_concurrency (any std::thread:: member) spawns
# nothing, hence the `::` lookahead.
THREAD_RE = re.compile(r"\bstd::(?:thread|jthread|async)\b(?!\s*::)")
SORT_CALL_RE = re.compile(
    r"\b(?:sort|stable_sort|partial_sort|nth_element|max_element|"
    r"min_element)\s*\(")
FLOAT_FIELD_RE = re.compile(
    r"[\w\)\]]\s*\.\s*(?:score|sim|similarity|dist|distance|first)\b"
    r"\s*[<>]")
TIEBREAK_RE = re.compile(r"!=|\bid\b|table_id|\bsecond\b|\bindex\b|\btie\b")


def strip_comment(line):
    """Code part of a line (string literals are rare enough here that a
    naive // split, guarded against ://, stays accurate)."""
    idx = 0
    while True:
        idx = line.find("//", idx)
        if idx < 0:
            return line
        if idx > 0 and line[idx - 1] == ":":  # http:// inside a string
            idx += 2
            continue
        return line[:idx]


class FileLinter:
    """Lints one file; regex + just enough context to keep the noise at
    zero (declared-name tracking for unordered containers, balanced-paren
    capture for sort comparators)."""

    def __init__(self, rel_path, text):
        self.rel = rel_path.replace(os.sep, "/")
        self.lines = text.splitlines()
        self.violations = []  # (line_no, rule, message)

    def suppressed(self, line_no, rule):
        """`// fcm-lint: disable=<rule>` on the line or the one above."""
        for candidate in (line_no, line_no - 1):
            if 1 <= candidate <= len(self.lines):
                m = SUPPRESS_RE.search(self.lines[candidate - 1])
                if m and rule in m.group(1).split(","):
                    return True
        return False

    def justified(self, line_no):
        """Any `// fcm-lint:` comment on the line or the one above."""
        for candidate in (line_no, line_no - 1):
            if 1 <= candidate <= len(self.lines):
                if JUSTIFY_RE.search(self.lines[candidate - 1]):
                    return True
        return False

    def add(self, line_no, rule, message):
        if not self.suppressed(line_no, rule):
            self.violations.append((line_no, rule, message))

    def in_ranking_dir(self):
        return any(self.rel.startswith(d) for d in RANKING_DIRS)

    def run(self):
        if self.rel.startswith("src/"):
            self.check_wall_clock()
            self.check_naked_mutex()
            self.check_cast_justify()
            self.check_thread_owner()
        if self.in_ranking_dir():
            self.check_unordered_iter()
            self.check_float_order()
        if self.rel.startswith("src/index/"):
            self.check_epoch_pin()
        return self.violations

    # ---- wall-clock ----
    def check_wall_clock(self):
        if self.rel in RNG_FILES:
            return
        for i, raw in enumerate(self.lines, 1):
            m = WALL_CLOCK_RE.search(strip_comment(raw))
            if m:
                self.add(i, "wall-clock",
                         f"ambient nondeterminism source `{m.group(0).strip()}`"
                         " (route randomness through common::Rng and time "
                         "through an injected clock)")

    # ---- naked-mutex ----
    def check_naked_mutex(self):
        if self.rel == ANNOTATED_MUTEX:
            return
        for i, raw in enumerate(self.lines, 1):
            m = NAKED_MUTEX_RE.search(strip_comment(raw))
            if m:
                self.add(i, "naked-mutex",
                         f"`{m.group(0)}` outside {ANNOTATED_MUTEX} (use "
                         "common::Mutex/MutexLock/CondVar so thread-safety "
                         "annotations apply)")

    # ---- cast-justify ----
    def check_cast_justify(self):
        if any(self.rel.startswith(p) for p in CAST_EXEMPT_PREFIXES):
            return
        if any(self.rel.startswith(g) for g in CAST_EXEMPT_GLOBS):
            return
        for i, raw in enumerate(self.lines, 1):
            if "reinterpret_cast" in strip_comment(raw):
                if not self.justified(i):
                    self.add(i, "cast-justify",
                             "reinterpret_cast needs a `// fcm-lint: "
                             "<why this aliasing is sound>` comment here "
                             "or on the line above")

    # ---- thread-owner ----
    def check_thread_owner(self):
        if self.rel in THREAD_OWNERS:
            return
        for i, raw in enumerate(self.lines, 1):
            m = THREAD_RE.search(strip_comment(raw))
            if m:
                self.add(i, "thread-owner",
                         f"`{m.group(0)}` outside the thread pool and the "
                         "async dispatcher — fan work out with "
                         "ThreadPool::ParallelFor instead of spawning a "
                         "thread")

    # ---- epoch-pin ----
    def check_epoch_pin(self):
        if self.rel in EPOCH_PIN_EXEMPT:
            return
        for i, raw in enumerate(self.lines, 1):
            m = EPOCH_PIN_RE.search(strip_comment(raw))
            if m:
                self.add(i, "epoch-pin",
                         f"`{m.group(0).strip()}` outside the engine "
                         "internals — a raw epoch pointer can outlive the "
                         "pin that keeps its segments alive; hold the "
                         "EpochPin (shared_ptr) for the whole request")

    # ---- unordered-iter ----
    def check_unordered_iter(self):
        # Pass 1: names declared (or aliased) as unordered containers in
        # this file. Member declarations count too — iteration anywhere in
        # the file over those names is what leaks hash order.
        names = set()
        aliases = set()
        for raw in self.lines:
            code = strip_comment(raw)
            am = UNORDERED_ALIAS_RE.search(code)
            if am:
                aliases.add(am.group(1))
            for dm in UNORDERED_DECL_RE.finditer(code):
                names.add(dm.group(1))
        for alias in aliases:
            alias_decl = re.compile(
                r"\b" + re.escape(alias) + r"\s*&?\s*(\w+)\s*[;={(]")
            for raw in self.lines:
                dm = alias_decl.search(strip_comment(raw))
                if dm and dm.group(1) != alias:
                    names.add(dm.group(1))
        if not names:
            return
        # Pass 2: range-for or .begin() iteration over those names.
        name_alt = "|".join(sorted(re.escape(n) for n in names))
        range_for = re.compile(
            r"\bfor\s*\([^;)]*:\s*\*?(?:\w+[.->]+)*(" + name_alt + r")\s*\)")
        iter_for = re.compile(
            r"\bfor\s*\([^;)]*=\s*(" + name_alt + r")\s*\.\s*c?begin\s*\(")
        for i, raw in enumerate(self.lines, 1):
            code = strip_comment(raw)
            m = range_for.search(code) or iter_for.search(code)
            if m:
                self.add(i, "unordered-iter",
                         f"iteration over unordered container `{m.group(1)}`"
                         " feeds hash order into a ranking path (sort the "
                         "ids first — see SortedIds in search_engine.cc)")

    # ---- float-order ----
    def check_float_order(self):
        # For each sort-family call, capture through the matching close
        # paren (joining lines) and inspect any lambda comparator.
        text = "\n".join(self.lines)
        for m in SORT_CALL_RE.finditer(text):
            start = m.end() - 1
            depth = 0
            end = start
            for j in range(start, min(len(text), start + 2000)):
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
            call = text[start:end + 1]
            if "[" not in call:  # No lambda comparator: default ordering.
                continue
            body = call[call.index("["):]
            if FLOAT_FIELD_RE.search(body) and not TIEBREAK_RE.search(body):
                line_no = text.count("\n", 0, m.start()) + 1
                self.add(line_no, "float-order",
                         "float comparator without a tie-break: rank ties "
                         "deterministically (`a.x != b.x ? a.x > b.x : "
                         "a.id < b.id` — see RankHits)")


def iter_source_files(repo_root):
    src = os.path.join(repo_root, "src")
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, repo_root), full


def lint_tree(repo_root):
    failures = 0
    for rel, full in iter_source_files(repo_root):
        with open(full, encoding="utf-8") as f:
            text = f.read()
        for line_no, rule, message in FileLinter(rel, text).run():
            print(f"{rel}:{line_no}: [{rule}] {message}")
            failures += 1
    if failures:
        print(f"fcm_lint: {failures} violation(s)", file=sys.stderr)
        return 1
    print("fcm_lint: OK")
    return 0


# ---- self-test over the violation fixtures ----
#
# Fixture files live in tools/lint_fixtures/ and look like normal C++
# sources; a line that must be flagged carries a `// expect[<rule>]`
# marker (the marker is not a suppression). Lines exercising suppressions
# carry real `// fcm-lint: disable=` comments and must NOT be flagged.
EXPECT_RE = re.compile(r"//\s*expect\[([\w-]+)\]")

# Each fixture lints as if it lived at this path (rules are path-scoped).
FIXTURE_PATHS = {
    "unordered_iter.cc": "src/index/fixture.cc",
    "wall_clock.cc": "src/common/fixture.cc",
    "float_order.cc": "src/relevance/fixture.cc",
    "naked_mutex.cc": "src/common/fixture.cc",
    "cast_justify.cc": "src/common/fixture.cc",
    "exempt_paths.cc": "src/storage/fixture.cc",
    "epoch_pin.cc": "src/index/fixture.cc",
    "thread_owner.cc": "src/index/fixture.cc",
}


def self_test(fixtures_dir):
    failures = []
    seen_rules = set()
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(".cc"):
            continue
        rel = FIXTURE_PATHS.get(name)
        if rel is None:
            failures.append(f"{name}: no entry in FIXTURE_PATHS")
            continue
        with open(os.path.join(fixtures_dir, name), encoding="utf-8") as f:
            text = f.read()
        expected = {}
        for i, line in enumerate(text.splitlines(), 1):
            m = EXPECT_RE.search(line)
            if m:
                expected.setdefault(i, set()).add(m.group(1))
        got = {}
        for line_no, rule, _ in FileLinter(rel, text).run():
            got.setdefault(line_no, set()).add(rule)
            seen_rules.add(rule)
        for line_no, rules in sorted(expected.items()):
            missing = rules - got.get(line_no, set())
            for rule in sorted(missing):
                failures.append(
                    f"{name}:{line_no}: expected [{rule}] but the linter "
                    "did not flag it")
        for line_no, rules in sorted(got.items()):
            surplus = rules - expected.get(line_no, set())
            for rule in sorted(surplus):
                failures.append(
                    f"{name}:{line_no}: linter flagged [{rule}] on a line "
                    "with no expect marker (false positive or a broken "
                    "suppression)")
    missing_rules = set(RULES) - seen_rules
    for rule in sorted(missing_rules):
        failures.append(
            f"rule [{rule}] has no firing fixture — every rule must be "
            "covered by at least one known violation")
    if failures:
        for f in failures:
            print(f"fcm_lint --self-test: {f}", file=sys.stderr)
        print(f"fcm_lint --self-test: FAILED ({len(failures)} problem(s))",
              file=sys.stderr)
        return 1
    print("fcm_lint --self-test: OK "
          f"({len(seen_rules)} rule(s) exercised)")
    return 0


def main(argv):
    script_dir = os.path.dirname(os.path.abspath(__file__))
    if "--list-rules" in argv:
        for rule, desc in RULES.items():
            print(f"{rule:16s} {desc}")
        return 0
    if "--self-test" in argv:
        return self_test(os.path.join(script_dir, "lint_fixtures"))
    repo_root = argv[1] if len(argv) > 1 else os.path.dirname(script_dir)
    if not os.path.isdir(os.path.join(repo_root, "src")):
        print(f"fcm_lint: {repo_root} has no src/ directory", file=sys.stderr)
        return 2
    return lint_tree(repo_root)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
