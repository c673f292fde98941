#!/usr/bin/env python3
"""Domain checker for prefrep — the project rules the generic tools
(clang-tidy, clang-format) cannot express.  Registered as the
`check-prefrep` and `check-prefrep-fixtures` CTests; run from the
repository root:

    python3 tools/check_prefrep.py [--verbose]
    python3 tools/check_prefrep.py --selftest   # fixture self-test

Line rules read the raw text, or a copy with comments and string/char
literals blanked (line structure kept).  The structural rules need
more: loop extents, loop nesting, and which values flow from which
calls.  A self-contained mini-parser builds that from the blanked text
by brace matching — a loop tree with header/body source extents — so
the checker needs nothing beyond the standard library and runs in CI
and in the bare build container.

Rules
-----
include-guard
    Every header under src/, tests/ and bench/ uses the canonical guard
    PREFREP_<DIR>_<FILE>_H_ (path upper-cased, `src/` stripped), with a
    matching #define and a trailing `#endif  // <GUARD>` comment.

raw-assert
    No raw assert()/abort() outside src/base/macros.h — invariants go
    through PREFREP_CHECK / PREFREP_CHECK_MSG / PREFREP_DCHECK so they
    fire (fatally, with location) in every build type.

citation
    Every algorithm file under src/repair, src/classify and
    src/reductions carries a paper citation (theorem, lemma,
    proposition, definition, section symbol, or [SCM]), keeping the
    code auditable against the source paper.

nolint
    Every NOLINT marker names the suppressed check(s) and carries a
    justification — either `: reason` after the check list or a comment
    line directly above.  Blanket `// NOLINT` is rejected; NOLINTBEGIN
    must be matched by NOLINTEND in the same file.

tsan-suppress
    Every suppression in tools/tsan_suppressions.txt must be directly
    preceded by a `#` comment justifying it — an unexplained
    suppression silently un-verifies the parallel solver.

prefrep-checkpoint
    Cooperative-cancellation discipline over the enumeration core
    (src/repair, src/query, src/serve, src/classify).  Two shapes are
    flagged:
    (a) any loop whose bound is a runtime shift (`1 << n` — a
        subset-space walk) with no reachable governor Checkpoint() in
        its body, and
    (b) any nested loop (depth >= 2) ranging over a *repair-derived*
        value that materializes results (push_back/emplace/insert)
        without a reachable Checkpoint() in its body.
    Repair-derived: the loop's range/condition mentions a value
    assigned (transitively) from AllOptimalRepairs /
    OptimalBlockRepairs / CachedOptimalBlockRepairs / RepairsFor* /
    *.Next(...), or the payload parameter (the second) of the step —
    the last lambda — passed to FoldBlocks(, which receives each
    block's answer without any assignment.  This is the
    AllOptimalRepairs cross-block-product
    bug class: per-block repair lists are governor-budgeted when they
    are *produced*, but the cross-block product that *combines* them
    multiplies sizes the governor never admitted — only a checkpoint
    inside the product loop keeps the budget honest (the canonical
    pattern lives in src/repair/block_solver.cc).  Single consuming
    loops over one already-charged list are fine and not flagged.
    Escape: NOLINT(prefrep-checkpoint) on the loop line or the line
    above (justified as the nolint rule requires).

prefrep-nodiscard
    Every Parse* entry point declared in a header under src/ must
    return Status, Result<...> or std::optional — a parse result that
    can be silently dropped hides malformed input.  The failure-
    carrying types themselves — Status and Result (src/base/status.h)
    and CheckResult (src/repair/improvement.h) — are declared
    class-level [[nodiscard]]; the compiler proves that, through the
    negcompile-dropped-* tests (tests/static_assert_test/).

prefrep-raw-concurrency
    Raw standard-library concurrency primitives (std::mutex and
    friends, std::lock_guard/unique_lock/scoped_lock,
    std::condition_variable*, std::thread/jthread/async) are banned
    outside src/base/: everything else must go through the annotated
    Mutex/MutexLock/CondVar wrappers (src/base/thread_annotations.h)
    so Clang Thread Safety Analysis sees every acquisition, and
    through base/thread_pool.h for execution.
    Escape: NOLINT(prefrep-raw-concurrency) on or above the line.

prefrep-durability
    Two invariants of the persistence layer (src/persist/,
    docs/durability.md).  (a) Raw write primitives (fopen/fwrite,
    std::ofstream/std::fstream, ::open/::write/::creat and friends)
    are banned in src/persist/ outside file_io.cc: every byte that
    reaches disk must pass through the checksummed AppendOnlyFile /
    AtomicWriteFile choke point, or crash-atomicity claims rot one
    convenience write at a time.  (b) Recovery and durability entry
    points declared in src/persist/ headers (Open/Read*/Load*/
    Recover*/Replay*/Write*/Append*/Sync*/Close/Truncate)
    must return Status or Result<...>: a recovery step whose failure
    is a bool or void turns data loss into silent wrong answers.
    Escape: NOLINT(prefrep-durability) on or above the line.

prefrep-hotloop
    Node-based hash maps keyed by materialized key vectors
    (std::unordered_map<std::vector<...>, ...>) are banned in
    src/conflicts/ and src/repair/global_two_keys.cc: the conflict join
    is the hot path the columnar rewrite flattened
    (docs/memory-layout.md), GRepCheck2Keys interns one graph node per
    key projection of a block, and a vector-keyed map reintroduces one
    heap allocation per probe plus pointer-chasing per bucket.  Key by
    the seeded projection hash and verify against a row representative
    instead (conflicts/projection.h).
    Escape: NOLINT(prefrep-hotloop) on or above the line — the
    preserved reference join (conflicts.cc) carries one deliberately.

Two struct-shape guards live in the compiler instead: the structured
bindings of every Block field in ComputeBlockFingerprint
(src/cache/block_fingerprint.cc) and SessionContext::EnsureFresh
(src/serve/session.cc), and the static_assert on PriorityRelation's
data members (src/priority/priority.h).

The tree run skips tests/check_prefrep_fixtures/, which holds
deliberately dirty code; `--selftest` instead requires every fixture
under bad/ to produce the findings its `EXPECT-FINDING: <rule>` comments
name (and no others), every fixture under clean/ to produce none, and
every rule to have at least one bad fixture.

Exit status 0 when clean; 1 with one `path:line: [rule] message` per
finding otherwise.
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = "tests/check_prefrep_fixtures"

CODE_SUFFIXES = (".h", ".cc", ".cpp")
SOURCE_DIRS = ("src/", "tests/", "bench/", "examples/")
CHECKPOINT_DIRS = ("src/repair/", "src/query/", "src/serve/", "src/classify/")

# Matches theorem/lemma/… references ("Theorem 3.1", "§2.3", "Lemma 7.3")
# and the paper tags used throughout the tree ("[SCM]", "arXiv:1603.01820").
CITATION_RE = re.compile(
    r"(Theorem|Lemma|Proposition|Corollary|Definition|Section|§)\s*\d"
    r"|\[SCM|\[Staworko|arXiv:\d"
)

RAW_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_:.])(assert|abort)\s*\(")

NOLINT_RE = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?")
NOLINT_WITH_CHECKS_RE = re.compile(r"NOLINT(NEXTLINE|BEGIN)?\(([^)]+)\)")
NOLINT_REASON_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN)?\([^)]+\):\s*\S.*")
COMMENT_LINE_RE = re.compile(r"^\s*(//|\*|/\*)")

# Calls whose results are (lists of) repairs: the per-block enumerators
# and the incremental session accessor.  `.Next(` catches
# ParallelBlockSession::Next and any future streaming source.
SOURCE_CALL_RE = re.compile(
    r"\b(?:AllOptimalRepairs|OptimalBlockRepairs|CachedOptimalBlockRepairs|"
    r"RepairsFor\w*)\s*\(|\.\s*Next\s*\(")
# The per-block fold hands each block's payload to its step lambda as a
# parameter (src/repair/block_solver.h): a call, then lambda introducers.
FOLD_CALL_RE = re.compile(r"\bFoldBlocks\s*\(")
LAMBDA_RE = re.compile(r"\[[^\[\]]*\]\s*\(")
PARAM_NAME_RE = re.compile(r"[\s&*>]([A-Za-z_]\w*)\s*$")
VAR_SHIFT_RE = re.compile(
    r"\b1(?:[uU][lL]{0,2}|[lL]{1,2}[uU]?)?\s*<<\s*[A-Za-z_]")
MATERIALIZE_RE = re.compile(r"\b(?:push_back|emplace_back|emplace|insert)\s*\(")
CHECKPOINT_RE = re.compile(r"\bCheckpoint\s*\(")
ASSIGN_RE = re.compile(r"(\w+)\s*=[^=]")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
LOOP_KEYWORD_RE = re.compile(r"\b(for|while)\s*\(")

HOTLOOP_RE = re.compile(r"\bstd::unordered_map\s*<\s*std::vector\b")

RAW_CONCURRENCY_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|thread|jthread|"
    r"async)\b")

PARSE_DECL_NAME_RE = re.compile(r"\bParse\w*\s*\(")
NODISCARD_RETURN_RE = re.compile(r"\bStatus\b|\bResult\s*<|\boptional\s*<")
CALL_CONTEXT_RE = re.compile(r"[=.,(]|->|\breturn\b")

RAW_WRITE_RE = re.compile(
    r"\b(?:fopen|freopen|fwrite|fputs|fprintf|std::ofstream|std::fstream|"
    r"::open|::openat|::creat|::write|::pwrite|::writev)\b")
# `Checkpoint` is deliberately absent: it names governor checkpointing
# in the enumeration core (canonically bool), not a durability entry.
RECOVERY_ENTRY_RE = re.compile(
    r"\b(?:Open|Read\w*|Load\w*|Recover\w*|Replay\w*|Write\w*|Append\w*|"
    r"Sync\w*|Close|Truncate)\s*\(")
# Tokens that may precede a declaration without being its return type;
# a statement holding nothing else is a constructor (no return type).
DECL_QUALIFIERS = frozenset((
    "public", "private", "protected", "static", "virtual", "inline",
    "constexpr", "explicit", "friend", "nodiscard", "maybe_unused",
    "override", "final"))

EXPECT_FINDING_RE = re.compile(r"EXPECT-FINDING:\s*([\w-]+)")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line
    structure, so code-pattern checks don't fire inside prose."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


@dataclass
class Source:
    """One scanned file: its raw lines and its blanked code."""
    rel: str               # path relative to the repository root
    text: str
    lines: list[str]
    code: str              # strip_comments_and_strings(text)
    code_lines: list[str]

    @classmethod
    def load(cls, path: Path) -> "Source":
        text = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(text)
        return cls(path.relative_to(REPO_ROOT).as_posix(), text,
                   text.split("\n"), code, code.split("\n"))


Findings = Iterator[tuple[int, str]]  # (1-based line, message)


# -- include-guard -----------------------------------------------------

def expected_guard(rel: str) -> str:
    parts = rel.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    stem = re.sub(r"\.h$", "", "_".join(parts))
    return "PREFREP_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_include_guard(src: Source) -> Findings:
    lines = src.lines
    guard = expected_guard(src.rel)
    ifndef_idx = None
    for idx, line in enumerate(lines):
        if line.startswith("#ifndef"):
            ifndef_idx = idx
            break
        if line.startswith("#") and not line.startswith("#!"):
            break
    if ifndef_idx is None or lines[ifndef_idx].split() != ["#ifndef", guard]:
        words = lines[ifndef_idx].split() if ifndef_idx is not None else []
        got = words[1] if len(words) > 1 else "<missing>"
        yield (ifndef_idx or 0) + 1, f"expected '#ifndef {guard}', got '{got}'"
        return
    if (ifndef_idx + 1 >= len(lines)
            or lines[ifndef_idx + 1].split() != ["#define", guard]):
        yield (ifndef_idx + 2,
               f"'#ifndef {guard}' not followed by '#define {guard}'")
    tail = next((l for l in reversed(lines) if l.strip()), "")
    if tail.strip() != f"#endif  // {guard}":
        yield len(lines), f"file must end with '#endif  // {guard}'"


# -- raw-assert, citation, nolint, tsan-suppress -----------------------

def check_raw_assert(src: Source) -> Findings:
    for idx, line in enumerate(src.code_lines, start=1):
        m = RAW_ASSERT_RE.search(line)
        if m:
            yield idx, (f"raw {m.group(1)}() — use PREFREP_CHECK / "
                        "PREFREP_CHECK_MSG / PREFREP_DCHECK "
                        "(src/base/macros.h)")


def check_citation(src: Source) -> Findings:
    if not CITATION_RE.search(src.text):
        yield 1, ("algorithm file lacks a paper citation comment "
                  "(Theorem/Lemma/Proposition/Definition/§ or [SCM])")


def check_nolint(src: Source) -> Findings:
    lines = src.lines
    begins = ends = 0
    for idx, line in enumerate(lines, start=1):
        for m in NOLINT_RE.finditer(line):
            kind = m.group(1) or ""
            if kind == "END":
                ends += 1
                continue
            if kind == "BEGIN":
                begins += 1
            with_checks = NOLINT_WITH_CHECKS_RE.match(line[m.start():])
            if not with_checks or not with_checks.group(2).strip():
                yield idx, ("blanket NOLINT — name the suppressed check(s), "
                            "e.g. NOLINT(bugprone-foo)")
                continue
            has_inline_reason = NOLINT_REASON_RE.match(line[m.start():])
            prev = lines[idx - 2] if idx >= 2 else ""
            if not has_inline_reason and not COMMENT_LINE_RE.match(prev):
                yield idx, ("NOLINT needs a justification — append "
                            "': reason' or put an explanatory comment on the "
                            "line above")
    if begins != ends:
        yield len(lines), f"{begins} NOLINTBEGIN but {ends} NOLINTEND"


def check_tsan_suppressions(src: Source) -> Findings:
    lines = src.lines
    for idx, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        prev = lines[idx - 2].strip() if idx >= 2 else ""
        if not prev.startswith("#"):
            yield idx, (f"suppression '{stripped}' lacks a justification "
                        "— put a '# why this race report is "
                        "benign/false-positive' comment on the line directly "
                        "above")


# -- prefrep-checkpoint ------------------------------------------------

@dataclass
class Loop:
    """One loop with source extents into the stripped file text."""
    header_start: int      # offset of the `for`/`while` keyword
    header: str            # text inside the loop parentheses
    body_start: int        # offset of the first body character
    body_end: int          # offset one past the body
    line: int              # 1-based line of the keyword
    depth: int = 1         # 1 = outermost loop of its function
    parent: "Loop | None" = field(default=None, repr=False)


def _match_forward(code: str, i: int, open_c: str, close_c: str) -> int:
    """Offset one past the bracket that closes code[i] (which must be
    open_c); len(code) if unbalanced."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == open_c:
            depth += 1
        elif c == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def extract_loops(code: str) -> list[Loop]:
    """The loop tree of stripped text, by lexical brace matching."""
    loops: list[Loop] = []
    for m in LOOP_KEYWORD_RE.finditer(code):
        header_open = m.end() - 1
        header_close = _match_forward(code, header_open, "(", ")")
        header = code[header_open + 1:header_close - 1]
        i = header_close
        n = len(code)
        while i < n and code[i].isspace():
            i += 1
        if i >= n:
            continue
        if code[i] == "{":
            body_end = _match_forward(code, i, "{", "}")
            body_start = i + 1
            body_end -= 1
        else:
            # Single-statement body: scan to the ';' at bracket depth
            # zero (an inner `for(;;)` or init-list keeps depth > 0).
            body_start = i
            depth = 0
            while i < n:
                c = code[i]
                if c in "({[":
                    depth += 1
                elif c in ")}]":
                    depth -= 1
                elif c == ";" and depth == 0:
                    break
                i += 1
            body_end = i
        line = code.count("\n", 0, m.start()) + 1
        loops.append(Loop(m.start(), header, body_start, body_end, line))
    # Parent = innermost loop whose body encloses this loop's keyword.
    # Lexical nesting respects function boundaries for free.
    for loop in loops:
        parent = None
        for other in loops:
            if other is loop:
                continue
            if other.body_start <= loop.header_start < other.body_end:
                if parent is None or other.body_start > parent.body_start:
                    parent = other
        loop.parent = parent
    for loop in loops:
        depth, p = 1, loop.parent
        while p is not None:
            depth += 1
            p = p.parent
        loop.depth = depth
    return loops


def fold_step_payloads(code: str) -> set[str]:
    """Names of the payload parameter (the second) of the step — the
    last lambda argument — of every FoldBlocks( call."""
    names: set[str] = set()
    for call in FOLD_CALL_RE.finditer(code):
        args_end = _match_forward(code, call.end() - 1, "(", ")") - 1
        lambdas = list(LAMBDA_RE.finditer(code, call.end(), args_end))
        if not lambdas:
            continue
        params_open = lambdas[-1].end() - 1
        params = code[params_open + 1:
                      _match_forward(code, params_open, "(", ")") - 1]
        depth, start, split = 0, 0, []
        for i, c in enumerate(params):
            if c in "(<[{":
                depth += 1
            elif c in ")>]}":
                depth -= 1
            elif c == "," and depth == 0:
                split.append(params[start:i])
                start = i + 1
        split.append(params[start:])
        if len(split) >= 2:
            m = PARAM_NAME_RE.search(split[1])
            if m:
                names.add(m.group(1))
    return names


def tainted_names(code: str) -> set[str]:
    """Identifiers (transitively) assigned from a repair-source call,
    plus FoldBlocks step payload parameters.  Statement-granular:
    split on ';', look for `lhs = ...source...`, then run a
    var-to-var copy fixpoint (`a = b` / `a = move(b)`)."""
    tainted = fold_step_payloads(code)
    statements = code.split(";")
    for stmt in statements:
        m = ASSIGN_RE.search(stmt)
        if m and SOURCE_CALL_RE.search(stmt[m.end():]):
            tainted.add(m.group(1))
    changed = True
    while changed:
        changed = False
        for stmt in statements:
            m = ASSIGN_RE.search(stmt)
            if not m or m.group(1) in tainted:
                continue
            rhs_idents = set(IDENT_RE.findall(stmt[m.end():]))
            if rhs_idents & tainted:
                tainted.add(m.group(1))
                changed = True
    return tainted


def check_checkpoint(src: Source) -> Findings:
    code = src.code
    tainted = tainted_names(code)
    for loop in extract_loops(code):
        body = code[loop.body_start:loop.body_end]
        if CHECKPOINT_RE.search(body):
            continue
        if VAR_SHIFT_RE.search(loop.header):
            yield loop.line, (
                "loop bounded by a runtime `1 << n` subset walk with no "
                "reachable governor Checkpoint() in its body — call "
                "governor->Checkpoint() per iteration (see "
                "src/base/governor.h) or justify with "
                "NOLINT(prefrep-checkpoint)")
            continue
        if loop.depth < 2 or not MATERIALIZE_RE.search(body):
            continue
        header_idents = set(IDENT_RE.findall(loop.header))
        if (header_idents & tainted) or SOURCE_CALL_RE.search(loop.header):
            yield loop.line, (
                "nested loop over a repair-derived range materializes "
                "results with no reachable governor Checkpoint() — this "
                "is the cross-block-product shape whose size the "
                "governor never admitted; checkpoint every iteration "
                "(canonical pattern: src/repair/block_solver.cc) or "
                "justify with NOLINT(prefrep-checkpoint)")


# -- prefrep-nodiscard, prefrep-durability: declaration returns --------

def declarations(code: str, name_re: re.Pattern) -> Iterator[tuple[int, str]]:
    """(offset, text before the name) of each statement that declares a
    function matching `name_re` rather than calling it."""
    for m in name_re.finditer(code):
        stmt_start = max(code.rfind(ch, 0, m.start()) for ch in ";{}#")
        stmt = code[stmt_start + 1:m.start()]
        if stmt.strip() and not CALL_CONTEXT_RE.search(stmt):
            yield m.start(), stmt


def check_parse_declarations(src: Source) -> Findings:
    for offset, stmt in declarations(src.code, PARSE_DECL_NAME_RE):
        if not NODISCARD_RETURN_RE.search(stmt):
            yield src.code.count("\n", 0, offset) + 1, (
                "Parse* entry point must return Status, Result<...> or "
                "std::optional<...> so a dropped parse failure cannot "
                "compile silently")


def check_recovery_entry_returns(src: Source) -> Findings:
    code = src.code
    for offset, stmt in declarations(code, RECOVERY_ENTRY_RE):
        if offset > 0 and code[offset - 1] in "~.:_":
            continue  # destructor, member call, or qualified name tail
        if not [t for t in IDENT_RE.findall(stmt) if t not in DECL_QUALIFIERS]:
            continue  # constructor: qualifiers only, no return type
        if not NODISCARD_RETURN_RE.search(stmt):
            yield code.count("\n", 0, offset) + 1, (
                "durability/recovery entry point must return Status or "
                "Result<...> — a recovery step whose failure is void or "
                "bool turns data loss into silent wrong answers; or "
                "justify with NOLINT(prefrep-durability)")


# -- prefrep-raw-concurrency, prefrep-durability, prefrep-hotloop ------

def check_raw_concurrency(src: Source) -> Findings:
    for idx, code_line in enumerate(src.code_lines, start=1):
        m = RAW_CONCURRENCY_RE.search(code_line)
        if m:
            yield idx, (
                f"raw std::{m.group(1)} outside src/base/ — use the "
                "annotated Mutex/MutexLock/CondVar wrappers "
                "(src/base/thread_annotations.h) so Thread Safety Analysis "
                "sees the acquisition, and base/thread_pool.h for "
                "execution; or justify with NOLINT(prefrep-raw-concurrency)")


def check_raw_persist_writes(src: Source) -> Findings:
    for idx, code_line in enumerate(src.code_lines, start=1):
        m = RAW_WRITE_RE.search(code_line)
        if m:
            yield idx, (
                f"raw write primitive `{m.group(0)}` in the persistence "
                "layer — every byte that reaches disk must go through the "
                "checksummed AppendOnlyFile/AtomicWriteFile choke point "
                "(src/persist/file_io.h), or justify with "
                "NOLINT(prefrep-durability)")


def check_hotloop(src: Source) -> Findings:
    for m in HOTLOOP_RE.finditer(src.code):
        yield src.code.count("\n", 0, m.start()) + 1, (
            "hash map keyed by a materialized std::vector in the "
            "conflict hot path — key by the seeded projection hash "
            "and verify against a row representative instead "
            "(conflicts/projection.h, docs/memory-layout.md); or "
            "justify with NOLINT(prefrep-hotloop)")


# -- the rule table and its drivers ------------------------------------

@dataclass(frozen=True)
class Rule:
    """Where one check runs.  The tree run applies it to the files under
    `paths` (directory prefixes, or one file) with one of `suffixes`,
    minus the `exempt` prefixes; the self-test applies it to the
    fixtures whose names match `fixtures`.  An `escapable` rule drops a
    finding whose line, or the line above, names the rule (the
    NOLINT(<rule>) escape)."""
    id: str
    check: Callable[[Source], Findings]
    paths: tuple[str, ...]
    suffixes: tuple[str, ...] = (".h", ".cc")
    exempt: tuple[str, ...] = ()
    escapable: bool = False
    fixtures: tuple[str, ...] = ("*.h", "*.cc")

    def applies(self, rel: str) -> bool:
        return (rel.startswith(self.paths) and rel.endswith(self.suffixes)
                and not rel.startswith(self.exempt))

    def findings(self, src: Source) -> list[str]:
        return [f"{src.rel}:{line}: [{self.id}] {message}"
                for line, message in self.check(src)
                if not (self.escapable and escaped(src, line, self.id))]


def escaped(src: Source, line: int, rule_id: str) -> bool:
    return any(rule_id in src.lines[i] for i in (line - 1, line - 2)
               if 0 <= i < len(src.lines))


RULES = (
    Rule("include-guard", check_include_guard, ("src/", "tests/", "bench/"),
         (".h",), fixtures=("*.h",)),
    Rule("raw-assert", check_raw_assert, SOURCE_DIRS, CODE_SUFFIXES,
         exempt=("src/base/macros.h",)),
    Rule("citation", check_citation,
         ("src/repair/", "src/classify/", "src/reductions/"), CODE_SUFFIXES,
         fixtures=("citation_*",)),
    Rule("nolint", check_nolint, SOURCE_DIRS, CODE_SUFFIXES),
    Rule("tsan-suppress", check_tsan_suppressions,
         ("tools/tsan_suppressions.txt",), (".txt",), fixtures=("*.txt",)),
    Rule("prefrep-checkpoint", check_checkpoint, CHECKPOINT_DIRS,
         escapable=True),
    Rule("prefrep-nodiscard", check_parse_declarations, ("src/",), (".h",)),
    Rule("prefrep-raw-concurrency", check_raw_concurrency, SOURCE_DIRS,
         CODE_SUFFIXES, exempt=("src/base/",), escapable=True),
    Rule("prefrep-durability", check_raw_persist_writes, ("src/persist/",),
         exempt=("src/persist/file_io.cc",), escapable=True),
    Rule("prefrep-durability", check_recovery_entry_returns, ("src/persist/",),
         (".h",), escapable=True),
    Rule("prefrep-hotloop", check_hotloop,
         ("src/conflicts/", "src/repair/global_two_keys.cc"),
         escapable=True),
)


def run_tree() -> tuple[list[str], int]:
    """Findings over the tree, and the number of files scanned."""
    roots = sorted({p.split("/")[0] for rule in RULES for p in rule.paths})
    findings: list[str] = []
    scanned = 0
    for path in sorted(f for root in roots
                       for f in (REPO_ROOT / root).rglob("*") if f.is_file()):
        rel = path.relative_to(REPO_ROOT).as_posix()
        rules = [rule for rule in RULES if rule.applies(rel)]
        if not rules or rel.startswith(FIXTURE_DIR + "/"):
            continue
        src = Source.load(path)
        scanned += 1
        for rule in rules:
            findings += rule.findings(src)
    return findings, scanned


def run_selftest() -> int:
    fixtures = {kind: sorted(p for p in (REPO_ROOT / FIXTURE_DIR / kind)
                             .rglob("*") if p.is_file())
                for kind in ("bad", "clean")}
    failures: list[str] = []
    expected_somewhere: set[str] = set()
    for kind, paths in fixtures.items():
        for path in paths:
            src = Source.load(path)
            by_rule = [(rule.id, rule.findings(src)) for rule in RULES
                       if any(fnmatch.fnmatch(path.name, g)
                              for g in rule.fixtures)]
            findings = [f for _, found in by_rule for f in found]
            if kind == "clean":
                if findings:
                    failures.append(
                        f"{src.rel}: clean fixture flagged: {findings}")
                continue
            expected = set(EXPECT_FINDING_RE.findall(src.text))
            if not expected:
                failures.append(f"{src.rel}: bad fixture lacks an "
                                "`EXPECT-FINDING: <rule>` comment")
                continue
            expected_somewhere |= expected
            flagged = {rule_id for rule_id, found in by_rule if found}
            for rule_id in sorted(expected - flagged):
                failures.append(f"{src.rel}: expected a {rule_id} finding, "
                                f"got {findings or 'none'}")
            for rule_id in sorted(flagged - expected):
                failures.append(f"{src.rel}: unexpected {rule_id} finding")
    for rule_id in sorted({rule.id for rule in RULES} - expected_somewhere):
        failures.append(f"{FIXTURE_DIR}/bad: no fixture expects a "
                        f"{rule_id} finding")
    for failure in failures:
        print(failure)
    print(f"check_prefrep --selftest: {len(fixtures['bad'])} bad + "
          f"{len(fixtures['clean'])} clean fixtures, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture self-test instead of the tree")
    parser.add_argument("--verbose", action="store_true",
                        help="print the number of files scanned")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    findings, scanned = run_tree()
    for finding in findings:
        print(finding)
    if args.verbose or not findings:
        status = "clean" if not findings else "dirty"
        print(f"check_prefrep: scanned {scanned} files, "
              f"{len(findings)} finding(s), {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
