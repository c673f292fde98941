#!/usr/bin/env python3
"""AST-backed domain checker for prefrep — the semantic rules that grew
out of tools/lint_prefrep.py's regex checks.  Registered as the
`check-prefrep` CTest; run from the repository root:

    python3 tools/check_prefrep.py [--engine=auto|internal|clang]
    python3 tools/check_prefrep.py --selftest   # fixture self-test

Unlike the line-regex lint, these rules need structure: loop extents,
loop nesting, and which values flow from which calls.  The checker
builds that structure with one of two engines producing the same
intermediate form (a loop tree with header/body source extents):

  * clang     libclang (python clang.cindex) — a real C++ AST.  Used
              when importable and a libclang shared object loads.
  * internal  a self-contained mini-parser: comment/string stripping,
              brace matching, loop-tree extraction.  No dependencies, so
              the check runs in the bare build container; the clang
              engine is the cross-check in CI.

Checks
------
prefrep-checkpoint
    Cooperative-cancellation discipline over the enumeration core
    (src/repair, src/query, src/serve).  Two shapes are flagged:
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
    above (justification discipline enforced by lint_prefrep check 4).

prefrep-nodiscard
    [[nodiscard]] discipline on failure-carrying types: Status and
    Result (src/base/status.h) and CheckResult
    (src/repair/improvement.h) must be declared class-level
    [[nodiscard]], and every Parse* entry point declared in a header
    must return one of those types or std::optional — a parse result
    that can be silently dropped hides malformed input.  The
    class-level attributes are what the negative-compile tests
    (tests/static_assert_test/) prove effective.

prefrep-raw-concurrency
    Raw standard-library concurrency primitives (std::mutex and
    friends, std::lock_guard/unique_lock/scoped_lock,
    std::condition_variable*, std::thread/jthread/async) are banned
    outside src/base/: everything else must go through the annotated
    Mutex/MutexLock/CondVar wrappers (src/base/thread_annotations.h)
    so Clang Thread Safety Analysis sees every acquisition, and
    through base/thread_pool.h for execution.  Subsumes (and retires)
    lint_prefrep's regex raw-thread and unbounded-shift checks.
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
    src/conflicts/: the conflict join is the hot path the columnar
    rewrite flattened (docs/memory-layout.md), and a vector-keyed map
    reintroduces one heap allocation per probe plus pointer-chasing
    per bucket.  Key by the seeded projection hash and verify against
    a row representative instead (conflicts/projection.h).
    Escape: NOLINT(prefrep-hotloop) on or above the line — the
    preserved reference join (conflicts.cc) carries one deliberately.

Exit status 0 when clean; 1 with one `path:line: message` per finding.
Stdlib-only unless the clang engine is explicitly requested.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CHECKPOINT_DIRS = ("src/repair", "src/query", "src/serve", "src/classify")
RAW_CONCURRENCY_DIRS = ("src", "tests", "bench", "examples")
RAW_CONCURRENCY_EXEMPT_PREFIX = "src/base/"
FIXTURE_DIR = Path("tests/check_prefrep_fixtures")

STATUS_HEADER = Path("src/base/status.h")
IMPROVEMENT_HEADER = Path("src/repair/improvement.h")

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

HOTLOOP_DIR = "src/conflicts"
HOTLOOP_RE = re.compile(r"\bstd::unordered_map\s*<\s*std::vector\b")

RAW_CONCURRENCY_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|thread|jthread|"
    r"async)\b")

PARSE_DECL_NAME_RE = re.compile(r"\bParse\w*\s*\(")
NODISCARD_RETURN_RE = re.compile(r"\bStatus\b|\bResult\s*<|\boptional\s*<")

DURABILITY_DIR = "src/persist"
DURABILITY_WRITE_CHOKE_POINT = "src/persist/file_io.cc"
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
    structure (same transform as lint_prefrep)."""
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


class InternalEngine:
    """Loop-tree extraction by lexical brace matching on stripped text."""

    name = "internal"

    LOOP_KEYWORD_RE = re.compile(r"\b(for|while)\s*\(")

    def extract_loops(self, path: Path, code: str) -> list[Loop]:
        loops: list[Loop] = []
        for m in self.LOOP_KEYWORD_RE.finditer(code):
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
        self._assign_depths(loops)
        return loops

    @staticmethod
    def _assign_depths(loops: list[Loop]) -> None:
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


class ClangEngine:
    """Loop-tree extraction from a real AST via libclang.  Produces the
    same Loop records (offsets into the stripped text) as
    InternalEngine, so every rule downstream is engine-independent."""

    name = "clang"

    def __init__(self) -> None:
        import clang.cindex as cindex  # noqa: deferred, optional dep
        self._cindex = cindex
        try:
            self._index = cindex.Index.create()
        except Exception:
            # Distros ship libclang under versioned paths the binding
            # does not always probe; try the usual suspects once.
            import glob
            candidates = sorted(
                glob.glob("/usr/lib/llvm-*/lib/libclang*.so*")
                + glob.glob("/usr/lib/*/libclang*.so*"), reverse=True)
            if not candidates:
                raise
            cindex.Config.set_library_file(candidates[0])
            self._index = cindex.Index.create()
        self._loop_kinds = {
            cindex.CursorKind.FOR_STMT,
            cindex.CursorKind.WHILE_STMT,
            cindex.CursorKind.DO_STMT,
            cindex.CursorKind.CXX_FOR_RANGE_STMT,
        }

    def extract_loops(self, path: Path, code: str) -> list[Loop]:
        cindex = self._cindex
        tu = self._index.parse(
            str(path),
            args=["-std=c++20", "-xc++", "-I", str(REPO_ROOT / "src")],
            options=cindex.TranslationUnit.PARSE_INCOMPLETE)
        loops: list[Loop] = []

        def visit(cursor):
            for child in cursor.get_children():
                loc = child.location
                if loc.file is not None and Path(str(loc.file)) != path:
                    continue
                if child.kind in self._loop_kinds:
                    start = child.extent.start.offset
                    children = list(child.get_children())
                    if children:
                        body = children[-1]
                        body_start = body.extent.start.offset
                        body_end = body.extent.end.offset
                        header = code[start:body_start]
                    else:
                        body_start = body_end = child.extent.end.offset
                        header = code[start:body_end]
                    # Trim the keyword off the header text so it matches
                    # the internal engine's parenthesized-header shape.
                    paren = header.find("(")
                    header = header[paren + 1:] if paren != -1 else header
                    loops.append(Loop(start, header, body_start, body_end,
                                      child.location.line))
                visit(child)

        visit(tu.cursor)
        InternalEngine._assign_depths(loops)
        return loops


def make_engine(choice: str) -> "InternalEngine | ClangEngine":
    if choice == "internal":
        return InternalEngine()
    if choice == "clang":
        return ClangEngine()
    try:
        return ClangEngine()
    except Exception:
        return InternalEngine()


class Checker:
    def __init__(self, engine) -> None:
        self.engine = engine
        self.findings: list[str] = []

    def report(self, rel: Path, line: int, check: str, message: str) -> None:
        self.findings.append(f"{rel}:{line}: [{check}] {message}")

    # -- prefrep-checkpoint ------------------------------------------------

    @staticmethod
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

    @staticmethod
    def tainted_names(code: str) -> set[str]:
        """Identifiers (transitively) assigned from a repair-source call,
        plus FoldBlocks step payload parameters.  Statement-granular:
        split on ';', look for `lhs = ...source...`, then run a
        var-to-var copy fixpoint (`a = b` / `a = move(b)`)."""
        tainted: set[str] = Checker.fold_step_payloads(code)
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

    def check_checkpoint(self, rel: Path, text: str, code: str) -> None:
        lines = text.split("\n")
        tainted = self.tainted_names(code)
        for loop in self.engine.extract_loops(REPO_ROOT / rel, code):
            body = code[loop.body_start:loop.body_end]
            if CHECKPOINT_RE.search(body):
                continue
            raw = lines[loop.line - 1] if loop.line <= len(lines) else ""
            prev = lines[loop.line - 2] if loop.line >= 2 else ""
            if ("prefrep-checkpoint" in raw or "prefrep-checkpoint" in prev):
                continue
            if VAR_SHIFT_RE.search(loop.header):
                self.report(
                    rel, loop.line, "prefrep-checkpoint",
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
                self.report(
                    rel, loop.line, "prefrep-checkpoint",
                    "nested loop over a repair-derived range materializes "
                    "results with no reachable governor Checkpoint() — this "
                    "is the cross-block-product shape whose size the "
                    "governor never admitted; checkpoint every iteration "
                    "(canonical pattern: src/repair/block_solver.cc) or "
                    "justify with NOLINT(prefrep-checkpoint)")

    # -- prefrep-nodiscard -------------------------------------------------

    def check_class_nodiscard(self) -> None:
        for rel, kind, name in ((STATUS_HEADER, "class", "Status"),
                                (STATUS_HEADER, "class", "Result"),
                                (IMPROVEMENT_HEADER, "struct", "CheckResult")):
            path = REPO_ROOT / rel
            if not path.exists():
                self.report(rel, 1, "prefrep-nodiscard", "file missing")
                continue
            code = strip_comments_and_strings(
                path.read_text(encoding="utf-8"))
            if not re.search(
                    rf"\b{kind}\s+\[\[\s*nodiscard\s*\]\]\s+{name}\b", code):
                self.report(
                    rel, 1, "prefrep-nodiscard",
                    f"{kind} {name} must be declared `{kind} [[nodiscard]] "
                    f"{name}` — the class-level attribute is what makes "
                    "every dropped result a warning (and what "
                    "tests/static_assert_test proves)")

    def check_parse_declarations(self, rel: Path, code: str) -> None:
        for m in PARSE_DECL_NAME_RE.finditer(code):
            stmt_start = max(code.rfind(ch, 0, m.start())
                             for ch in ";{}#")
            stmt = code[stmt_start + 1:m.start()]
            if not stmt.strip():
                continue  # argument position or similar — not a declaration
            if re.search(r"[=.,(]|->|\breturn\b", stmt):
                continue  # a call, not a declaration
            if NODISCARD_RETURN_RE.search(stmt):
                continue
            line = code.count("\n", 0, m.start()) + 1
            self.report(
                rel, line, "prefrep-nodiscard",
                "Parse* entry point must return Status, Result<...> or "
                "std::optional<...> so a dropped parse failure cannot "
                "compile silently")

    # -- prefrep-raw-concurrency ------------------------------------------

    def check_raw_concurrency(self, rel: Path, text: str, code: str) -> None:
        lines = text.split("\n")
        for idx, code_line in enumerate(code.split("\n"), start=1):
            m = RAW_CONCURRENCY_RE.search(code_line)
            if not m:
                continue
            raw = lines[idx - 1] if idx <= len(lines) else ""
            prev = lines[idx - 2] if idx >= 2 else ""
            if ("prefrep-raw-concurrency" in raw
                    or "prefrep-raw-concurrency" in prev):
                continue
            self.report(
                rel, idx, "prefrep-raw-concurrency",
                f"raw std::{m.group(1)} outside src/base/ — use the "
                "annotated Mutex/MutexLock/CondVar wrappers "
                "(src/base/thread_annotations.h) so Thread Safety Analysis "
                "sees the acquisition, and base/thread_pool.h for "
                "execution; or justify with NOLINT(prefrep-raw-concurrency)")

    # -- prefrep-hotloop ---------------------------------------------------

    def check_hotloop(self, rel: Path, text: str, code: str) -> None:
        lines = text.split("\n")
        for m in HOTLOOP_RE.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            raw = lines[line - 1] if line <= len(lines) else ""
            prev = lines[line - 2] if line >= 2 else ""
            if "prefrep-hotloop" in raw or "prefrep-hotloop" in prev:
                continue
            self.report(
                rel, line, "prefrep-hotloop",
                "hash map keyed by a materialized std::vector in the "
                "conflict hot path — key by the seeded projection hash "
                "and verify against a row representative instead "
                "(conflicts/projection.h, docs/memory-layout.md); or "
                "justify with NOLINT(prefrep-hotloop)")

    # -- prefrep-durability ------------------------------------------------

    def check_raw_persist_writes(self, rel: Path, text: str,
                                 code: str) -> None:
        lines = text.split("\n")
        for idx, code_line in enumerate(code.split("\n"), start=1):
            m = RAW_WRITE_RE.search(code_line)
            if not m:
                continue
            raw = lines[idx - 1] if idx <= len(lines) else ""
            prev = lines[idx - 2] if idx >= 2 else ""
            if "prefrep-durability" in raw or "prefrep-durability" in prev:
                continue
            self.report(
                rel, idx, "prefrep-durability",
                f"raw write primitive `{m.group(0)}` in the persistence "
                "layer — every byte that reaches disk must go through the "
                "checksummed AppendOnlyFile/AtomicWriteFile choke point "
                "(src/persist/file_io.h), or justify with "
                "NOLINT(prefrep-durability)")

    def check_recovery_entry_returns(self, rel: Path, text: str,
                                     code: str) -> None:
        lines = text.split("\n")
        for m in RECOVERY_ENTRY_RE.finditer(code):
            if m.start() > 0 and code[m.start() - 1] in "~.:_":
                continue  # destructor, member call, or qualified name tail
            stmt_start = max(code.rfind(ch, 0, m.start()) for ch in ";{}#")
            stmt = code[stmt_start + 1:m.start()]
            if not stmt.strip():
                continue
            if re.search(r"[=.,(]|->|\breturn\b", stmt):
                continue  # a call or initializer, not a declaration
            return_type = [t for t in IDENT_RE.findall(stmt)
                           if t not in DECL_QUALIFIERS]
            if not return_type:
                continue  # constructor: qualifiers only, no return type
            if NODISCARD_RETURN_RE.search(stmt):
                continue
            line = code.count("\n", 0, m.start()) + 1
            raw = lines[line - 1] if line <= len(lines) else ""
            prev = lines[line - 2] if line >= 2 else ""
            if "prefrep-durability" in raw or "prefrep-durability" in prev:
                continue
            self.report(
                rel, line, "prefrep-durability",
                "durability/recovery entry point must return Status or "
                "Result<...> — a recovery step whose failure is void or "
                "bool turns data loss into silent wrong answers; or "
                "justify with NOLINT(prefrep-durability)")

    # -- drivers -----------------------------------------------------------

    def run_tree(self) -> int:
        scanned = 0
        self.check_class_nodiscard()
        for d in CHECKPOINT_DIRS:
            for path in sorted((REPO_ROOT / d).rglob("*")):
                if path.suffix not in (".h", ".cc"):
                    continue
                rel = path.relative_to(REPO_ROOT)
                text = path.read_text(encoding="utf-8")
                code = strip_comments_and_strings(text)
                self.check_checkpoint(rel, text, code)
                scanned += 1
        for path in sorted((REPO_ROOT / "src").rglob("*.h")):
            rel = path.relative_to(REPO_ROOT)
            code = strip_comments_and_strings(
                path.read_text(encoding="utf-8"))
            self.check_parse_declarations(rel, code)
            scanned += 1
        for path in sorted((REPO_ROOT / DURABILITY_DIR).rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(REPO_ROOT)
            text = path.read_text(encoding="utf-8")
            code = strip_comments_and_strings(text)
            if str(rel) != DURABILITY_WRITE_CHOKE_POINT:
                self.check_raw_persist_writes(rel, text, code)
            if path.suffix == ".h":
                self.check_recovery_entry_returns(rel, text, code)
            scanned += 1
        for path in sorted((REPO_ROOT / HOTLOOP_DIR).rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(REPO_ROOT)
            text = path.read_text(encoding="utf-8")
            self.check_hotloop(rel, text, strip_comments_and_strings(text))
            scanned += 1
        for d in RAW_CONCURRENCY_DIRS:
            for suffix in ("*.h", "*.cc", "*.cpp"):
                for path in sorted((REPO_ROOT / d).rglob(suffix)):
                    rel = path.relative_to(REPO_ROOT)
                    rel_str = str(rel)
                    if rel_str.startswith(RAW_CONCURRENCY_EXEMPT_PREFIX):
                        continue
                    if rel_str.startswith(str(FIXTURE_DIR)):
                        continue  # fixtures are deliberately dirty
                    text = path.read_text(encoding="utf-8")
                    code = strip_comments_and_strings(text)
                    self.check_raw_concurrency(rel, text, code)
                    scanned += 1
        return scanned

    def run_fixture(self, path: Path) -> list[str]:
        """Applies every per-file rule to one fixture, returning its
        findings (fixtures opt into all checks regardless of directory)."""
        saved, self.findings = self.findings, []
        rel = path.relative_to(REPO_ROOT)
        text = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(text)
        self.check_checkpoint(rel, text, code)
        self.check_parse_declarations(rel, code)
        self.check_raw_concurrency(rel, text, code)
        self.check_hotloop(rel, text, code)
        self.check_raw_persist_writes(rel, text, code)
        self.check_recovery_entry_returns(rel, text, code)
        got, self.findings = self.findings, saved
        return got


def run_selftest(engine) -> int:
    """Every fixture under bad/ must produce at least one finding of the
    check id named by its `EXPECT-FINDING:` comment (and no finding of
    any other check); every fixture under clean/ must produce none."""
    checker = Checker(engine)
    failures = []
    bad_dir = REPO_ROOT / FIXTURE_DIR / "bad"
    clean_dir = REPO_ROOT / FIXTURE_DIR / "clean"
    bad = sorted(p for p in bad_dir.rglob("*") if p.suffix in (".h", ".cc"))
    clean = sorted(
        p for p in clean_dir.rglob("*") if p.suffix in (".h", ".cc"))
    if not bad or not clean:
        print(f"check_prefrep --selftest: no fixtures under {FIXTURE_DIR}")
        return 1
    for path in bad:
        rel = path.relative_to(REPO_ROOT)
        expected = EXPECT_FINDING_RE.findall(
            path.read_text(encoding="utf-8"))
        if not expected:
            failures.append(f"{rel}: bad fixture lacks an "
                            "`EXPECT-FINDING: <check>` comment")
            continue
        findings = checker.run_fixture(path)
        flagged = {f.split("[", 1)[1].split("]", 1)[0]
                   for f in findings if "[" in f}
        for check in expected:
            if check not in flagged:
                failures.append(
                    f"{rel}: expected a {check} finding, got "
                    f"{findings or 'none'}")
        for check in flagged - set(expected):
            failures.append(f"{rel}: unexpected {check} finding")
    for path in clean:
        rel = path.relative_to(REPO_ROOT)
        findings = checker.run_fixture(path)
        if findings:
            failures.append(f"{rel}: clean fixture flagged: {findings}")
    for failure in failures:
        print(failure)
    print(f"check_prefrep --selftest [{engine.name}]: "
          f"{len(bad)} bad + {len(clean)} clean fixtures, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--engine", choices=("auto", "internal", "clang"),
                        default="auto",
                        help="AST engine (auto: clang if available, else "
                        "the built-in parser)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture self-test instead of the tree")
    parser.add_argument("--verbose", action="store_true",
                        help="print the number of files scanned")
    args = parser.parse_args()
    engine = make_engine(args.engine)
    if args.selftest:
        return run_selftest(engine)
    checker = Checker(engine)
    scanned = checker.run_tree()
    for finding in checker.findings:
        print(finding)
    if args.verbose or not checker.findings:
        status = "clean" if not checker.findings else "dirty"
        print(f"check_prefrep [{engine.name}]: scanned {scanned} files, "
              f"{len(checker.findings)} finding(s), {status}")
    return 1 if checker.findings else 0


if __name__ == "__main__":
    sys.exit(main())
