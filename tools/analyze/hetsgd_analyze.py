#!/usr/bin/env python3
"""hetsgd-analyze: semantic invariant checks for the hetsgd tree.

Where tools/lint/hetsgd_lint.py guards file-scope *textual* contracts,
this analyzer checks invariants that only exist at the level of program
structure — struct layouts, lock-acquisition nesting, variant dispatch,
atomic call expressions. It parses the tree into a small syntactic index
(token stream + scope tree) and runs five rules over it:

  ckpt-field-coverage   Every non-static data member of
                        core::TrainingCheckpoint and the structs it embeds
                        (WorkerCheckpoint, WorkerStats, LossPoint,
                        RngState, ...) must be referenced in both the
                        write_training_checkpoint and
                        read_training_checkpoint serialization closures
                        (the functions themselves plus same-file helpers
                        they call). "Added a field, forgot to serialize
                        it" becomes a build break instead of a resumed run
                        that silently diverges. Types with their own
                        envelope serializer (nn::Model) are opaque here.

  lock-order            Builds the static lock-acquisition graph: an edge
                        A -> B whenever a MutexLock scope for B opens
                        while A is held — lexically nested scopes, scopes
                        inside HETSGD_REQUIRES(A) functions, and calls
                        made with A held into functions that (transitively)
                        acquire B. Any cycle in that graph is a potential
                        deadlock and is reported with the witness path.

  msg-exhaustive        Every dispatch over the msg::Message variant (a
                        std::holds_alternative chain or std::visit) must
                        account for ALL alternatives: each one either
                        handled by a branch or explicitly declared
                        uninteresting in a
                          // hetsgd-analyze: dispatch ignores(A, B, ...)
                        annotation above the dispatch. A terminal
                        log-and-drop else does NOT count — that is exactly
                        the stale dispatcher this rule exists to flag when
                        a new message kind is added.

  atomic-discipline     Every memory_order_relaxed operation must sit on
                        an allowlisted atomic field (the lock-free queue
                        internals and the obs counters, listed in
                        ALLOWED_RELAXED below). Everything else must use
                        acquire/release or stronger — benign *non-atomic*
                        races belong in scripts/tsan.supp (the single
                        source of truth, cross-checked by hetsgd-lint's
                        tsan-supp-stale rule), not behind relaxed atomics.

  wall-clock-core       AST-level upgrade of hetsgd-lint's regex
                        wall-clock rule: catches aliased clock reads
                        (`using clk = std::chrono::steady_clock; clk::now()`)
                        and sleep calls in src/core/, which is
                        virtual-time-charged code.

Frontends: with the libclang Python bindings installed (CI), translation
units are parsed with clang over compile_commands.json and record layouts
come from the real AST; without them (the default container), a built-in
C++ lexer + scope tracker produces the same index with documented
reduced fidelity. `--frontend clang` mirrors check_all.sh gates 2/3:
SKIP (exit 0) when libclang is absent, a failure under --require-clang.

Waivers: a line (or up to two lines above it) containing
    // hetsgd-analyze: allow(<rule>) <justification>
suppresses that rule at that site. The justification is mandatory.

Exit status: 0 = clean/skip, 1 = findings or self-test failure,
2 = usage/config error.

Usage:
    tools/analyze/hetsgd_analyze.py [--root DIR] [--compile-commands PATH]
                                    [--frontend auto|clang|builtin]
                                    [--require-clang]
    tools/analyze/hetsgd_analyze.py --self-test
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import re
import sys
from dataclasses import dataclass, field as dc_field

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".inl")
HEADER_EXTENSIONS = (".hpp", ".hh", ".h", ".inl")
SKIP_DIRS = {"CMakeFiles", "fixtures"}

WAIVER_RE = re.compile(r"//\s*hetsgd-analyze:\s*allow\(([a-z0-9-]+)\)\s*(\S.*)?$")
DISPATCH_ANNOT_RE = re.compile(
    r"//\s*hetsgd-analyze:\s*dispatch\s+ignores\(")
EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([a-z0-9-]+)")

# --- rule configuration -----------------------------------------------------

# ckpt-field-coverage: the root struct, its serializer pair, and the types
# whose members are serialized by their own envelope serializer and are
# therefore opaque to this rule (nn::Model has write_model/read_model with
# its own tests).
CKPT_ROOT_STRUCT = "TrainingCheckpoint"
CKPT_WRITE_FN = "write_training_checkpoint"
CKPT_READ_FN = "read_training_checkpoint"
CKPT_OPAQUE_TYPES = {"Model"}

# msg-exhaustive: the dispatched variant alias (discovered by name in the
# scanned tree so fixtures can define their own).
MSG_VARIANT_NAME = "Message"

# atomic-discipline: the sanctioned memory_order_relaxed sites, keyed by
# (root-relative path, atomic field name). This is the atomic counterpart
# of scripts/tsan.supp: queue internals whose ordering is carried
# by the surrounding acquire/release edges, and obs/log counters where a
# stale read only skews a statistic. The three sanctioned Hogwild races
# (tensor::axpy, nn::Model::operator=, the dataset shuffle helpers) are
# deliberately NOT here — they are plain non-atomic races suppressed in
# tsan.supp; turning them into relaxed atomics would hide them from TSan
# without making them more correct.
ALLOWED_RELAXED = {
    # SPSC ring: own-side index loads (the owning thread wrote them last).
    ("src/concurrent/spsc_ring.hpp", "head_"),
    ("src/concurrent/spsc_ring.hpp", "tail_"),
    # MPSC queue: stub init before publication + consumer-side next load
    # (ordering carried by the producer's exchange/store pair).
    ("src/concurrent/mpsc_queue.hpp", "head_"),
    ("src/concurrent/mpsc_queue.hpp", "next"),
    # obs metrics: statistical counters; sum() is documented as
    # approximate under concurrent increments.
    ("src/obs/metrics.hpp", "v"),
    ("src/obs/metrics.hpp", "value_"),
    ("src/obs/metrics.cpp", "next"),
    ("src/obs/metrics.cpp", "counts_"),
    ("src/obs/metrics.cpp", "count_"),
    ("src/obs/metrics.cpp", "sum_"),
    # tracer: drop counters and the enabled fast-path flag (the slow path
    # re-checks under s.mu).
    ("src/obs/trace.cpp", "collected"),
    ("src/obs/trace.cpp", "enabled"),
    ("src/obs/trace.cpp", "dropped"),
    # exporter: running_ fast-path check (start/stop synchronize via the
    # thread join) and the snapshot statistic.
    ("src/obs/exporter.cpp", "running_"),
    ("src/obs/exporter.cpp", "snapshots_"),
    # --self-test vectors (root = tools/analyze/fixtures/<case>).
    ("src/obs/clean.cpp", "hits_"),
    ("src/core/clean.cpp", "ticks_"),
}

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "constexpr", "const_cast", "continue", "decltype",
    "default", "delete", "do", "double", "dynamic_cast", "else", "enum",
    "explicit", "extern", "false", "final", "float", "for", "friend", "goto",
    "if", "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
    "nullptr", "operator", "override", "private", "protected", "public",
    "register", "reinterpret_cast", "return", "short", "signed", "sizeof",
    "static", "static_assert", "static_cast", "struct", "switch", "template",
    "this", "throw", "true", "try", "typedef", "typeid", "typename", "union",
    "unsigned", "using", "virtual", "void", "volatile", "while",
}

WALL_CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}
ATOMIC_OPS = {
    "load", "store", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
    "fetch_xor", "exchange", "compare_exchange_weak", "compare_exchange_strong",
    "test_and_set", "clear", "wait", "notify_one", "notify_all",
}


# --- findings ---------------------------------------------------------------

@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def format(self, root: str) -> str:
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


# --- token stream (built-in frontend) ---------------------------------------

@dataclass
class Tok:
    kind: str  # "id", "num", "str", "chr", "p" (punct)
    text: str
    line: int


PUNCT3 = {"<<=", ">>=", "...", "->*"}
PUNCT2 = {"::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++",
          "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*"}


def strip_directives(text: str) -> str:
    """Blanks preprocessor directives (incl. line continuations), keeping
    line numbers stable — macro bodies otherwise leak braces into the
    scope tracker."""
    out = []
    in_directive = False
    for line in text.split("\n"):
        starts = line.lstrip().startswith("#")
        if in_directive or starts:
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            in_directive = False
            out.append(line)
    return "\n".join(out)


def tokenize(text: str) -> list[Tok]:
    """C++ lexer: skips comments, keeps string/char literals as single
    tokens, tracks line numbers. Raw strings are not supported (none in
    the tree; hetsgd-lint would be the place to ban them)."""
    toks: list[Tok] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    break
                line += text.count("\n", i, j + 2)
                i = j + 2
                continue
        if c == '"' or c == "'":
            q = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == q:
                    break
                if text[j] == "\n":
                    break  # unterminated; tolerate
                j += 1
            toks.append(Tok("str" if q == '"' else "chr", text[i:j + 1], line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        if text[i:i + 3] in PUNCT3:
            toks.append(Tok("p", text[i:i + 3], line))
            i += 3
            continue
        if text[i:i + 2] in PUNCT2:
            toks.append(Tok("p", text[i:i + 2], line))
            i += 2
            continue
        toks.append(Tok("p", c, line))
        i += 1
    return toks


# --- the index (facts shared by both frontends) ------------------------------

@dataclass
class FieldDef:
    name: str
    line: int
    type_ids: list[str]
    is_static: bool = False


@dataclass
class StructDef:
    name: str
    path: str
    line: int
    fields: list[FieldDef] = dc_field(default_factory=list)


@dataclass
class LockEvent:
    mutex_expr: str     # raw expression text
    line: int
    depth: int          # scope-stack depth at declaration
    held: list[str] = dc_field(default_factory=list)  # raw exprs held here


@dataclass
class CallEvent:
    name: str           # leaf callee name
    receiver: str | None  # leaf id before . / -> (None for plain calls)
    qualifier: str | None  # leaf id before :: (class-qualified calls)
    line: int
    held: list[str] = dc_field(default_factory=list)


@dataclass
class HoldsEvent:
    alt: str
    subject: str
    line: int


@dataclass
class VisitEvent:
    line: int
    arm_types: set[str]
    has_auto: bool


@dataclass
class FuncDef:
    name: str
    cls: str | None
    path: str
    line: int
    requires: list[str] = dc_field(default_factory=list)  # raw exprs
    locks: list[LockEvent] = dc_field(default_factory=list)
    calls: list[CallEvent] = dc_field(default_factory=list)
    members: set[str] = dc_field(default_factory=set)
    holds: list[HoldsEvent] = dc_field(default_factory=list)
    visits: list[VisitEvent] = dc_field(default_factory=list)


@dataclass
class AtomicSite:
    path: str
    line: int
    field: str
    op: str


@dataclass
class ChronoUse:
    path: str
    line: int
    what: str


@dataclass
class VariantDef:
    name: str
    path: str
    line: int
    alternatives: list[str]


@dataclass
class Index:
    structs: list[StructDef] = dc_field(default_factory=list)
    funcs: list[FuncDef] = dc_field(default_factory=list)
    atomics: list[AtomicSite] = dc_field(default_factory=list)
    chronos: list[ChronoUse] = dc_field(default_factory=list)
    variants: list[VariantDef] = dc_field(default_factory=list)
    # (class, method) -> raw REQUIRES arg exprs, from declarations.
    decl_requires: dict[tuple[str | None, str], list[str]] = \
        dc_field(default_factory=dict)
    # class -> {member: [type ids]} for receiver resolution.
    member_types: dict[str, dict[str, list[str]]] = \
        dc_field(default_factory=dict)
    files: list[str] = dc_field(default_factory=list)


# --- built-in frontend: scope-tracking extraction ----------------------------

@dataclass
class Scope:
    kind: str           # "ns" | "struct" | "enum" | "func" | "block"
    name: str | None = None
    func: FuncDef | None = None


class FileScanner:
    """One linear pass over a file's token stream, maintaining a scope
    stack, classifying every `{` from the statement head before it, and
    recording facts into the shared Index."""

    def __init__(self, index: Index, path: str):
        self.index = index
        self.path = path
        self.scopes: list[Scope] = []
        self.head: list[Tok] = []      # tokens since last ; { }
        self.active_locks: list[LockEvent] = []
        self.chrono_aliases: set[str] = set()

    # -- helpers --

    def cur_func(self) -> FuncDef | None:
        for s in reversed(self.scopes):
            if s.kind == "func":
                return s.func
            if s.kind in ("ns",):
                return None
        return None

    def cur_struct(self) -> str | None:
        for s in reversed(self.scopes):
            if s.kind == "struct":
                return s.name
            if s.kind == "func":
                return None
        return None

    def enclosing_struct_for_head(self) -> str | None:
        for s in reversed(self.scopes):
            if s.kind == "struct":
                return s.name
        return None

    # -- head classification on `{` --

    def classify_open(self, toks: list[Tok]) -> Scope:
        head = self.head
        ids = [t.text for t in head if t.kind == "id"]
        in_func = self.cur_func() is not None
        if not in_func:
            if "namespace" in ids:
                return Scope("ns", ids[-1] if len(ids) > 1 else None)
            if "enum" in ids:
                return Scope("enum")
            if ("struct" in ids or "class" in ids or "union" in ids) \
                    and self._looks_like_record(head):
                return Scope("struct", self._record_name(head))
            fn = self._function_head(head)
            if fn is not None:
                return Scope("func", func=fn)
            return Scope("block")
        # Inside a function every `{` is a block (if/for/lambda/init).
        return Scope("block")

    def _looks_like_record(self, head: list[Tok]) -> bool:
        # `struct X {` / `class Y : base {` — but NOT a function whose
        # return type mentions a struct, which would have a param list.
        # Records may still have parens from capability annotations
        # (HETSGD_CAPABILITY("mutex")); those sit between the keyword and
        # the name, so require: no `(` after the last identifier.
        last_id = None
        for i, t in enumerate(head):
            if t.kind == "id" and t.text not in ("final",):
                last_id = i
        if last_id is None:
            return False
        return not any(t.text == "(" for t in head[last_id:])

    def _record_name(self, head: list[Tok]) -> str | None:
        # Name = last identifier before a base-clause `:` (skipping
        # `final`), else the last identifier.
        cut = len(head)
        depth = 0
        for i, t in enumerate(head):
            if t.text in ("<", "("):
                depth += 1
            elif t.text in (">", ")"):
                depth -= 1
            elif t.text == ":" and depth == 0:
                cut = i
                break
        ids = [t.text for t in head[:cut]
               if t.kind == "id" and t.text not in ("final", "struct", "class",
                                                    "union", "template",
                                                    "typename", "alignas")]
        return ids[-1] if ids else None

    def _function_head(self, head: list[Tok]) -> FuncDef | None:
        # A function definition head has a top-level parenthesized
        # parameter list whose opening `(` is preceded by the function
        # name (or an operator token run).
        depth = 0
        name_i = None
        for i, t in enumerate(head):
            if t.text == "(" :
                if depth == 0 and i > 0 and name_i is None:
                    prev = head[i - 1]
                    if prev.kind == "id" and prev.text not in KEYWORDS:
                        name_i = i - 1
                    elif prev.kind == "p" and any(
                            h.text == "operator" for h in head[max(0, i - 3):i]):
                        name_i = i - 1
                depth += 1
            elif t.text == ")":
                depth -= 1
        if name_i is None:
            return None
        name = head[name_i].text
        if head[name_i].kind == "p":
            name = "operator" + name
        cls = None
        if name_i >= 2 and head[name_i - 1].text == "::" \
                and head[name_i - 2].kind == "id":
            cls = head[name_i - 2].text
        elif self.enclosing_struct_for_head() is not None:
            cls = self.enclosing_struct_for_head()
        fn = FuncDef(name=name, cls=cls, path=self.path,
                     line=head[name_i].line)
        fn.requires = self._annotation_args(head, "HETSGD_REQUIRES")
        return fn

    def _annotation_args(self, toks: list[Tok], macro: str) -> list[str]:
        args: list[str] = []
        i = 0
        while i < len(toks):
            if toks[i].kind == "id" and toks[i].text == macro \
                    and i + 1 < len(toks) and toks[i + 1].text == "(":
                depth = 0
                j = i + 1
                cur: list[str] = []
                while j < len(toks):
                    t = toks[j].text
                    if t == "(":
                        depth += 1
                        if depth == 1:
                            j += 1
                            continue
                    elif t == ")":
                        depth -= 1
                        if depth == 0:
                            if cur:
                                args.append("".join(cur))
                            break
                    elif t == "," and depth == 1:
                        if cur:
                            args.append("".join(cur))
                        cur = []
                        j += 1
                        continue
                    if depth >= 1:
                        cur.append(t)
                    j += 1
                i = j
            i += 1
        return args

    # -- statement handling --

    def end_statement(self) -> None:
        head = self.head
        self.head = []
        if not head:
            return
        if self.cur_func() is not None:
            return  # body statements are handled token-by-token
        struct = self.cur_struct()
        texts = [t.text for t in head]
        if struct is not None and self.scopes and \
                self.scopes[-1].kind == "struct":
            self._struct_statement(struct, head, texts)
        self._using_statement(head, texts)

    def _struct_statement(self, struct: str, head: list[Tok],
                          texts: list[str]) -> None:
        # Method declaration carrying HETSGD_REQUIRES -> remember for the
        # out-of-line definition.
        req = self._annotation_args(head, "HETSGD_REQUIRES")
        head = self._strip_annotation_macros(head)
        texts = [t.text for t in head]
        if req and "(" in texts:
            fn = self._function_head(head)
            if fn is not None:
                self.index.decl_requires[(struct, fn.name)] = req
            return
        if texts and texts[0] in ("public", "private", "protected"):
            return
        if texts and texts[0] in ("using", "typedef", "friend", "template",
                                  "enum", "static_assert"):
            return
        is_static = "static" in texts
        # Field: no parens before the initializer.
        stop = len(head)
        for i, t in enumerate(head):
            if t.text in ("=", "{", "["):
                stop = i
                break
        if any(t.text == "(" for t in head[:stop]):
            return  # method / constructor declaration
        decl = head[:stop]
        name_tok = None
        for t in reversed(decl):
            if t.kind == "id" and t.text not in KEYWORDS:
                name_tok = t
                break
        if name_tok is None:
            return
        type_ids = [t.text for t in decl
                    if t.kind == "id" and t is not name_tok
                    and t.text not in KEYWORDS]
        sd = self._struct_def(struct)
        if sd is not None:
            sd.fields.append(FieldDef(name_tok.text, name_tok.line, type_ids,
                                      is_static))
            self.index.member_types.setdefault(struct, {})[name_tok.text] = \
                type_ids

    def _strip_annotation_macros(self, head: list[Tok]) -> list[Tok]:
        """Drops HETSGD_*(...) attribute macros (GUARDED_BY, REQUIRES, ...)
        so an annotated field is not mistaken for a method declaration."""
        out: list[Tok] = []
        i = 0
        while i < len(head):
            t = head[i]
            if t.kind == "id" and t.text.startswith("HETSGD_") \
                    and i + 1 < len(head) and head[i + 1].text == "(":
                depth = 0
                j = i + 1
                while j < len(head):
                    if head[j].text == "(":
                        depth += 1
                    elif head[j].text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                i = j + 1
                continue
            if t.kind == "id" and t.text.startswith("HETSGD_"):
                i += 1  # parameterless attribute macro
                continue
            out.append(t)
            i += 1
        return out

    def _struct_def(self, name: str) -> StructDef | None:
        for sd in reversed(self.index.structs):
            if sd.name == name and sd.path == self.path:
                return sd
        return None

    def _using_statement(self, head: list[Tok], texts: list[str]) -> None:
        if len(texts) < 3 or texts[0] != "using" or texts[2] != "=":
            return
        name = texts[1]
        if "variant" in texts:
            alts = self._variant_alternatives(head)
            if alts:
                self.index.variants.append(
                    VariantDef(name, self.path, head[0].line, alts))
        if any(t in WALL_CLOCKS for t in texts):
            self.chrono_aliases.add(name)

    def _variant_alternatives(self, head: list[Tok]) -> list[str]:
        # ids at angle-depth 1 inside the variant<...> list; the last id of
        # each comma-separated part is the alternative's leaf name.
        try:
            vi = next(i for i, t in enumerate(head) if t.text == "variant")
        except StopIteration:
            return []
        depth = 0
        alts: list[str] = []
        last_id: str | None = None
        for t in head[vi:]:
            if t.text == "<":
                depth += 1
                continue
            if t.text == ">":
                depth -= 1
                if depth == 0:
                    if last_id:
                        alts.append(last_id)
                    break
                continue
            if depth == 1 and t.text == ",":
                if last_id:
                    alts.append(last_id)
                last_id = None
            elif depth == 1 and t.kind == "id" and t.text not in KEYWORDS:
                last_id = t.text
        return alts

    # -- main loop --

    def scan(self, toks: list[Tok]) -> None:
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text == "{":
                scope = self.classify_open(toks)
                if scope.kind == "block" and self.head \
                        and self.cur_func() is None:
                    # Aggregate / brace initializer at namespace or struct
                    # scope (`uint64_t s[4] = {0,0,0,0};`): part of the
                    # statement, not a new scope — consume to the matching
                    # brace and keep accumulating the declaration.
                    depth = 0
                    j = i
                    while j < n:
                        if toks[j].text == "{":
                            depth += 1
                        elif toks[j].text == "}":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    self.head.append(t)  # field-name stop marker
                    i = j + 1
                    continue
                if scope.kind == "struct" and scope.name:
                    self.index.structs.append(
                        StructDef(scope.name, self.path,
                                  self.head[0].line if self.head else t.line))
                if scope.kind == "func" and scope.func is not None:
                    self.index.funcs.append(scope.func)
                self.scopes.append(scope)
                self.head = []
                i += 1
                continue
            if t.text == "}":
                if self.scopes:
                    self.scopes.pop()
                depth = len(self.scopes)
                self.active_locks = [e for e in self.active_locks
                                     if e.depth <= depth]
                self.head = []
                i += 1
                # `};` terminators etc. reset via head
                continue
            if t.text == ";":
                self.end_statement()
                i += 1
                continue

            fn = self.cur_func()
            if fn is not None:
                i = self._body_token(fn, toks, i)
            else:
                self.head.append(t)
                i += 1
        # EOF: flush
        self.end_statement()

    # -- body facts --

    def _body_token(self, fn: FuncDef, toks: list[Tok], i: int) -> int:
        t = toks[i]
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        nx2 = toks[i + 2] if i + 2 < len(toks) else None
        prev = toks[i - 1] if i > 0 else None

        # MutexLock <var> ( <expr> )
        if t.kind == "id" and t.text == "MutexLock" and nxt is not None \
                and nxt.kind == "id" and nx2 is not None and nx2.text == "(":
            j, expr = self._paren_expr(toks, i + 2)
            ev = LockEvent(expr, t.line, len(self.scopes),
                           held=[e.mutex_expr for e in self.active_locks])
            fn.locks.append(ev)
            self.active_locks.append(ev)
            return j

        # member access
        if t.text in (".", "->") and nxt is not None and nxt.kind == "id":
            fn.members.add(nxt.text)

        # holds_alternative< T >( subj )
        if t.kind == "id" and t.text == "holds_alternative" \
                and nxt is not None and nxt.text == "<":
            j = i + 1
            depth = 0
            type_ids: list[str] = []
            while j < len(toks):
                tt = toks[j].text
                if tt == "<":
                    depth += 1
                elif tt == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif toks[j].kind == "id" and toks[j].text not in KEYWORDS:
                    type_ids.append(toks[j].text)
                j += 1
            if j + 1 < len(toks) and toks[j + 1].text == "(" and type_ids:
                k, subj = self._paren_expr(toks, j + 1)
                fn.holds.append(HoldsEvent(type_ids[-1], subj, t.line))
                return k

        # std::visit(...)
        if t.kind == "id" and t.text == "visit" and nxt is not None \
                and nxt.text == "(":
            j, expr_toks = self._paren_tokens(toks, i + 1)
            arm_ids = {tt.text for tt in expr_toks if tt.kind == "id"}
            has_auto = any(tt.text == "auto" for tt in expr_toks)
            fn.visits.append(VisitEvent(t.line, arm_ids, has_auto))
            # still scan inside for nested facts: do NOT skip
            return i + 1

        # memory_order_relaxed
        if t.kind == "id" and t.text in ("memory_order_relaxed", "relaxed") \
                and (t.text == "memory_order_relaxed"
                     or (prev is not None and prev.text == "::" and i >= 2
                         and toks[i - 2].text == "memory_order")):
            site = self._atomic_receiver(toks, i)
            if site is not None:
                self.index.atomics.append(site)

        # wall-clock constructs
        if t.kind == "id" and (t.text in WALL_CLOCKS
                               or t.text in self.chrono_aliases) \
                and nxt is not None and nxt.text == "::" \
                and nx2 is not None and nx2.text == "now":
            self.index.chronos.append(
                ChronoUse(self.path, t.line, f"{t.text}::now"))
        if t.kind == "id" and t.text in ("sleep_for", "sleep_until") \
                and nxt is not None and nxt.text == "(":
            self.index.chronos.append(ChronoUse(self.path, t.line, t.text))
        if t.kind == "id" and t.text == "time" and nxt is not None \
                and nxt.text == "(" and nx2 is not None \
                and nx2.text in ("NULL", "nullptr", "0", "&") \
                and (prev is None or prev.text not in (".", "->", "::")):
            self.index.chronos.append(ChronoUse(self.path, t.line, "time()"))

        # call expression
        if t.kind == "id" and t.text not in KEYWORDS and nxt is not None \
                and nxt.text == "(":
            if not self._is_declaration_or_special(toks, i):
                receiver, qualifier = self._call_context(toks, i)
                if qualifier not in ("std", "chrono", "filesystem", "fs"):
                    fn.calls.append(CallEvent(
                        t.text, receiver, qualifier, t.line,
                        held=[e.mutex_expr for e in self.active_locks]))

        # local chrono alias inside a function body: `using clk = ...;`
        if t.kind == "id" and t.text == "using" and nxt is not None \
                and nxt.kind == "id" and nx2 is not None and nx2.text == "=":
            j = i
            seen: list[str] = []
            while j < len(toks) and toks[j].text != ";":
                if toks[j].kind == "id":
                    seen.append(toks[j].text)
                j += 1
            if any(s in WALL_CLOCKS for s in seen):
                self.chrono_aliases.add(nxt.text)

        return i + 1

    def _paren_expr(self, toks: list[Tok], open_i: int) -> tuple[int, str]:
        j, inner = self._paren_tokens(toks, open_i)
        return j, "".join(t.text for t in inner)

    def _paren_tokens(self, toks: list[Tok],
                      open_i: int) -> tuple[int, list[Tok]]:
        depth = 0
        inner: list[Tok] = []
        j = open_i
        while j < len(toks):
            tt = toks[j].text
            if tt == "(":
                depth += 1
                if depth == 1:
                    j += 1
                    continue
            elif tt == ")":
                depth -= 1
                if depth == 0:
                    return j + 1, inner
            if depth >= 1:
                inner.append(toks[j])
            j += 1
        return j, inner

    def _is_declaration_or_special(self, toks: list[Tok], i: int) -> bool:
        prev = toks[i - 1] if i > 0 else None
        if prev is None:
            return False
        if prev.kind == "id" and prev.text not in KEYWORDS:
            return True   # `Type name(args)` declaration
        if prev.kind == "id" and prev.text in ("new", "return", "case",
                                               "throw"):
            return prev.text == "new"
        if prev.text in (">", "*", "&") and i >= 2:
            # `std::vector<T> name(...)` / `Type* name(...)`: declaration
            # only when the token before the punctuation belongs to a type
            # expression; approximate by "previous-previous is id or >".
            pp = toks[i - 2]
            if prev.text == ">" :
                return False  # template call like foo<T>(...) is rare here
            return pp.kind == "id" or pp.text == ">"
        return False

    def _call_context(self, toks: list[Tok],
                      i: int) -> tuple[str | None, str | None]:
        prev = toks[i - 1] if i > 0 else None
        if prev is None:
            return None, None
        if prev.text in (".", "->"):
            j = i - 2
            # walk back over balanced ] or ) to the owning identifier
            while j >= 0 and toks[j].text in ("]", ")"):
                close = toks[j].text
                opener = "[" if close == "]" else "("
                depth = 0
                while j >= 0:
                    if toks[j].text == close:
                        depth += 1
                    elif toks[j].text == opener:
                        depth -= 1
                        if depth == 0:
                            j -= 1
                            break
                    j -= 1
            if j >= 0 and toks[j].kind == "id":
                return toks[j].text, None
            return None, None
        if prev.text == "::" and i >= 2 and toks[i - 2].kind == "id":
            return None, toks[i - 2].text
        return None, None


# --- frontends ---------------------------------------------------------------

def iter_source_files(root: str, compile_commands: str | None,
                      subdirs: tuple[str, ...] = ("src",)) -> list[str]:
    tu_allow: set[str] | None = None
    if compile_commands and os.path.exists(compile_commands):
        try:
            with open(compile_commands, encoding="utf-8") as f:
                entries = json.load(f)
            tu_allow = set()
            for e in entries:
                p = e.get("file", "")
                if not os.path.isabs(p):
                    p = os.path.join(e.get("directory", root), p)
                tu_allow.add(os.path.realpath(p))
        except (json.JSONDecodeError, OSError) as err:
            print(f"hetsgd-analyze: bad compile_commands "
                  f"{compile_commands}: {err}", file=sys.stderr)
            sys.exit(2)
    files: list[str] = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".")
                                 and d not in SKIP_DIRS)
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.realpath(os.path.join(dirpath, name))
                if (tu_allow is not None
                        and not name.endswith(HEADER_EXTENSIONS)
                        and path not in tu_allow):
                    continue
                files.append(path)
    return files


def builtin_scan(root: str, files: list[str]) -> Index:
    index = Index()
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as err:
            print(f"hetsgd-analyze: cannot read {path}: {err}",
                  file=sys.stderr)
            sys.exit(2)
        toks = tokenize(strip_directives(text))
        FileScanner(index, path).scan(toks)
        index.files.append(path)
    return index


# -- libclang frontend --------------------------------------------------------

def find_libclang() -> "object | None":
    """Returns the clang.cindex module with a usable library, or None."""
    try:
        import clang.cindex as cindex  # type: ignore
    except ImportError:
        return None
    candidates = [os.environ.get("HETSGD_LIBCLANG", "")]
    candidates += sorted(globmod.glob("/usr/lib/llvm-*/lib/libclang-*.so*"),
                         reverse=True)
    candidates += sorted(globmod.glob("/usr/lib/llvm-*/lib/libclang.so*"),
                         reverse=True)
    candidates += sorted(
        globmod.glob("/usr/lib/x86_64-linux-gnu/libclang-*.so*"),
        reverse=True)
    for cand in [c for c in candidates if c]:
        try:
            cindex.Config.library_file = None
            cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex
        except Exception:  # noqa: BLE001 - any loader failure means "next"
            # Config caches state; reset so the next candidate can try.
            cindex.Config.loaded = False
            continue
    try:
        cindex.Config.loaded = False
        cindex.Config.library_file = None
        cindex.Index.create()
        return cindex
    except Exception:  # noqa: BLE001
        return None


def clang_scan(root: str, files: list[str],
               compile_commands: str | None, cindex) -> Index:
    """libclang frontend: the syntactic engine is shared with the builtin
    frontend (same token-level extraction, identical findings contract);
    libclang additionally parses every translation unit listed in
    compile_commands.json and replaces the heuristic record layouts with
    FIELD_DECLs from the real AST — so field coverage tracks exactly what
    the compiler sees (macro-expanded, preprocessor-resolved)."""
    index = builtin_scan(root, files)
    try:
        _clang_refine_structs(root, files, compile_commands, cindex, index)
    except Exception as err:  # noqa: BLE001 - degrade, don't die
        print(f"hetsgd-analyze: libclang refinement failed ({err}); "
              f"keeping builtin record layouts", file=sys.stderr)
    return index


def _clang_refine_structs(root, files, compile_commands, cindex, index):
    args_by_file: dict[str, list[str]] = {}
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands, encoding="utf-8") as f:
            for e in json.load(f):
                p = e.get("file", "")
                if not os.path.isabs(p):
                    p = os.path.join(e.get("directory", root), p)
                raw = e.get("arguments") or e.get("command", "").split()
                argv = [a for a in raw[1:]
                        if a not in ("-c", "-o") and not a.endswith(".o")
                        and os.path.realpath(a) != os.path.realpath(p)]
                args_by_file[os.path.realpath(p)] = argv
    fileset = set(files)
    tus = [f for f in files if not f.endswith(HEADER_EXTENSIONS)]
    if not tus:
        tus = files[:]  # fixture trees: parse headers standalone
    idx = cindex.Index.create()
    seen_structs: dict[tuple[str, int], StructDef] = {}
    parsed_files: set[str] = set()
    for tu_path in tus:
        argv = args_by_file.get(tu_path,
                                ["-std=c++17", f"-I{os.path.join(root, 'src')}"])
        try:
            tu = idx.parse(tu_path, args=argv)
        except Exception:  # noqa: BLE001
            continue
        for cur in tu.cursor.walk_preorder():
            if cur.kind not in (cindex.CursorKind.STRUCT_DECL,
                                cindex.CursorKind.CLASS_DECL):
                continue
            if not cur.is_definition() or cur.location.file is None:
                continue
            cpath = os.path.realpath(cur.location.file.name)
            if cpath not in fileset:
                continue
            key = (cpath, cur.location.line)
            if key in seen_structs:
                continue
            sd = StructDef(cur.spelling, cpath, cur.location.line)
            for ch in cur.get_children():
                if ch.kind != cindex.CursorKind.FIELD_DECL:
                    continue
                type_ids = re.findall(r"[A-Za-z_]\w*", ch.type.spelling)
                sd.fields.append(FieldDef(ch.spelling, ch.location.line,
                                          [t for t in type_ids
                                           if t not in KEYWORDS]))
                index.member_types.setdefault(cur.spelling, {})[ch.spelling] \
                    = sd.fields[-1].type_ids
            seen_structs[key] = sd
            parsed_files.add(cpath)
    if seen_structs:
        index.structs = [s for s in index.structs
                         if s.path not in parsed_files] \
            + list(seen_structs.values())


# --- waivers -----------------------------------------------------------------

class WaiverTable:
    def __init__(self):
        self._lines: dict[str, list[str]] = {}

    def _file_lines(self, path: str) -> list[str]:
        if path not in self._lines:
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    self._lines[path] = f.read().splitlines()
            except OSError:
                self._lines[path] = []
        return self._lines[path]

    def waived(self, path: str, line: int, rule: str) -> bool:
        """A waiver applies on the flagged line itself or anywhere in the
        contiguous comment block directly above it (waivers for several
        tools commonly stack there)."""
        lines = self._file_lines(path)
        idx = line - 1
        if 0 <= idx < len(lines):
            m = WAIVER_RE.search(lines[idx])
            if m and m.group(1) == rule and m.group(2):
                return True
        probe = idx - 1
        while probe >= 0 and probe >= idx - 6 \
                and lines[probe].strip().startswith("//"):
            m = WAIVER_RE.search(lines[probe])
            if m and m.group(1) == rule and m.group(2):
                return True
            probe -= 1
        return False

    def dispatch_ignores(self, path: str, line: int) -> set[str] | None:
        """Finds a `// hetsgd-analyze: dispatch ignores(A, B, ...)` within
        the six lines above (or on) the dispatch anchor. The list may wrap
        across consecutive `//` comment lines."""
        lines = self._file_lines(path)
        idx = line - 1
        for probe in range(idx, max(-1, idx - 7), -1):
            if probe >= len(lines):
                continue
            m = DISPATCH_ANNOT_RE.search(lines[probe])
            if not m:
                continue
            buf = lines[probe][m.end():]
            j = probe + 1
            while ")" not in buf and j < len(lines) \
                    and lines[j].lstrip().startswith("//"):
                buf += " " + lines[j].lstrip().lstrip("/")
                j += 1
            buf = buf.split(")", 1)[0]
            return {s.strip() for s in buf.split(",") if s.strip()}
        return None


# --- rule 1: ckpt-field-coverage ---------------------------------------------

def rule_ckpt_field_coverage(root: str, index: Index, waivers: WaiverTable,
                             findings: list[Finding]) -> None:
    by_name: dict[str, StructDef] = {}
    for sd in index.structs:
        by_name.setdefault(sd.name, sd)
    roots = [sd for sd in index.structs if sd.name == CKPT_ROOT_STRUCT]
    if not roots:
        return
    root_sd = roots[0]

    def closure(start: str) -> tuple[set[str], bool]:
        """Member names referenced by `start` plus same-file helpers it
        calls, transitively. Returns (members, found_start)."""
        starts = [f for f in index.funcs if f.name == start]
        if not starts:
            return set(), False
        home = starts[0].path
        by_leaf: dict[str, list[FuncDef]] = {}
        for f in index.funcs:
            if f.path == home:
                by_leaf.setdefault(f.name, []).append(f)
        members: set[str] = set()
        seen: set[int] = set()
        work = list(starts)
        while work:
            f = work.pop()
            if id(f) in seen:
                continue
            seen.add(id(f))
            members |= f.members
            for call in f.calls:
                for g in by_leaf.get(call.name, []):
                    if id(g) not in seen:
                        work.append(g)
        return members, True

    write_members, has_w = closure(CKPT_WRITE_FN)
    read_members, has_r = closure(CKPT_READ_FN)
    if not has_w or not has_r:
        missing = CKPT_WRITE_FN if not has_w else CKPT_READ_FN
        findings.append(Finding(
            "ckpt-field-coverage", root_sd.path, root_sd.line,
            f"struct {CKPT_ROOT_STRUCT} found but its serializer "
            f"{missing}() is not — the coverage contract cannot be checked"))
        return

    # BFS over embedded struct types.
    tracked: list[StructDef] = []
    seen_names: set[str] = set()
    work = [root_sd]
    while work:
        sd = work.pop()
        if sd.name in seen_names:
            continue
        seen_names.add(sd.name)
        tracked.append(sd)
        for fld in sd.fields:
            for tid in fld.type_ids:
                if tid in CKPT_OPAQUE_TYPES or tid in seen_names:
                    continue
                if tid in by_name:
                    work.append(by_name[tid])

    for sd in tracked:
        for fld in sd.fields:
            if fld.is_static:
                continue
            missing = []
            if fld.name not in write_members:
                missing.append(CKPT_WRITE_FN)
            if fld.name not in read_members:
                missing.append(CKPT_READ_FN)
            if not missing:
                continue
            if waivers.waived(sd.path, fld.line, "ckpt-field-coverage"):
                continue
            findings.append(Finding(
                "ckpt-field-coverage", sd.path, fld.line,
                f"{sd.name}::{fld.name} is not referenced in "
                f"{' or '.join(missing)} — a checkpoint cut would silently "
                f"drop it; serialize the field (or waive it with a reason "
                f"if it is deliberately not persisted)"))


# --- rule 2: lock-order ------------------------------------------------------

def _canon_mutex(expr: str, cls: str | None, index: Index) -> str:
    e = expr.replace("this->", "")
    if re.fullmatch(r"[A-Za-z_]\w*", e):
        if cls:
            return f"{cls}::{e}"
        owners = [c for c, members in index.member_types.items()
                  if e in members and any(
                      "AnnotatedMutex" in t or "mutex" == t
                      for t in members[e])]
        if len(owners) == 1:
            return f"{owners[0]}::{e}"
        return e
    leaf_m = re.search(r"(?:\.|->)([A-Za-z_]\w*)$", e)
    if leaf_m:
        leaf = leaf_m.group(1)
        owners = [c for c, members in index.member_types.items()
                  if leaf in members and any(
                      "AnnotatedMutex" in t for t in members[leaf])]
        if len(owners) == 1:
            return f"{owners[0]}::{leaf}"
    return e  # distinct per expression text: may miss aliasing, never invents


def _resolve_call(call: CallEvent, caller: FuncDef,
                  index: Index, by_leaf: dict[str, list[FuncDef]],
                  ) -> list[FuncDef]:
    cands = by_leaf.get(call.name, [])
    if not cands:
        return []
    if call.receiver is not None:
        # Type the receiver through the member-type table.
        rtypes: set[str] = set()
        search_classes = ([caller.cls] if caller.cls else []) \
            + [c for c in index.member_types if c != caller.cls]
        for c in search_classes:
            members = index.member_types.get(c, {})
            if call.receiver in members:
                rtypes = {t for t in members[call.receiver]}
                break
        if rtypes:
            # Receiver's declared type is known: only accept candidates on
            # that type. No match means the callee is an external type's
            # method (std::deque::empty, ...) — resolving it by leaf name
            # would invent edges, so resolve to nothing.
            return [f for f in cands if f.cls in rtypes]
        return cands
    if call.qualifier is not None:
        q = [f for f in cands if f.cls == call.qualifier]
        return q if q else cands
    if caller.cls is not None:
        same = [f for f in cands if f.cls == caller.cls]
        if same:
            return same
    # Plain call: prefer same-file free functions.
    same_file = [f for f in cands if f.path == caller.path and f.cls is None]
    return same_file if same_file else cands


def rule_lock_order(root: str, index: Index, waivers: WaiverTable,
                    findings: list[Finding]) -> None:
    by_leaf: dict[str, list[FuncDef]] = {}
    for f in index.funcs:
        by_leaf.setdefault(f.name, []).append(f)

    canon_cache: dict[tuple[str, str | None], str] = {}

    def canon(expr: str, cls: str | None) -> str:
        key = (expr, cls)
        if key not in canon_cache:
            canon_cache[key] = _canon_mutex(expr, cls, index)
        return canon_cache[key]

    # may_acquire fixpoint over the call graph.
    may: dict[int, set[str]] = {
        id(f): {canon(e.mutex_expr, f.cls) for e in f.locks}
        for f in index.funcs}
    changed = True
    rounds = 0
    while changed and rounds < 50:
        changed = False
        rounds += 1
        for f in index.funcs:
            acc = may[id(f)]
            before = len(acc)
            for call in f.calls:
                for g in _resolve_call(call, f, index, by_leaf):
                    acc |= may[id(g)]
            if len(acc) != before:
                changed = True

    # Edges: held -> acquired, with a witness site.
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}

    def add_edge(a: str, b: str, path: str, line: int, why: str) -> None:
        if a == b:
            return  # re-acquisition is clang -Wthread-safety's job
        edges.setdefault((a, b), (path, line, why))

    for f in index.funcs:
        req = [canon(e, f.cls) for e in f.requires]
        if not req:
            dr = index.decl_requires.get((f.cls, f.name))
            if dr:
                req = [canon(e, f.cls) for e in dr]
        for ev in f.locks:
            held = [canon(h, f.cls) for h in ev.held] + req
            for h in held:
                add_edge(h, canon(ev.mutex_expr, f.cls), f.path, ev.line,
                         f"MutexLock in {f.name}")
        for call in f.calls:
            held = [canon(h, f.cls) for h in call.held] + req
            if not held:
                continue
            for g in _resolve_call(call, f, index, by_leaf):
                for m in may[id(g)]:
                    for h in held:
                        add_edge(h, m, f.path, call.line,
                                 f"{f.name} calls {call.name}() which may "
                                 f"acquire it")

    # Cycle detection: iterative DFS over the edge graph.
    graph: dict[str, list[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])

    color: dict[str, int] = {}
    stack_path: list[str] = []
    cycles: list[list[str]] = []

    def dfs(u: str) -> None:
        color[u] = 1
        stack_path.append(u)
        for v in graph.get(u, []):
            if color.get(v, 0) == 0:
                dfs(v)
            elif color.get(v) == 1:
                ci = stack_path.index(v)
                cycles.append(stack_path[ci:] + [v])
        stack_path.pop()
        color[u] = 2

    sys.setrecursionlimit(10000)
    for node in sorted(graph):
        if color.get(node, 0) == 0:
            dfs(node)

    reported: set[frozenset[str]] = set()
    for cyc in cycles:
        key = frozenset(cyc)
        if key in reported:
            continue
        reported.add(key)
        sites = []
        for a, b in zip(cyc, cyc[1:]):
            path, line, why = edges[(a, b)]
            sites.append((path, line, a, b, why))
        path, line, _a, _b, _w = min(
            sites, key=lambda s: (os.path.relpath(s[0], root), s[1]))
        if any(waivers.waived(p, ln, "lock-order") for p, ln, *_ in sites):
            continue
        desc = " ; ".join(
            f"{a} -> {b} ({os.path.relpath(p, root)}:{ln}: {w})"
            for p, ln, a, b, w in sites)
        findings.append(Finding(
            "lock-order", path, line,
            f"lock-acquisition cycle (potential deadlock): {desc}"))


# --- rule 3: msg-exhaustive --------------------------------------------------

def rule_msg_exhaustive(root: str, index: Index, waivers: WaiverTable,
                        findings: list[Finding]) -> None:
    variants = [v for v in index.variants if v.name == MSG_VARIANT_NAME]
    if not variants:
        return
    alts = set(variants[0].alternatives)
    src_prefix = os.path.join(root, "src") + os.sep

    for f in index.funcs:
        if not f.path.startswith(src_prefix):
            continue
        # holds_alternative chains grouped by subject expression.
        groups: dict[str, list[HoldsEvent]] = {}
        for ev in f.holds:
            if ev.alt in alts:
                groups.setdefault(ev.subject, []).append(ev)
        for subject, events in sorted(groups.items()):
            if len(events) < 2:
                continue  # a single membership test is not a dispatcher
            anchor = min(ev.line for ev in events)
            handled = {ev.alt for ev in events}
            _check_dispatch(root, f, anchor, handled, alts, subject,
                            waivers, findings)
        for v in f.visits:
            handled = v.arm_types & alts
            if not handled:
                continue  # not a Message dispatch we can attribute
            if v.has_auto:
                # A generic arm absorbs everything silently; unaccounted
                # alternatives must still be declared in ignores().
                pass
            _check_dispatch(root, f, v.line, handled, alts,
                            "std::visit", waivers, findings)


def _check_dispatch(root: str, f: FuncDef, anchor: int, handled: set[str],
                    alts: set[str], subject: str, waivers: WaiverTable,
                    findings: list[Finding]) -> None:
    ignores = waivers.dispatch_ignores(f.path, anchor) or set()
    bogus = ignores - alts
    if bogus:
        findings.append(Finding(
            "msg-exhaustive", f.path, anchor,
            f"dispatch ignores() names non-alternatives "
            f"{sorted(bogus)} — stale annotation (message kind renamed "
            f"or removed?)"))
    overlap = ignores & handled
    if overlap:
        findings.append(Finding(
            "msg-exhaustive", f.path, anchor,
            f"dispatch ignores() lists {sorted(overlap)} which the "
            f"dispatch also handles — drop them from the annotation"))
    missing = alts - handled - ignores
    if missing:
        if waivers.waived(f.path, anchor, "msg-exhaustive"):
            return
        findings.append(Finding(
            "msg-exhaustive", f.path, anchor,
            f"dispatch over {subject} in {f.name}() does not account for "
            f"{sorted(missing)} — handle them or declare them in a "
            f"'// hetsgd-analyze: dispatch ignores(...)' annotation above "
            f"the dispatch"))


# --- rule 4: atomic-discipline -----------------------------------------------

def rule_atomic_discipline(root: str, index: Index, waivers: WaiverTable,
                           findings: list[Finding]) -> None:
    for site in index.atomics:
        rel = os.path.relpath(site.path, root)
        if (rel, site.field) in ALLOWED_RELAXED:
            continue
        if waivers.waived(site.path, site.line, "atomic-discipline"):
            continue
        findings.append(Finding(
            "atomic-discipline", site.path, site.line,
            f"memory_order_relaxed {site.op}() on '{site.field}' is not an "
            f"allowlisted benign site — use acquire/release (free on "
            f"x86-64) or add the field to ALLOWED_RELAXED in "
            f"tools/analyze/hetsgd_analyze.py with a justification; "
            f"benign non-atomic races belong in scripts/tsan.supp"))


# (receiver extraction lives on FileScanner so it sees the token stream)
def _scanner_atomic_receiver(self: FileScanner, toks: list[Tok],
                             i: int) -> AtomicSite | None:
    # Walk back to the `(` that opened the current call argument list,
    # then read `<receiver> . <op> (`.
    depth = 0
    j = i
    while j >= 0:
        tt = toks[j].text
        if tt == ")":
            depth += 1
        elif tt == "(":
            if depth == 0:
                break
            depth -= 1
        j -= 1
    if j <= 0:
        return None
    op_tok = toks[j - 1]
    if op_tok.kind != "id" or op_tok.text not in ATOMIC_OPS:
        return None
    if j - 2 < 0 or toks[j - 2].text not in (".", "->"):
        return None
    k = j - 3
    while k >= 0 and toks[k].text in ("]", ")"):
        close = toks[k].text
        opener = "[" if close == "]" else "("
        d = 0
        while k >= 0:
            if toks[k].text == close:
                d += 1
            elif toks[k].text == opener:
                d -= 1
                if d == 0:
                    k -= 1
                    break
            k -= 1
    if k < 0 or toks[k].kind != "id":
        return None
    return AtomicSite(self.path, op_tok.line, toks[k].text, op_tok.text)


FileScanner._atomic_receiver = _scanner_atomic_receiver  # type: ignore


# --- rule 5: wall-clock-core -------------------------------------------------

def rule_wall_clock_core(root: str, index: Index, waivers: WaiverTable,
                         findings: list[Finding]) -> None:
    core_prefix = os.path.join(root, "src", "core") + os.sep
    for use in index.chronos:
        if not use.path.startswith(core_prefix):
            continue
        if waivers.waived(use.path, use.line, "wall-clock-core"):
            continue
        findings.append(Finding(
            "wall-clock-core", use.path, use.line,
            f"wall-clock construct {use.what} in src/core/ — scheduling is "
            f"virtual-time only; if this is a sanctioned real-time shim, "
            f"waive it with '// hetsgd-analyze: allow(wall-clock-core) "
            f"<why>'"))


# --- driver ------------------------------------------------------------------

RULES = (
    rule_ckpt_field_coverage,
    rule_lock_order,
    rule_msg_exhaustive,
    rule_atomic_discipline,
    rule_wall_clock_core,
)


def analyze(root: str, files: list[str], frontend: str,
            compile_commands: str | None,
            cindex) -> tuple[list[Finding], str]:
    if frontend == "clang":
        index = clang_scan(root, files, compile_commands, cindex)
        used = "clang"
    else:
        index = builtin_scan(root, files)
        used = "builtin"
    waivers = WaiverTable()
    findings: list[Finding] = []
    for rule in RULES:
        rule(root, index, waivers, findings)
    findings.sort(key=lambda f: (os.path.relpath(f.path, root), f.line,
                                 f.rule))
    return findings, used


def run_tree(root: str, compile_commands: str | None, frontend: str,
             cindex) -> int:
    files = iter_source_files(root, compile_commands)
    if not files:
        print(f"hetsgd-analyze: no sources under {root}/src", file=sys.stderr)
        return 2
    findings, used = analyze(root, files, frontend, compile_commands, cindex)
    for f in findings:
        print(f.format(root))
    if findings:
        print(f"hetsgd-analyze: {len(findings)} finding(s) "
              f"[frontend={used}]", file=sys.stderr)
        return 1
    print(f"hetsgd-analyze: clean ({len(files)} files, frontend={used})")
    return 0


def self_test(script_root: str, frontend: str, cindex) -> int:
    """Runs the full rule set over every fixture subtree; each must
    produce exactly its planted `// EXPECT: <rule>` findings (clean
    subtrees plant none)."""
    fixtures = os.path.join(script_root, "fixtures")
    if not os.path.isdir(fixtures):
        print(f"hetsgd-analyze: no fixtures at {fixtures}", file=sys.stderr)
        return 2
    failures: list[str] = []
    cases = sorted(d for d in os.listdir(fixtures)
                   if os.path.isdir(os.path.join(fixtures, d)))
    total_expected = 0
    for case in cases:
        case_root = os.path.join(fixtures, case)
        files = []
        for dirpath, dirnames, filenames in os.walk(case_root):
            dirnames[:] = sorted(dirnames)
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.realpath(
                        os.path.join(dirpath, name)))
        findings, _used = analyze(case_root, files, frontend, None, cindex)
        got = {(f.rule, os.path.relpath(f.path, case_root), f.line)
               for f in findings}
        expected = set()
        for path in files:
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    m = EXPECT_RE.search(line)
                    if m:
                        expected.add((m.group(1),
                                      os.path.relpath(path, case_root),
                                      lineno))
        total_expected += len(expected)
        for rule, rel, line in sorted(expected - got):
            failures.append(f"{case}: planted {rule} at {rel}:{line} "
                            f"not detected")
        for rule, rel, line in sorted(got - expected):
            failures.append(f"{case}: spurious {rule} finding at "
                            f"{rel}:{line}")
    if failures:
        for msg in failures:
            print(f"hetsgd-analyze self-test FAIL: {msg}", file=sys.stderr)
        return 1
    print(f"hetsgd-analyze self-test OK ({len(cases)} fixture trees, "
          f"{total_expected} planted violations detected, clean trees clean)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this file)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json path (default: "
                             "<root>/build/compile_commands.json if present)")
    parser.add_argument("--frontend", choices=("auto", "clang", "builtin"),
                        default="auto",
                        help="auto = clang when libclang is importable, "
                             "else builtin")
    parser.add_argument("--require-clang", action="store_true",
                        help="fail (exit 1) instead of SKIP/fallback when "
                             "libclang is unavailable (CI)")
    parser.add_argument("--self-test", action="store_true",
                        help="analyze the seeded fixtures instead of the tree")
    args = parser.parse_args()

    here = os.path.dirname(os.path.realpath(__file__))
    root = os.path.realpath(args.root) if args.root else \
        os.path.realpath(os.path.join(here, "..", ".."))

    cindex = find_libclang()
    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if cindex is not None else "builtin"
    if frontend == "clang" and cindex is None:
        if args.require_clang:
            print("hetsgd-analyze: FAIL — libclang required but not "
                  "available (install python3-clang + libclang)",
                  file=sys.stderr)
            return 1
        print("hetsgd-analyze: SKIP clang frontend (libclang not "
              "available); falling back to the builtin frontend")
        frontend = "builtin"

    if args.self_test:
        return self_test(here, frontend, cindex)

    if not os.path.isdir(os.path.join(root, "src")):
        print(f"hetsgd-analyze: {root} has no src/ directory",
              file=sys.stderr)
        return 2
    cc = args.compile_commands
    if cc is None:
        default_cc = os.path.join(root, "build", "compile_commands.json")
        cc = default_cc if os.path.exists(default_cc) else None
    return run_tree(root, cc, frontend, cindex)


if __name__ == "__main__":
    sys.exit(main())
