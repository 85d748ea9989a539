#!/usr/bin/env python3
"""efac-check: static persistence-contract checker for the eFactory tree.

The paper's correctness argument is an ordering contract: an ack or locate
reply may claim durability only after the object's persist + fence
completed.  PR 4's dynamic sanitizer (docs/ANALYSIS.md) checks the
schedules a workload happens to execute; this tool discharges the same
obligations on ALL control-flow paths by analysing the source against the
annotations in src/common/contracts.hpp.

Rules
-----
  EFAC001  ack-without-evidence: an EFAC_ACK_SITE statement (or a call to
           an EFAC_FN_REQUIRES_DURABLE function) is reachable on a path
           with no persist evidence.  Evidence is EFAC_PERSISTS, a call to
           an EFAC_FN_ESTABLISHES_DURABLE function, a positive test of an
           EFAC_FN_OBSERVES_DURABLE predicate, or (ack sites only)
           EFAC_NO_CLAIM.  REQUIRES call sites are strict: they demand
           actual persist evidence, not a no-claim marker.
  EFAC002  broken-promise: a function declared EFAC_FN_ESTABLISHES_DURABLE
           has a return path that neither persisted nor declared
           EFAC_NO_CLAIM.
  EFAC003  wire-tail-misuse: an EFAC_WIRE_TAIL site is not feature-gated
           (no `if` ancestor and no exhaustion guard in the statement), or
           a fixed-layout field read/write follows an optional tail in the
           same function (tails must be append-only).
  EFAC004  call-leak: a function calls Connection::call_begin but a return
           path keeps the pending call with no call_finish/call_abandon.
           The path check is optimistic across branches (runtime-guarded
           pairs are accepted); a begin with NO finish/abandon anywhere in
           the function is always reported.
  EFAC005  coro-lambda-capture: a lambda with a non-empty capture list is
           itself a coroutine (body contains co_await/co_return/co_yield).
           Captures live in the lambda object, which is destroyed at the
           first suspension point — they dangle when the coroutine
           resumes.
  EFAC006  orphan-finish: `x.finish()` is called on a name that is not
           declared as a metrics::Span in the same function (a span handle
           obtained some other way escapes the RAII balance argument).

Engine
------
No dependencies: comment/string masking, a brace-tree function finder and
a statement-level parser feed the path evaluator.  It reads source text,
not macro expansions; no macro in the tree expands to a lambda, so EFAC005
sees every coroutine lambda.

Waivers: `// efac-waive: EFAC00N <reason>` on the finding's line or the
line directly above.  The reason is mandatory.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import bisect
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "EFAC001": "durability ack/claim without persist evidence on some path",
    "EFAC002": "ESTABLISHES_DURABLE function with an unannotated return path",
    "EFAC003": "optional wire tail ungated or not append-only",
    "EFAC004": "call_begin leaks on some return path",
    "EFAC005": "capturing lambda is a coroutine (captures dangle)",
    "EFAC006": ".finish() on a name not declared as a Span here",
}

MARK_PERSISTS = "EFAC_PERSISTS"
MARK_NO_CLAIM = "EFAC_NO_CLAIM"
MARK_ACK = "EFAC_ACK_SITE"
MARK_TAIL = "EFAC_WIRE_TAIL"
MARK_FN_EST = "EFAC_FN_ESTABLISHES_DURABLE"
MARK_FN_REQ = "EFAC_FN_REQUIRES_DURABLE"
MARK_FN_OBS = "EFAC_FN_OBSERVES_DURABLE"

WAIVE_RE = re.compile(r"//\s*efac-waive:\s*(EFAC\d{3})\s*(.*)$")
CORO_KEYWORD_RE = re.compile(r"\b(?:co_await|co_return|co_yield)\b")

# Fixed-layout wire accessors; anything matching after an optional tail in
# the same encode/decode function breaks append-only framing.
WIRE_FIELD_RE = re.compile(r"\b(?:put|get)_(?:u8|u16|u32|u64|blob|bytes)\s*\(")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


# =====================================================================
# Source masking: blank out comments and literals, preserving offsets.
# =====================================================================

def mask_source(code: str) -> str:
    out = list(code)
    i, n = 0, len(code)

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    at_line_start = True
    while i < n:
        c = code[i]
        nxt = code[i + 1] if i + 1 < n else ""
        if at_line_start and c == "#":
            # preprocessor directive (with continuations): no statement
            # semantics, and unterminated (no ';') so it would otherwise
            # pollute declaration heads
            j = i
            while j < n:
                eol = code.find("\n", j)
                eol = n if eol < 0 else eol
                if code[eol - 1:eol] == "\\":
                    j = eol + 1
                    continue
                break
            blank(i, eol)
            i = eol
            continue
        if c == "\n":
            at_line_start = True
            i += 1
            continue
        if not c.isspace():
            at_line_start = False
        if c == "/" and nxt == "/":
            j = code.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = code.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            blank(i, j + 2)
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^(\s]*)\(', code[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = code.find(close, i + m.end())
                j = n - len(close) if j < 0 else j
                blank(i + m.end(), j)
                i = j + len(close)
            else:
                i += 1
        elif c == '"' or c == "'":
            q, j = c, i + 1
            while j < n:
                if code[j] == "\\":
                    j += 2
                    continue
                if code[j] == q:
                    break
                j += 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


class LineMap:
    def __init__(self, code: str):
        self.starts = [0]
        for m in re.finditer("\n", code):
            self.starts.append(m.end())

    def line(self, offset: int) -> int:
        return bisect.bisect_right(self.starts, offset)


# =====================================================================
# Statement tree (the IR the path evaluator walks).
# =====================================================================

@dataclass
class Stmt:
    kind: str                    # stmt | return | break | continue
    text: str
    offset: int


@dataclass
class IfNode:
    cond: str
    offset: int
    then_body: list = field(default_factory=list)
    else_body: list | None = None
    kind: str = "if"


@dataclass
class LoopNode:
    offset: int
    body: list = field(default_factory=list)
    kind: str = "loop"


@dataclass
class SwitchNode:
    offset: int
    body: list = field(default_factory=list)
    kind: str = "switch"


@dataclass
class TryNode:
    offset: int
    body: list = field(default_factory=list)
    handlers: list = field(default_factory=list)  # list of bodies
    kind: str = "try"


@dataclass
class BlockNode:
    offset: int
    body: list = field(default_factory=list)
    kind: str = "block"


class ParseError(Exception):
    pass


KEYWORD_RE = re.compile(r"[A-Za-z_]\w*")


class StmtParser:
    """Statement-level recursive-descent parser over masked C++.

    Precise enough for path-sensitive marker analysis: it understands
    if/else chains, loops, switch, try/catch, blocks, and (co_)return /
    break / continue terminators.  Expressions are opaque text; braces
    inside expressions (lambdas, brace-init) are skipped by matching.
    """

    def __init__(self, code: str):
        self.code = code
        self.n = len(code)

    def parse_body(self, start: int, end: int) -> list:
        body, i = [], start
        while True:
            node, i = self._parse_stmt(i, end)
            if node is None:
                break
            body.append(node)
        return body

    # -- helpers -------------------------------------------------------
    def _skip_ws(self, i: int, end: int) -> int:
        while i < end and self.code[i].isspace():
            i += 1
        return i

    def _match_paren(self, i: int, end: int) -> int:
        """i points at '('; return index past the matching ')'."""
        depth = 0
        while i < end:
            c = self.code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        raise ParseError("unbalanced parens")

    def _match_brace(self, i: int, end: int) -> int:
        depth = 0
        while i < end:
            c = self.code[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        raise ParseError("unbalanced braces")

    def _keyword_at(self, i: int, end: int) -> str:
        m = KEYWORD_RE.match(self.code, i, end)
        return m.group(0) if m else ""

    # -- statements ----------------------------------------------------
    def _parse_stmt(self, i: int, end: int):
        i = self._skip_ws(i, end)
        # Swallow labels (case X: / default: / plain labels).
        while True:
            kw = self._keyword_at(i, end)
            if kw == "case":
                colon = self.code.find(":", i, end)
                if colon < 0:
                    return None, end
                i = self._skip_ws(colon + 1, end)
            elif kw == "default" and \
                    self.code[i + len(kw):i + len(kw) + 1] == ":":
                i = self._skip_ws(i + len(kw) + 1, end)
            else:
                break
        if i >= end:
            return None, end
        c = self.code[i]
        if c == "}":
            return None, i
        if c == ";":
            return Stmt("stmt", "", i), i + 1
        if c == "{":
            close = self._match_brace(i, end)
            node = BlockNode(i, self.parse_body(i + 1, close - 1))
            return node, close

        kw = self._keyword_at(i, end)
        if kw == "if":
            return self._parse_if(i, end)
        if kw in ("for", "while"):
            j = self.code.find("(", i, end)
            j = self._match_paren(j, end)
            body_node, j = self._parse_stmt(j, end)
            loop = LoopNode(i)
            loop.body = self._as_body(body_node)
            return loop, j
        if kw == "do":
            body_node, j = self._parse_stmt(i + 2, end)
            j = self._skip_ws(j, end)
            if self._keyword_at(j, end) == "while":
                j = self.code.find("(", j, end)
                j = self._match_paren(j, end)
                j = self._skip_ws(j, end)
                if j < end and self.code[j] == ";":
                    j += 1
            loop = LoopNode(i)
            loop.body = self._as_body(body_node)
            return loop, j
        if kw == "switch":
            j = self.code.find("(", i, end)
            j = self._match_paren(j, end)
            j = self._skip_ws(j, end)
            node = SwitchNode(i)
            if j < end and self.code[j] == "{":
                close = self._match_brace(j, end)
                node.body = self.parse_body(j + 1, close - 1)
                j = close
            return node, j
        if kw == "try":
            j = self._skip_ws(i + 3, end)
            close = self._match_brace(j, end)
            node = TryNode(i, self.parse_body(j + 1, close - 1))
            j = self._skip_ws(close, end)
            while self._keyword_at(j, end) == "catch":
                j = self.code.find("(", j, end)
                j = self._match_paren(j, end)
                j = self._skip_ws(j, end)
                hclose = self._match_brace(j, end)
                node.handlers.append(self.parse_body(j + 1, hclose - 1))
                j = self._skip_ws(hclose, end)
            return node, j
        if kw in ("return", "co_return", "throw"):
            j = self._stmt_end(i, end)
            return Stmt("return", self.code[i:j], i), j
        if kw in ("break", "continue"):
            j = self._stmt_end(i, end)
            return Stmt(kw, self.code[i:j], i), j
        if kw in ("else",):
            # dangling else at top of a body: treat its statement inline
            node, j = self._parse_stmt(i + 4, end)
            return node, j

        j = self._stmt_end(i, end)
        return Stmt("stmt", self.code[i:j], i), j

    def _parse_if(self, i: int, end: int):
        j = self.code.find("(", i, end)
        # skip `if constexpr`
        close = self._match_paren(j, end)
        cond = self.code[j + 1:close - 1]
        node = IfNode(cond, i)
        then_node, j = self._parse_stmt(close, end)
        node.then_body = self._as_body(then_node)
        j2 = self._skip_ws(j, end)
        if self._keyword_at(j2, end) == "else":
            else_node, j = self._parse_stmt(j2 + 4, end)
            node.else_body = self._as_body(else_node)
        return node, j

    @staticmethod
    def _as_body(node):
        if node is None:
            return []
        if isinstance(node, BlockNode):
            return node.body
        return [node]

    def _stmt_end(self, i: int, end: int) -> int:
        """Consume one plain statement: to ';' at depth 0, skipping
        expression braces (lambdas, brace-init) and parens."""
        j = i
        while j < end:
            c = self.code[j]
            if c == ";":
                return j + 1
            if c == "(":
                j = self._match_paren(j, end)
                continue
            if c == "{":
                j = self._match_brace(j, end)
                continue
            if c == "}":
                return j  # malformed; stop at block close
            j += 1
        return end


# =====================================================================
# Function discovery.
# =====================================================================

CONTAINER_RE = re.compile(
    r"^\s*(?:template\s*<.*>\s*)?(?:typedef\s+)?"
    r"(?:class|struct|union|enum|namespace)\b", re.S)
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else",
                    "return", "co_return", "co_await", "co_yield", "new",
                    "sizeof", "alignof", "decltype", "throw", "case"}
FN_SPEC_RE = re.compile(
    r"^(?:\s*(?:const|noexcept|override|final|mutable|&&?|"
    r"->\s*[\w:<>,\s&*\[\]()]+?|:\s*.*))*\s*$", re.S)


@dataclass
class FunctionInfo:
    name: str
    path: str
    head: str
    body_start: int
    body_end: int            # offset of closing brace
    body_text: str = ""
    tree: list = field(default_factory=list)
    establishes: bool = False
    requires: bool = False
    observes: bool = False


def _param_list_name(head: str):
    """Return the function name if `head` reads like a definition head
    (qualified-id + parameter list + optional specifiers/init-list)."""
    i, n = 0, len(head)
    while i < n:
        lp = head.find("(", i)
        if lp < 0:
            return None
        before = head[:lp].rstrip()
        m = re.search(r"((?:[A-Za-z_]\w*\s*::\s*)*(?:operator\s*"
                      r"(?:\(\)|\[\]|[^\s\w(]+)|~?[A-Za-z_]\w*))$", before)
        if not m:
            i = lp + 1
            continue
        name = re.sub(r"\s+", "", m.group(1))
        if name.split("::")[-1].lstrip("~") in CONTROL_KEYWORDS:
            i = lp + 1
            continue
        if name.endswith("operator()"):
            # params are the NEXT paren group
            lp2 = head.find("(", lp + 2)
            if lp2 < 0:
                return None
            lp = lp2
        # find matching close
        depth, j = 0, lp
        while j < n:
            if head[j] == "(":
                depth += 1
            elif head[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= n:
            return None
        tail = head[j + 1:]
        if FN_SPEC_RE.match(tail):
            return name.split("::")[-1]
        i = lp + 1
    return None


def find_functions(masked: str, path: str) -> list[FunctionInfo]:
    funcs: list[FunctionInfo] = []

    def scan(start: int, end: int) -> None:
        bound = start
        i = start
        while i < end:
            c = masked[i]
            if c in ";":
                bound = i + 1
                i += 1
                continue
            if c == "(":
                # skip parens so `;`/braces inside for(..) or arg lists
                # don't confuse boundaries
                i = _match(masked, i, end, "(", ")")
                continue
            if c == "}":
                bound = i + 1
                i += 1
                continue
            if c != "{":
                i += 1
                continue
            head = masked[bound:i]
            close = _match(masked, i, end, "{", "}")
            if CONTAINER_RE.match(head) and "=" not in head.split("{")[0]:
                scan(i + 1, close - 1)
                bound = close
                i = close
                continue
            stripped = head.rstrip()
            prev = stripped[-1] if stripped else ""
            name = _param_list_name(head)
            if name is not None and prev not in "=,([+-*/%<>!&|^":
                funcs.append(FunctionInfo(
                    name=name, path=path, head=head,
                    body_start=i + 1, body_end=close - 1))
                bound = close
                i = close
                continue
            # expression brace / array init / whatever: skip wholesale
            bound = close
            i = close
        return

    scan(0, len(masked))
    return funcs


def _match(code: str, i: int, end: int, op: str, cl: str) -> int:
    depth = 0
    while i < end:
        if code[i] == op:
            depth += 1
        elif code[i] == cl:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return end


# =====================================================================
# Path evaluator.
# =====================================================================

@dataclass(frozen=True)
class State:
    ok_ack: bool = False       # P or N or E holds on every path here
    ok_persist: bool = False   # P holds on every path here
    pending: bool = False      # a call_begin is unmatched here

    def merge(self, other: "State") -> "State":
        return State(self.ok_ack and other.ok_ack,
                     self.ok_persist and other.ok_persist,
                     self.pending and other.pending)


@dataclass
class FnSets:
    establishes: frozenset
    requires: frozenset
    observes: frozenset


def _calls(text: str, names: frozenset) -> bool:
    return any(re.search(r"\b" + re.escape(n) + r"\s*\(", text)
               for n in names)


def _cond_evidence(cond: str, sets: FnSets):
    """Return 'then', 'else', or None: which branch a positive durability
    test in `cond` gives persist evidence to."""
    has = _calls(cond, sets.establishes) or _calls(cond, sets.observes)
    if not has:
        return None
    return "else" if cond.strip().startswith("!") else "then"


class Evaluator:
    def __init__(self, fn: FunctionInfo, sets: FnSets, linemap: LineMap,
                 report):
        self.fn = fn
        self.sets = sets
        self.linemap = linemap
        self.report = report

    def run(self) -> None:
        out = self._eval_body(self.fn.tree, State())
        if out is not None and self.fn.establishes:
            # falling off the end of an ESTABLISHES function
            if not out.ok_ack:
                self.report(self.fn.body_end, "EFAC002",
                            f"function '{self.fn.name}' is declared "
                            "EFAC_FN_ESTABLISHES_DURABLE but control can "
                            "fall off the end without persist evidence or "
                            "EFAC_NO_CLAIM")
        if out is not None and out.pending:
            self.report(self.fn.body_end, "EFAC004",
                        f"function '{self.fn.name}' can fall off the end "
                        "with a pending call_begin (no call_finish/"
                        "call_abandon on this path)")

    # Returns the fall-through state, or None if all paths terminated.
    def _eval_body(self, body: list, state: State):
        for node in body:
            state = self._eval_node(node, state)
            if state is None:
                return None
        return state

    def _eval_node(self, node, state: State):
        kind = node.kind
        if kind in ("stmt", "return", "break", "continue"):
            return self._eval_stmt(node, state)
        if kind == "block":
            return self._eval_body(node.body, state)
        if kind == "if":
            then_in, else_in = state, state
            ev = _cond_evidence(node.cond, self.sets)
            if ev == "then":
                then_in = State(True, True, state.pending)
            elif ev == "else":
                else_in = State(True, True, state.pending)
            # evidence facts already true stay true
            then_in = State(then_in.ok_ack or state.ok_ack,
                            then_in.ok_persist or state.ok_persist,
                            state.pending)
            else_in = State(else_in.ok_ack or state.ok_ack,
                            else_in.ok_persist or state.ok_persist,
                            state.pending)
            t_out = self._eval_body(node.then_body, then_in)
            e_out = (self._eval_body(node.else_body, else_in)
                     if node.else_body is not None else else_in)
            if t_out is None and e_out is None:
                return None
            if t_out is None:
                return e_out
            if e_out is None:
                return t_out
            return t_out.merge(e_out)
        if kind == "loop":
            body_out = self._eval_body(node.body, state)
            # conservative: facts proved inside a loop body don't escape
            # (zero iterations); an unconditional finish/abandon in the
            # body is honoured optimistically for the pending bit.
            pending = state.pending
            if body_out is not None and not body_out.pending:
                pending = False
            return State(state.ok_ack, state.ok_persist, pending)
        if kind == "switch":
            self._eval_body(node.body, state)
            return state
        if kind == "try":
            t_out = self._eval_body(node.body, state)
            outs = [o for o in
                    [t_out] + [self._eval_body(h, state)
                               for h in node.handlers]
                    if o is not None]
            if not outs:
                return None
            merged = outs[0]
            for o in outs[1:]:
                merged = merged.merge(o)
            return merged
        return state

    def _eval_stmt(self, node: Stmt, state: State):
        text = node.text
        ok_ack, ok_persist, pending = \
            state.ok_ack, state.ok_persist, state.pending

        if MARK_PERSISTS + "(" in text:
            ok_ack = ok_persist = True
        if MARK_NO_CLAIM + "(" in text:
            ok_ack = True
        if _calls(text, self.sets.establishes):
            ok_ack = True
        if "call_begin" in text and re.search(r"\bcall_begin\s*\(", text):
            pending = True
        if re.search(r"\bcall_(?:finish|abandon)\s*\(", text):
            pending = False

        if MARK_ACK + "(" in text and not ok_ack:
            self.report(node.offset, "EFAC001",
                        f"EFAC_ACK_SITE in '{self.fn.name}' is reachable "
                        "without persist evidence or EFAC_NO_CLAIM on "
                        "every path from function entry")
        if self.sets.requires and _calls(text, self.sets.requires) \
                and not self.fn.requires and not ok_persist:
            callee = next(n for n in self.sets.requires
                          if re.search(r"\b" + re.escape(n) + r"\s*\(",
                                       text))
            self.report(node.offset, "EFAC001",
                        f"call to EFAC_FN_REQUIRES_DURABLE function "
                        f"'{callee}' in '{self.fn.name}' is not dominated "
                        "by persist evidence (EFAC_PERSISTS / establishes "
                        "call / positive durability test)")

        new_state = State(ok_ack, ok_persist, pending)
        if node.kind == "return":
            if self.fn.establishes and not ok_ack:
                self.report(node.offset, "EFAC002",
                            f"return path in '{self.fn.name}' (declared "
                            "EFAC_FN_ESTABLISHES_DURABLE) has neither "
                            "persist evidence nor EFAC_NO_CLAIM")
            if pending:
                self.report(node.offset, "EFAC004",
                            f"return in '{self.fn.name}' with a pending "
                            "call_begin (no call_finish/call_abandon on "
                            "this path)")
            return None
        if node.kind in ("break", "continue"):
            return None
        if "EFAC_UNREACHABLE" in text:
            return None
        return new_state


# =====================================================================
# Per-function structural rules (EFAC003, EFAC004 tier A, EFAC006).
# =====================================================================

def check_wire_tails(fn: FunctionInfo, report) -> None:
    tails: list[tuple[int, bool]] = []   # (offset, gated)
    fields: list[int] = []
    tail_extents: list[tuple[int, int]] = []

    def walk(body, if_depth, extent):
        for node in body:
            if node.kind in ("stmt", "return"):
                text = node.text
                if MARK_TAIL + "(" in text:
                    gated = if_depth > 0 or "exhausted()" in text
                    tails.append((node.offset, gated))
                    if extent is not None:
                        tail_extents.append(extent)
                    else:
                        tail_extents.append(
                            (node.offset, node.offset + len(text)))
                elif WIRE_FIELD_RE.search(text):
                    fields.append(node.offset)
            elif node.kind == "if":
                ext = (node.offset, _node_end(node))
                walk(node.then_body, if_depth + 1, ext)
                if node.else_body:
                    walk(node.else_body, if_depth + 1, ext)
            elif node.kind in ("loop", "switch", "block"):
                walk(node.body, if_depth, extent)
            elif node.kind == "try":
                walk(node.body, if_depth, extent)
                for h in node.handlers:
                    walk(h, if_depth, extent)

    walk(fn.tree, 0, None)
    if not tails:
        return
    ungated = [off for off, gated in tails if not gated]
    for off in ungated:
        report(off, "EFAC003",
               f"EFAC_WIRE_TAIL in '{fn.name}' is not feature-gated: "
               "wrap it in the tail's presence conditional (or guard "
               "the read with exhausted())")
    if ungated:
        # the tail extents are meaningless until the gating is fixed;
        # don't pile an append-only finding onto the same mistake
        return
    first_tail = min(off for off, _ in tails)
    for foff in fields:
        if foff <= first_tail:
            continue
        if any(a <= foff <= b for a, b in tail_extents):
            continue
        report(foff, "EFAC003",
               f"fixed-layout wire field in '{fn.name}' is written/read "
               "after an optional tail — tails must be append-only")


def _node_end(node) -> int:
    last = node.offset
    bodies = []
    if hasattr(node, "body"):
        bodies.append(node.body)
    if hasattr(node, "then_body"):
        bodies.append(node.then_body)
    if getattr(node, "else_body", None):
        bodies.append(node.else_body)
    if hasattr(node, "handlers"):
        bodies.extend(node.handlers)
    for b in bodies:
        for child in b:
            if child.kind in ("stmt", "return", "break", "continue"):
                last = max(last, child.offset + len(child.text))
            else:
                last = max(last, _node_end(child))
    return last


def check_call_pairs_tier_a(fn: FunctionInfo, report) -> None:
    body = fn.body_text
    m = re.search(r"\bcall_begin\s*\(", body)
    if not m:
        return
    if not re.search(r"\bcall_(?:finish|abandon)\s*\(", body):
        report(fn.body_start + m.start(), "EFAC004",
               f"'{fn.name}' calls call_begin but never call_finish or "
               "call_abandon — the pending call always leaks")


SPAN_FINISH_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*finish\s*\(\s*\)")


def check_span_finish(fn: FunctionInfo, report) -> None:
    for m in SPAN_FINISH_RE.finditer(fn.body_text):
        name = m.group(1)
        decl = re.search(
            r"\bSpan\s+" + re.escape(name) + r"\b|"
            r"\bauto\s+" + re.escape(name) + r"\s*=\s*[^;]*\bSpan\b",
            fn.body_text[:m.start()])
        if not decl:
            report(fn.body_start + m.start(), "EFAC006",
                   f"'{name}.finish()' in '{fn.name}' but '{name}' is not "
                   "declared as a metrics::Span in this function")


# =====================================================================
# EFAC005: coroutine-lambda captures (file-level).
# =====================================================================

LAMBDA_INTRO_RE = re.compile(r"\[")
# `auto [a, b]`, `auto& [a, b]`, `auto&& [a, b]`: a structured binding
# declaration, not a lambda introducer.
BINDING_INTRO_RE = re.compile(r"(?<!\w)auto\s*&{0,2}\s*$")


def _is_binding(code: str, i: int) -> bool:
    return BINDING_INTRO_RE.search(code[max(0, i - 32):i]) is not None


def _lambda_capture_end(code: str, i: int) -> int:
    depth = 0
    while i < len(code):
        if code[i] == "[":
            depth += 1
        elif code[i] == "]":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def find_coro_lambda_captures(masked: str, path: str, linemap: LineMap):
    """Yield (offset, capture_text) for every capturing coroutine lambda."""
    results = []
    n = len(masked)
    for m in LAMBDA_INTRO_RE.finditer(masked):
        i = m.start()
        prev = masked[:i].rstrip()[-1:] or ""
        # subscript / attribute / pack-expansion contexts are not lambdas
        if prev and (prev.isalnum() or prev in "_])"):
            continue
        if masked[i:i + 2] == "[[" or masked[i - 1:i] == "[":  # attribute
            continue
        if _is_binding(masked, i):
            continue
        close = _lambda_capture_end(masked, i)
        if close < 0:
            continue
        captures = masked[i + 1:close].strip()
        j = close + 1
        while j < n and masked[j].isspace():
            j += 1
        # optional template-parameter list (C++20) — not used here; then
        # optional (params), specifiers, optional -> ret, then {
        if j < n and masked[j] == "(":
            try:
                j = StmtParser(masked)._match_paren(j, n)
            except ParseError:
                continue
        k = masked.find("{", j)
        if k < 0:
            continue
        between = masked[j:k]
        # only specifier-ish text may sit between params and body
        # (mutable/noexcept/-> Type...); a single character class keeps
        # this linear-time
        if not re.fullmatch(r"[-\w\s:<>,&*()\[\]]*", between):
            continue
        if ";" in between or "=" in between:
            continue
        try:
            body_close = StmtParser(masked)._match_brace(k, n)
        except ParseError:
            continue
        body = masked[k + 1:body_close - 1]
        # mask nested lambda bodies before the coroutine-keyword test
        body = _blank_nested_lambdas(body)
        if not CORO_KEYWORD_RE.search(body):
            continue
        if captures:
            results.append((i, captures))
    return results


def _blank_nested_lambdas(body: str) -> str:
    out = list(body)
    for m in LAMBDA_INTRO_RE.finditer(body):
        i = m.start()
        prev = body[:i].rstrip()[-1:] or ""
        if prev and (prev.isalnum() or prev in "_])"):
            continue
        if _is_binding(body, i):
            continue
        close = _lambda_capture_end(body, i)
        if close < 0:
            continue
        k = body.find("{", close)
        if k < 0:
            continue
        try:
            bclose = StmtParser(body)._match_brace(k, len(body))
        except ParseError:
            continue
        for x in range(k + 1, bclose - 1):
            if out[x] != "\n":
                out[x] = " "
    return "".join(out)


# =====================================================================
# Waivers.
# =====================================================================

class Waivers:
    def __init__(self, raw: str, path: str):
        self.by_line: dict[int, set[str]] = {}
        self.errors: list[Finding] = []
        for ln, line in enumerate(raw.splitlines(), 1):
            m = WAIVE_RE.search(line)
            if m:
                rule = m.group(1)
                # fixture EXPECT markers are not a reason
                reason = re.sub(r"EXPECT:.*$", "", m.group(2)).strip()
                if not reason:
                    self.errors.append(Finding(
                        path, ln, rule,
                        "efac-waive requires a reason after the rule id"))
                    continue
                self.by_line.setdefault(ln, set()).add(rule)

    def waived(self, line: int, rule: str) -> bool:
        return any(rule in self.by_line.get(ln, set())
                   for ln in (line, line - 1))


# =====================================================================
# File analysis driver.
# =====================================================================

@dataclass
class FileAnalysis:
    path: str
    raw: str
    masked: str
    linemap: LineMap
    waivers: Waivers
    functions: list[FunctionInfo]


def load_file(path: str) -> FileAnalysis:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    masked = mask_source(raw)
    linemap = LineMap(raw)
    waivers = Waivers(raw, path)
    functions = find_functions(masked, path)
    parser = StmtParser(masked)
    for fn in functions:
        fn.body_text = masked[fn.body_start:fn.body_end]
        try:
            fn.tree = parser.parse_body(fn.body_start, fn.body_end)
        except ParseError:
            fn.tree = []
        fn.establishes = MARK_FN_EST + "()" in fn.body_text
        fn.requires = MARK_FN_REQ + "()" in fn.body_text
        fn.observes = MARK_FN_OBS + "()" in fn.body_text
    return FileAnalysis(path, raw, masked, linemap, waivers, functions)


def analyze_files(analyses: list[FileAnalysis]) -> list[Finding]:
    establishes, requires, observes = set(), set(), set()
    for fa in analyses:
        for fn in fa.functions:
            if fn.establishes:
                establishes.add(fn.name)
            if fn.requires:
                requires.add(fn.name)
            if fn.observes:
                observes.add(fn.name)
    sets = FnSets(frozenset(establishes), frozenset(requires),
                  frozenset(observes))

    findings: list[Finding] = []
    for fa in analyses:
        findings.extend(fa.waivers.errors)

        def reporter(fa=fa):
            def report(offset: int, rule: str, message: str) -> None:
                line = fa.linemap.line(offset)
                if fa.waivers.waived(line, rule):
                    return
                findings.append(Finding(fa.path, line, rule, message))
            return report

        report = reporter()
        for fn in fa.functions:
            before = sum(1 for f in findings if f.rule == "EFAC004")
            Evaluator(fn, sets, fa.linemap, report).run()
            check_wire_tails(fn, report)
            # tier-A (no finish/abandon anywhere) only when the path
            # analysis stayed silent, so a leak isn't reported twice
            if sum(1 for f in findings if f.rule == "EFAC004") == before:
                check_call_pairs_tier_a(fn, report)
            check_span_finish(fn, report)
        for off, caps in find_coro_lambda_captures(
                fa.masked, fa.path, fa.linemap):
            line = fa.linemap.line(off)
            if fa.waivers.waived(line, "EFAC005"):
                continue
            findings.append(Finding(
                fa.path, line, "EFAC005",
                f"coroutine lambda captures [{caps}]: the lambda object "
                "dies at the first suspension point, so captures dangle "
                "on resume — pass state as parameters instead"))
    return findings


# =====================================================================
# Fixture (expectation) mode.
# =====================================================================

EXPECT_RE = re.compile(r"\bEXPECT:\s*(EFAC\d{3})")


def run_fixture_mode(fixture_dir: str) -> int:
    paths = sorted(_iter_sources([fixture_dir]))
    if not paths:
        print(f"efac-check: no fixtures under {fixture_dir}",
              file=sys.stderr)
        return 2
    findings = run_checks(paths)
    got = {(f.path, f.line, f.rule) for f in findings}

    expected = set()
    for p in paths:
        with open(p, encoding="utf-8") as f:
            for ln, line in enumerate(f, 1):
                for m in EXPECT_RE.finditer(line):
                    expected.add((p, ln, m.group(1)))

    ok = True
    for exp in sorted(expected):
        if exp in got:
            print(f"PASS expected  {exp[0]}:{exp[1]}: {exp[2]}")
        else:
            print(f"FAIL missing   {exp[0]}:{exp[1]}: {exp[2]} "
                  "(checker did not flag this)")
            ok = False
    for f in sorted(got - expected):
        print(f"FAIL spurious  {f[0]}:{f[1]}: {f[2]}")
        ok = False
    total = len(expected)
    print(f"fixtures: {total} expectation(s), "
          f"{len(got & expected)} matched, "
          f"{len(expected - got)} missing, {len(got - expected)} spurious")
    return 0 if ok else 1


# =====================================================================
# Driver.
# =====================================================================

SOURCE_EXT = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")


def _iter_sources(paths: list[str]):
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(SOURCE_EXT):
                yield p
        else:
            for root, dirs, files in os.walk(p):
                dirs[:] = [d for d in dirs
                           if d not in ("build", ".git", "third_party")]
                for fname in sorted(files):
                    if fname.endswith(SOURCE_EXT):
                        yield os.path.join(root, fname)


def run_checks(paths: list[str]) -> list[Finding]:
    analyses = [load_file(p) for p in sorted(set(_iter_sources(paths)))]
    return analyze_files(analyses)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="efac_check.py",
        description="static persistence-contract checker (see docs/"
                    "STATIC_ANALYSIS.md)")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files/directories to check "
                         "(default: src tests bench)")
    ap.add_argument("--fixtures", metavar="DIR",
                    help="expectation mode: check EXPECT comments in DIR "
                         "instead of reporting findings")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0

    if args.fixtures:
        return run_fixture_mode(args.fixtures)

    paths = args.paths or ["src", "tests", "bench"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"efac-check: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    findings = run_checks(paths)
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(f.render())
    n = len(findings)
    checked = len(list(_iter_sources(paths)))
    print(f"efac-check: {checked} file(s) checked, {n} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
