"""Input language: parsing, lowering to statement DFAs, dependence.

Programs are compositions of assignments and assumes; while/if lower to
assume-guarded edges, parallel composition lowers to a shuffle product of the
branch DFAs.  Every statement in the final automaton is a Stmt carrying its
thread/region, read and write sets, and a list of primitive operations (one
for plain statements, several for fused atomic blocks).

``tokenize`` matches one regular expression at each position; one walker,
``_map_vars``, renames a copied block's variables and checks declarations;
``fuse_chains`` fuses in one pass over the edges.

Each node is lowered after a set of entry states and returns the states
that end it, so no fragment has an epsilon edge; every statement is a letter
of its own, so a fragment is deterministic, as a position automaton is
(Berry & Sethi 1986): its transitions map (state, statement) to one target.
``_complete`` adds the sink and hands the DFA to ``minimize``, the one
normalizer, which merges dead states and numbers states breadth-first.  A
parallel composition is built in one pass, as the product of its branch
DFAs: only the tuples of branch states whose every component is live get a
state, and the initial tuple's letters leave every entry.  Every
statement, fused or not, takes its id from one counter, so emitted alphabets
are in id order without ties, and renumbering ids permutes no column.
"""

from __future__ import annotations

import collections
import itertools
import re
from dataclasses import dataclass

from . import exprs
from .automata import Dfa, minimize


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line = line
        self.col = col


# --------------------------------------------------------------------- AST

# line and col of a statement are those of its first token

@dataclass
class Assign:
    var: str
    expr: tuple
    line: int = 0
    col: int = 0


@dataclass
class Assume:
    cond: tuple
    line: int = 0
    col: int = 0


@dataclass
class Seq:
    items: list


@dataclass
class Par:
    branches: list


@dataclass
class While:
    cond: tuple
    body: Seq
    line: int = 0
    col: int = 0


@dataclass
class If:
    cond: tuple
    then: Seq
    els: Seq | None
    line: int = 0
    col: int = 0


@dataclass
class Ast:
    variables: list
    body: Seq


# ------------------------------------------------------------------ lexing

_KEYWORDS = {"var", "assume", "while", "if", "else", "block", "copy", "as", "sharing"}
# one alternative per token kind; any character no other alternative takes
# is "bad"
_TOKEN = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<skip>[^\S\n]+|(?://|#)[^\n]*)",
    r"(?P<sym>:=|\|\||!=|<=|>=|[≠≤≥¬;,(){}+\-*=<>!])",
    r"(?P<num>\d+)",
    r"(?P<word>[^\W\d]\w*)",
    r"(?P<bad>.)",
]))


def tokenize(text: str):
    """(value, line, col) tokens ending with eof; the column of a token is
    its offset from the last newline, plus one."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "sym":
            tokens.append((value, line, col))
        elif kind == "num":
            tokens.append((("num", int(value)), line, col))
        elif kind == "word" and (value[0].isalpha() or value[0] == "_"):
            # \w also takes numeric characters such as '½' that start no name
            tokens.append((value if value in _KEYWORDS else ("ident", value),
                           line, col))
        elif kind != "skip":
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
    tokens.append(("eof", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.variables: list[str] = []
        self.blocks: dict[str, Seq] = {}

    def peek(self):
        return self.tokens[self.pos][0]

    def loc(self):
        _, line, col = self.tokens[self.pos]
        return line, col

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def expect(self, sym):
        tok = self.next()
        if tok != sym:
            raise ParseError(f"expected {sym!r}, got {tok!r}", *self.tokens[self.pos - 1][1:])

    def ident(self) -> str:
        tok = self.next()
        if not (isinstance(tok, tuple) and tok[0] == "ident"):
            raise ParseError(f"expected identifier, got {tok!r}", *self.tokens[self.pos - 1][1:])
        return tok[1]

    def number(self) -> int:
        tok = self.next()
        if not (isinstance(tok, tuple) and tok[0] == "num"):
            raise ParseError(f"expected number, got {tok!r}", *self.tokens[self.pos - 1][1:])
        return tok[1]

    # ---- expressions

    def int_expr(self):
        e = self.int_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            e = ("add" if op == "+" else "sub", e, self.int_term())
        return e

    def int_term(self):
        e = self.int_factor()
        while self.peek() == "*":
            self.next()
            e = ("mul", e, self.int_factor())
        return e

    def int_factor(self):
        tok = self.peek()
        if tok == "-":
            self.next()
            return ("neg", self.int_factor())
        if tok == "(":
            self.next()
            e = self.int_expr()
            self.expect(")")
            return e
        if isinstance(tok, tuple) and tok[0] == "num":
            self.next()
            return ("num", tok[1])
        if isinstance(tok, tuple) and tok[0] == "ident":
            self.next()
            return ("var", tok[1])
        raise ParseError(f"expected expression, got {tok!r}", *self.loc())

    _CMP = {"=": "=", "!=": "!=", "≠": "!=", "<": "<", "<=": "<=", "≤": "<=",
            ">": ">", ">=": ">=", "≥": ">="}

    def bool_expr(self):
        tok = self.peek()
        if tok in ("!", "¬"):
            self.next()
            self.expect("(")
            inner = self.bool_expr()
            self.expect(")")
            return ("not", inner)
        lhs = self.int_expr()
        op = self.next()
        if op not in self._CMP:
            raise ParseError(f"expected comparison, got {op!r}", *self.tokens[self.pos - 1][1:])
        rhs = self.int_expr()
        return ("cmp", self._CMP[op], lhs, rhs)

    # ---- statements

    def brace_block(self) -> Seq:
        self.expect("{")
        items = []
        while self.peek() != "}":
            items.append(self.statement())
        self.expect("}")
        return Seq(items)

    def statement(self):
        tok = self.peek()
        line, col = self.loc()
        if tok == "assume":
            self.next()
            self.expect("(")
            cond = self.bool_expr()
            self.expect(")")
            self.expect(";")
            return Assume(cond, line, col)
        if tok == "while":
            self.next()
            self.expect("(")
            cond = self.bool_expr()
            self.expect(")")
            return While(cond, self.brace_block(), line, col)
        if tok == "if":
            self.next()
            self.expect("(")
            cond = self.bool_expr()
            self.expect(")")
            then = self.brace_block()
            els = None
            if self.peek() == "else":
                self.next()
                els = self.brace_block()
            return If(cond, then, els, line, col)
        if tok == "copy":
            return self.copy_directive()
        if tok == "{":
            first = self.brace_block()
            if self.peek() != "||":
                return first
            branches = [first]
            while self.peek() == "||":
                self.next()
                branches.append(self.brace_block())
            return Par(branches)
        if isinstance(tok, tuple) and tok[0] == "ident":
            name = self.ident()
            self.expect(":=")
            expr = self.int_expr()
            self.expect(";")
            return Assign(name, expr, line, col)
        raise ParseError(f"expected statement, got {tok!r}", line, col)

    def copy_directive(self):
        line, col = self.loc()
        self.expect("copy")
        k = self.number()
        name = self.ident()
        if name not in self.blocks:
            raise ParseError(f"unknown block {name!r}", line, col)
        self.expect("as")
        suffixes = [self.suffix()]
        while self.peek() == ",":
            self.next()
            suffixes.append(self.suffix())
        shared: set[str] = set()
        if self.peek() == "sharing":
            self.next()
            shared.add(self.ident())
            while self.peek() == ",":
                self.next()
                shared.add(self.ident())
        self.expect(";")
        if len(suffixes) != k:
            raise ParseError(f"copy {k} needs {k} suffixes, got {len(suffixes)}", line, col)
        for i, suf in enumerate(suffixes):
            if suf in suffixes[:i]:
                raise ParseError(f"duplicate copy suffix {suf!r}", line, col)
        branches = []
        for suf in suffixes:
            def rename(v, line, col, suf=suf):
                if v in shared:
                    return v
                if v + suf not in self.variables:
                    self.variables.append(v + suf)
                return v + suf
            branches.append(_map_vars(self.blocks[name], rename))
        return Par(branches)

    def suffix(self) -> str:
        tok = self.next()
        if isinstance(tok, tuple) and tok[0] in ("ident", "num"):
            return str(tok[1])
        raise ParseError(f"expected suffix, got {tok!r}", *self.tokens[self.pos - 1][1:])

    def program(self) -> Ast:
        while self.peek() == "var":
            self.next()
            self.variables.append(self.ident())
            while self.peek() == ",":
                self.next()
                self.variables.append(self.ident())
            self.expect(";")
        items = []
        while self.peek() != "eof":
            if self.peek() == "block":
                self.next()
                name = self.ident()
                self.blocks[name] = self.brace_block()
            else:
                items.append(self.statement())
        return Ast(self.variables, Seq(items))


def _map_vars(node, fn, pos: tuple = ()):
    """A copy of a statement or expression tree in which each variable v
    becomes fn(v, line, col), called in source order; (line, col) is where
    the statement using v begins, for a condition its while or if."""
    if isinstance(node, tuple):
        if node[0] == "var":
            return ("var", fn(node[1], *pos))
        return tuple(_map_vars(e, fn, pos) if isinstance(e, tuple) else e
                     for e in node)
    if isinstance(node, Seq):
        return Seq([_map_vars(i, fn) for i in node.items])
    if isinstance(node, Par):
        return Par([_map_vars(b, fn) for b in node.branches])
    pos = node.line, node.col
    if isinstance(node, While):
        return While(_map_vars(node.cond, fn, pos), _map_vars(node.body, fn), *pos)
    if isinstance(node, If):
        return If(_map_vars(node.cond, fn, pos), _map_vars(node.then, fn),
                  None if node.els is None else _map_vars(node.els, fn), *pos)
    if isinstance(node, Assign):
        return Assign(fn(node.var, *pos), _map_vars(node.expr, fn, pos), *pos)
    if isinstance(node, Assume):
        return Assume(_map_vars(node.cond, fn, pos), *pos)
    raise TypeError(node)


def parse_program(text: str) -> Ast:
    """Parse a program; every variable a statement of its body uses must be
    declared by var or introduced by a copy."""
    ast = _Parser(text).program()
    declared = set(ast.variables)

    def check(v, line, col):
        if v not in declared:
            raise ParseError(f"undeclared variable {v!r}", line, col)
        return v
    _map_vars(ast.body, check)
    return ast


# ------------------------------------------------------------------- Stmt

@dataclass(eq=False)
class Stmt:
    """One letter of the program alphabet (possibly a fused atomic block)."""

    id: int
    thread: int
    region: tuple
    ops: tuple        # ('assign', var, (coeffs, const)) | ('assume', formula)
    reads: frozenset
    writes: frozenset
    display: str

    @property
    def kind(self) -> str:
        if len(self.ops) > 1:
            return "block"
        return self.ops[0][0]

    def __repr__(self):
        return f"s{self.id}<{self.display}>"


def _fmt_raw_bool(e) -> str:
    if e[0] == "not":
        return f"!({_fmt_raw_bool(e[1])})"
    _, op, lhs, rhs = e
    return f"{exprs.fmt_int(lhs)} {op} {exprs.fmt_int(rhs)}"


def concurrent(a: Stmt, b: Stmt) -> bool:
    """True iff a and b sit in different branches of some Par node."""
    for x, y in zip(a.region, b.region):
        if x != y:
            return x[0] == y[0]
    return False


@dataclass
class DependenceRel:
    masks: tuple  # masks[stmt_id] = bitmask of dependent stmt ids

    def dependent(self, a: int, b: int) -> bool:
        return bool(self.masks[a] >> b & 1)


def compute_dependence(dfa: Dfa) -> DependenceRel:
    """Reflexive symmetric dependence: read/write conflict, or not concurrent.

    Statements that are not concurrent (same thread, or sequentially ordered
    around/after a Par) must be dependent so that the program language stays
    closed under commuting independent statements.
    """
    stmts = dfa.alphabet
    n = len(stmts)
    masks = [0] * n
    for i in range(n):
        for j in range(i, n):
            a, b = stmts[i], stmts[j]
            dep = (i == j
                   or not concurrent(a, b)
                   or bool(a.writes & (b.reads | b.writes))
                   or bool(b.writes & (a.reads | a.writes)))
            if dep:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return DependenceRel(tuple(masks))


# ---------------------------------------------------------------- lowering

class _Fragment:
    """A mutable deterministic fragment over provisional Stmt objects:
    trans maps (state, stmt) to the one target state."""

    def __init__(self):
        self.n = 0
        self.trans: dict = {}

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def edge(self, sources, stmt: Stmt, v: int):
        """An edge labelled stmt from each state of sources to v."""
        for u in sources:
            self.trans[u, stmt] = v

    def shuffle(self, dfas: list, entries: set) -> set:
        """Add the shuffle product of dfas, whose alphabets are disjoint,
        after the entry states: its tuples of states are visited breadth-
        first from the initial one, and only those whose every component is
        live, since those are the product's live states.  The initial
        tuple's edges also leave every entry.  Returns the final tuples'
        states, plus the entries when the product accepts the empty word."""
        lives = [d.live_states() for d in dfas]
        start = tuple(d.initial for d in dfas)
        if not all(q in live for q, live in zip(start, lives)):
            return set()
        ids = {start: self.state()}
        order = [start]
        exits = set()
        for tup in order:                  # grows as tuples are reached
            sources = {ids[tup]} | (entries if tup is start else set())
            for i, (d, live) in enumerate(zip(dfas, lives)):
                for label, t in zip(d.alphabet, d.delta[tup[i]]):
                    if t in live:
                        nxt = tup[:i] + (t,) + tup[i + 1:]
                        if nxt not in ids:
                            ids[nxt] = self.state()
                            order.append(nxt)
                        self.edge(sources, label, ids[nxt])
            if all(q in d.finals for q, d in zip(tup, dfas)):
                exits.add(ids[tup])
        return exits | entries if ids[start] in exits else exits


class _Lowerer:
    def __init__(self, atomic: bool):
        self.atomic = atomic
        self.counter = itertools.count()
        self.threads: dict[tuple, int] = {}
        self.par_count = itertools.count()

    def thread_of(self, region: tuple) -> int:
        if region not in self.threads:
            self.threads[region] = len(self.threads)
        return self.threads[region]

    def stmt(self, region: tuple, ops, display: str) -> Stmt:
        reads, writes = set(), set()
        lowered = []
        for op in ops:
            if op[0] == "assign":
                var_, rhs = op[1], op[2]
                coeffs, const = exprs.linear(rhs)
                lowered.append(("assign", var_, (tuple(sorted(coeffs.items())), const)))
                reads |= set(coeffs)
                writes.add(var_)
            else:
                f = exprs.canon_raw(op[1])
                lowered.append(("assume", f))
                reads |= exprs.vars_of(f)
        return Stmt(next(self.counter), self.thread_of(region), region,
                    tuple(lowered), frozenset(reads), frozenset(writes), display)

    def assume(self, region: tuple, cond) -> Stmt:
        return self.stmt(region, [("assume", cond)], f"assume({_fmt_raw_bool(cond)})")

    def compile(self, node, region: tuple, frag: _Fragment, entries: set) -> set:
        """Add node's statements to frag after the entry states; returns the
        states that end node."""
        if isinstance(node, Seq):
            for item in node.items:
                entries = self.compile(item, region, frag, entries)
            return entries
        if isinstance(node, (Assign, Assume)):
            st = (self.assume(region, node.cond) if isinstance(node, Assume) else
                  self.stmt(region, [("assign", node.var, node.expr)],
                            f"{node.var} := {exprs.fmt_int(node.expr)}"))
            v = frag.state()
            frag.edge(entries, st, v)
            return {v}
        # the guards of a while or if come before its body's statements
        if isinstance(node, While):
            enter, leave = (self.assume(region, node.cond),
                            self.assume(region, ("not", node.cond)))
            body = frag.state()
            heads = entries | self.compile(node.body, region, frag, {body})
            exit_ = frag.state()
            # (enter body)* leave: every head may enter the body or leave
            frag.edge(heads, enter, body)
            frag.edge(heads, leave, exit_)
            return {exit_}
        if isinstance(node, If):
            then_g, else_g = (self.assume(region, node.cond),
                              self.assume(region, ("not", node.cond)))
            then_s, else_s = frag.state(), frag.state()
            frag.edge(entries, then_g, then_s)
            frag.edge(entries, else_g, else_s)
            return (self.compile(node.then, region, frag, {then_s})
                    | self.compile(node.els or Seq([]), region, frag, {else_s}))
        if isinstance(node, Par):
            par_id = next(self.par_count)
            branch_dfas = []
            for bi, branch in enumerate(node.branches):
                dfa = self.fragment_dfa(branch, region + ((par_id, bi),))
                if self.atomic:
                    dfa = fuse_chains(dfa, self.counter)
                branch_dfas.append(dfa)
            return frag.shuffle(branch_dfas, entries)
        raise TypeError(node)

    def fragment_dfa(self, node, region: tuple) -> Dfa:
        """node lowered on its own, from a fresh initial state."""
        frag = _Fragment()
        init = frag.state()
        fins = self.compile(node, region, frag, {init})
        return _complete(frag.n, frag.trans, init, fins)


def _complete(n: int, trans: dict, init: int, finals) -> Dfa:
    """The minimized DFA of states 0..n-1 with trans mapping (state, stmt)
    to one target, completed by a sink; its statements are those of trans,
    in id order."""
    stmts = sorted({s for (_, s) in trans}, key=lambda s: s.id)
    idx = {s: i for i, s in enumerate(stmts)}
    delta = [[n] * len(stmts) for _ in range(n + 1)]
    for (u, st), v in trans.items():
        delta[u][idx[st]] = v
    return minimize(Dfa(tuple(stmts), delta, init, frozenset(finals)))


def fuse_chains(dfa: Dfa, counter) -> Dfa:
    """Fuse straight-line same-region statement chains into atomic blocks.

    An intermediate state is fused away when it is live, non-final, not
    initial, has exactly one live in-edge and one live out-edge, both edges'
    statements occur nowhere else, and both belong to the same region.
    Fused statements take their ids from counter, the lowerer's id source.
    The result is minimized; the fused-away states are dropped there.
    """
    live = dfa.live_states()
    edges: dict[int, list] = {}
    occur: dict[Stmt, int] = {}
    for q, row in enumerate(dfa.delta):
        if q not in live:
            continue
        for i, t in enumerate(row):
            if t in live:
                st = dfa.alphabet[i]
                edges.setdefault(q, []).append([st, t])
                occur[st] = occur.get(st, 0) + 1

    # fusing u -> v -> w into u -> w keeps every other state's in-degree,
    # and an edge that cannot absorb its target now never can later, so one
    # pass in state and letter order finds every fusion
    indeg = collections.Counter(t for es in edges.values() for _, t in es)
    for u in list(edges):
        for e in edges.get(u, ()):
            while True:
                st1, v = e
                if (v == dfa.initial or v in dfa.finals or v == u
                        or indeg[v] != 1 or len(edges[v]) != 1):
                    break
                st2, w = edges[v][0]
                if (st1.region != st2.region
                        or occur[st1] != 1 or occur[st2] != 1):
                    break
                fused = Stmt(next(counter), st1.thread, st1.region,
                             st1.ops + st2.ops,
                             st1.reads | (st2.reads - st1.writes),
                             st1.writes | st2.writes,
                             f"{st1.display}; {st2.display}")
                e[:] = fused, w
                del edges[v]
                del occur[st1], occur[st2]
                occur[fused] = 1

    trans = {(u, st): v for u, es in edges.items() for st, v in es}
    return _complete(dfa.n, trans, dfa.initial, dfa.finals)


def lower_to_dfa(ast: Ast, atomic: bool = False) -> Dfa:
    """Compile the program to a complete DFA over its statement alphabet."""
    lo = _Lowerer(atomic)
    dfa = lo.fragment_dfa(ast.body, ())
    if atomic:
        dfa = fuse_chains(dfa, lo.counter)
    # dense statement ids; the alphabet is already in id order
    for i, s in enumerate(dfa.alphabet):
        s.id = i
    return dfa


def load_program(text: str, atomic: bool = False) -> tuple[Dfa, DependenceRel, Ast]:
    ast = parse_program(text)
    dfa = lower_to_dfa(ast, atomic=atomic)
    return dfa, compute_dependence(dfa), ast
