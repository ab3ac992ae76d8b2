import itertools
import os
import random

import pytest

from hyperweave import proofdb
from hyperweave.automata import Dfa, Nfa


def child_env() -> dict:
    """Environment for a python child process that imports the hyperweave
    this session tests (a source tree need not be installed)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(proofdb.__file__)))
    return {**os.environ,
            "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


@pytest.fixture(scope="session")
def solver():
    client = proofdb.SolverClient()
    yield client
    client.close()


def check_wellformed(dfa: Dfa):
    """Every state index of dfa is in range and every row is complete."""
    assert 0 <= dfa.initial < dfa.n
    assert all(0 <= q < dfa.n for q in dfa.finals)
    k = len(dfa.alphabet)
    for row in dfa.delta:
        assert len(row) == k
        assert all(0 <= t < dfa.n for t in row)


def random_dfa(rng: random.Random, max_states: int, k: int,
               final_p: float = 0.4) -> Dfa:
    n = rng.randint(1, max_states)
    delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    finals = frozenset(q for q in range(n) if rng.random() < final_p)
    return Dfa(tuple(range(k)), delta, 0, finals)


def random_nfa(rng: random.Random, n: int, alphabet) -> Nfa:
    trans = {}
    for q in range(n):
        for a in alphabet:
            for t in range(n):
                if rng.random() < 0.25:
                    trans.setdefault((q, a), set()).add(t)
    finals = {q for q in range(n) if rng.random() < 0.4}
    return Nfa(n, tuple(alphabet), trans, 0, finals)


def random_dep(rng: random.Random, k: int, p: float = 0.5) -> tuple:
    masks = [1 << a for a in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            if rng.random() < p:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return tuple(masks)


def random_closed_language(rng: random.Random, k: int, maxlen: int,
                           dep: tuple, max_words: int = 10):
    """A random finite language closed under swapping independent letters."""
    from tests.oracles import closure

    words = set()
    for _ in range(rng.randint(1, max_words)):
        n = rng.randint(0, maxlen)
        words.add(tuple(rng.randrange(k) for _ in range(n)))
    return closure(words, dep)


def random_program(rng: random.Random, depth: int = 3,
                   names: tuple = ("x", "y", "z", "w")) -> str:
    """A random program text over the declared names: assignments, assumes,
    while loops (empty bodies too), if with and without else, plain blocks
    and || of blocks (empty branches too), nested up to depth.  Every
    assignment, assume and guard has a constant of its own, so no two
    statements display alike."""
    consts = itertools.count(1)

    def block(d: int) -> str:
        return "{ " + "".join(statement(d) + " " for _ in range(rng.randrange(3))) + "}"

    def statement(d: int) -> str:
        x, y = rng.choice(names), rng.choice(names)
        kind = rng.choice(["assign", "assign", "assume"]
                          + (["while", "if", "if-else", "block", "par"] if d else []))
        if kind == "assign":
            return f"{x} := {y} + {next(consts)};"
        if kind == "assume":
            return f"assume({x} != {next(consts)});"
        if kind == "while":
            return f"while ({x} < {next(consts)}) {block(d - 1)}"
        if kind == "if":
            return f"if ({x} = {next(consts)}) {block(d - 1)}"
        if kind == "if-else":
            return f"if ({x} > {next(consts)}) {block(d - 1)} else {block(d - 1)}"
        if kind == "block":
            return block(d - 1)
        return " || ".join(block(d - 1) for _ in range(rng.randint(2, 3)))

    body = " ".join(statement(depth) for _ in range(rng.randint(1, 3)))
    return f"var {', '.join(names)}; {body}"
