import functools
import glob
import hashlib
import itertools
import os
import random

import pytest

from hyperweave import exprs, frontend
from hyperweave.automata import Dfa, minimize
from hyperweave.cli import run_benchmark
from hyperweave.frontend import (Assign, Assume, If, Par, ParseError, Seq,
                                 Stmt, While, load_program, lower_to_dfa,
                                 parse_program, tokenize)
from tests.conftest import random_dfa, random_program
from tests.oracles import shuffle, words_upto

MULT = """
var a, b, c, x1, i1, x2, i2, x3, i3;
{ x1 := 0; i1 := 0; while (i1 < c) { x1 := x1 + a + b; i1 := i1 + 1; } }
|| { x2 := 0; i2 := 0; while (i2 < c) { x2 := x2 + a; i2 := i2 + 1; } }
|| { x3 := 0; i3 := 0; while (i3 < c) { x3 := x3 + b; i3 := i3 + 1; } }
assume(x1 != x2 + x3);
"""


def test_parse_smallest():
    ast = parse_program("var x; x := 0;")
    assert len(ast.body.items) == 1


def test_parse_mult_structure():
    ast = parse_program("var a, c, x, i; x := 0; i := 0; while (i < c) { x := x + a; i := i + 1; }")
    from hyperweave.frontend import While
    whiles = [i for i in ast.body.items if isinstance(i, While)]
    assert len(whiles) == 1
    assert len(whiles[0].body.items) == 2


def test_undeclared_variable_is_an_error():
    with pytest.raises(ParseError):
        parse_program("var x; x := y;")
    with pytest.raises(ParseError):
        parse_program("var x; assume(z = 0);")


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as e:
        parse_program("var x; x := ;")
    assert str(e.value)


def test_tokens_carry_line_and_column():
    src = ("var x; // one\n"
           "# two\n"
           "  assume(x ≠ 1); assume(¬(x ≤ 2));\n"
           "\tx := x - 10; assume(x ≥ 3); // last")
    assert tokenize(src) == [
        ("var", 1, 1), (("ident", "x"), 1, 5), (";", 1, 6),
        ("assume", 3, 3), ("(", 3, 9), (("ident", "x"), 3, 10), ("≠", 3, 12),
        (("num", 1), 3, 14), (")", 3, 15), (";", 3, 16),
        ("assume", 3, 18), ("(", 3, 24), ("¬", 3, 25), ("(", 3, 26),
        (("ident", "x"), 3, 27), ("≤", 3, 29), (("num", 2), 3, 31),
        (")", 3, 32), (")", 3, 33), (";", 3, 34),
        (("ident", "x"), 4, 2), (":=", 4, 4), (("ident", "x"), 4, 7),
        ("-", 4, 9), (("num", 10), 4, 11), (";", 4, 13),
        ("assume", 4, 15), ("(", 4, 21), (("ident", "x"), 4, 22),
        ("≥", 4, 24), (("num", 3), 4, 26), (")", 4, 27), (";", 4, 28),
        ("eof", 4, 37)]       # the column after the trailing comment


@pytest.mark.parametrize("src, line, col, char", [
    ("var x;\nx := 1 $ 2;", 2, 8, "$"),
    # numeric characters that are not decimal digits start no token
    ("var x; x := ²;", 1, 13, "²"), ("var x; x := 1½;", 1, 14, "½")])
def test_unexpected_character_is_a_parse_error(src, line, col, char):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value) == f"{line}:{col}: unexpected character {char!r}"


def test_nonlinear_rejected():
    with pytest.raises(exprs.NonlinearError):
        lower_to_dfa(parse_program("var x, y; x := x * y;"))


def test_copy_directive():
    src = """
    var w;
    block worker { y := y + w; y := y * 2; }
    copy 2 worker as 1, 2 sharing w;
    assume(y1 != y2);
    """
    dfa = lower_to_dfa(parse_program(src))
    displays = {s.display for s in dfa.alphabet}
    assert "y1 := (y1 + w)" in displays and "y2 := (y2 + w)" in displays
    threads = {s.thread for s in dfa.alphabet}
    assert len(threads) == 3  # two copies plus the trailing assume
    # renaming reaches into loops and branches, and skips shared names
    src = """
    var w, g;
    block worker {
      while (y < g) { if (y = w) { y := y + 1; } else { z := w; } }
    }
    copy 2 worker as a, b sharing w, g;
    """
    ast = parse_program(src)
    assert ast.variables == ["w", "g", "ya", "za", "yb", "zb"]
    assert ast.body == Seq([Par([
        Seq([While(("cmp", "<", ("var", "y" + s), ("var", "g")), Seq([
            If(("cmp", "=", ("var", "y" + s), ("var", "w")),
               Seq([Assign("y" + s, ("add", ("var", "y" + s), ("num", 1)), 4, 36)]),
               Seq([Assign("z" + s, ("var", "w"), 4, 57)]), 4, 23)]), 4, 7)])
        for s in "ab"])])


def test_declaration_rules():
    # a name that a later copy introduces counts as declared
    parse_program("var w; ya := w; block b { y := w; } copy 1 b as a;")
    # a block that is never copied is never checked
    parse_program("var x; block b { y := z; } x := 1;")
    # the first undeclared name in source order is reported at the first
    # token of the statement that uses it, for a condition its while or if
    for src, msg in [
            ("var x;\nx := y + z;", "2:1: undeclared variable 'y'"),
            ("var x;\n  while (y < x) { z := 1; }", "2:3: undeclared variable 'y'"),
            ("var x;\nif (x < 1) { x := 1; } else { x := q; }",
             "2:31: undeclared variable 'q'")]:
        with pytest.raises(ParseError) as e:
            parse_program(src)
        assert str(e.value) == msg


def test_copy_suffixes_must_differ():
    # two copies with one suffix would share every variable
    with pytest.raises(ParseError) as e:
        parse_program("var w; block b { y := w; } copy 2 b as 1, 1;")
    assert str(e.value) == "1:28: duplicate copy suffix '1'"


@pytest.mark.parametrize("body", ["x := s;", "s := s + 1;"])
def test_shared_names_must_be_declared(body):
    # a shared name keeps its name in every copy, so no copy declares it,
    # whether the block reads or assigns it
    src = f"var x; block b {{ {body} }} copy 2 b as 1, 2 sharing s;"
    with pytest.raises(ParseError, match="undeclared variable 's'"):
        parse_program(src)
    parse_program("var s;" + src)


def test_single_statement_dfa():
    dfa = lower_to_dfa(parse_program("var x; x := 0;"))
    assert len(dfa.alphabet) == 1
    assert words_upto(dfa, 2) == {(dfa.alphabet[0],)}


def test_while_language():
    dfa = lower_to_dfa(parse_program("var g, x; while (g > 0) { x := 1; }"))
    by_disp = {s.display: s for s in dfa.alphabet}
    enter = by_disp["assume(g > 0)"]
    body = by_disp["x := 1"]
    leave = by_disp["assume(!(g > 0))"]
    words = words_upto(dfa, 5)
    want = {(leave,), (enter, body, leave,), (enter, body, enter, body, leave)}
    assert want <= words
    assert all(w[-1] is leave for w in words)


def test_parallel_language_is_shuffle():
    src = "var x, y, z; { x := 1; x := 2; } || { y := 1; } || { z := 1; }"
    dfa = lower_to_dfa(parse_program(src))
    per_thread = {}
    for s in dfa.alphabet:
        per_thread.setdefault(s.thread, []).append(s)
    words = {tuple(s.id for s in w) for w in words_upto(dfa, 8)}
    # independent enumeration of all interleavings with per-thread order kept
    t0 = sorted(per_thread[0], key=lambda s: s.id)
    seqs = [[s.id for s in t0]] + [[per_thread[t][0].id] for t in (1, 2)]
    def interleavings(seqs):
        seqs = [s for s in seqs if s]
        if not seqs:
            yield ()
            return
        for i, s in enumerate(seqs):
            rest = [list(x) for x in seqs]
            head = rest[i].pop(0)
            for tail in interleavings(rest):
                yield (head,) + tail
    assert words == set(interleavings(seqs))



def _par_text(branches) -> str:
    return " || ".join("{ " + (_par_text(b) if isinstance(b, list) else b)
                       + " }" for b in branches)


def _par_oracle(decl: str, branches) -> Dfa:
    """The shuffle oracle's product of the branches, over statement
    displays; a branch is a program text, lowered on its own, or a list of
    branches in parallel."""
    dfas = []
    for b in branches:
        if isinstance(b, list):
            dfas.append(_par_oracle(decl, b))
        else:
            d = lower_to_dfa(parse_program(decl + b))
            dfas.append(Dfa(tuple(s.display for s in d.alphabet), d.delta,
                            d.initial, d.finals))
    return functools.reduce(shuffle, dfas)


# every statement displays uniquely, so displays name the letters; the
# lowering evaluates no condition, so assume(0 > 1) is a one-word branch
@pytest.mark.parametrize("branches", [
    ["x := 1; x := 2;", "y := 1;", "if (z > 0) { z := 1; } else { z := 2; }"],
    ["x := 1; x := 2;", "y := 1;", "z := 1;", "while (w < 2) { w := w + 1; }"],
    ["x := 1;", ["y := 1; y := 2;", "z := 1;"], "w := 1;"],
    ["x := 1;", "", "y := 1; y := 2;"],
    ["x := 1;", "assume(0 > 1);", "y := 1;"],
], ids=["3-branches", "4-branches", "nested", "nullable", "assume-false"])
def test_parallel_lowering_matches_shuffle_oracle(branches):
    decl = "var w, x, y, z; "
    text = decl + "w := 0; " + _par_text(branches) + " z := 3;"
    dfa = lower_to_dfa(parse_program(text))
    words = {tuple(s.display for s in w) for w in words_upto(dfa, 8)}
    par = words_upto(_par_oracle(decl, branches), 6)
    assert words == {("w := 0",) + w + ("z := 3",) for w in par}


def test_fragment_shuffle_matches_shuffle_oracle():
    # random factors over disjoint alphabets, empty and nullable languages
    # among them, added after two entry states
    rng = random.Random(26)
    for trial in range(300):
        factors, ids = [], itertools.count()
        for _ in range(rng.randint(1, 4)):
            d = random_dfa(rng, 3, rng.randint(0, 2))
            factors.append(Dfa(tuple(Stmt(next(ids), 0, (), (), frozenset(),
                                          frozenset(), "") for _ in d.alphabet),
                               d.delta, d.initial, d.finals))
        frag = frontend._Fragment()
        a, b = frag.state(), frag.state()
        exits = frag.shuffle(factors, {a, b})
        if any(d.initial not in d.live_states() for d in factors):
            assert frag.n == 2      # an empty factor adds no state
        want = words_upto(functools.reduce(shuffle, factors), 5)
        for entry in (a, b):
            got = frontend._complete(frag.n, frag.trans, entry, exits)
            assert words_upto(got, 5) == want, trial


def test_if_else_language():
    src = "var g, x; if (g = 0) { x := 1; } else { x := 2; }"
    dfa = lower_to_dfa(parse_program(src))
    words = words_upto(dfa, 3)
    assert len(words) == 2
    assert all(len(w) == 2 for w in words)


def test_atomic_blocks_fuse_straight_line():
    ast = parse_program("var x, y; x := 0; y := 1;")
    dfa = lower_to_dfa(ast, atomic=True)
    assert len(dfa.alphabet) == 1
    assert dfa.alphabet[0].kind == "block"
    assert dfa.alphabet[0].writes == {"x", "y"}


def test_atomic_blocks_never_fuse_across_threads():
    ast = parse_program("var x, y; { x := 0; } || { y := 1; }")
    dfa = lower_to_dfa(ast, atomic=True)
    assert len(dfa.alphabet) == 2


def test_atomic_blocks_respect_loop_head():
    ast = parse_program("var a, c, x, i; x := 0; i := 0; while (i < c) { x := x + a; i := i + 1; }")
    dfa = lower_to_dfa(ast, atomic=True)
    kinds = sorted(s.display for s in dfa.alphabet)
    # init block, loop block (guard + body), exit assume
    assert len(dfa.alphabet) == 3
    loop = [s for s in dfa.alphabet if "i := (i + 1)" in s.display]
    assert len(loop) == 1 and "assume(i < c)" in loop[0].display


def test_atomic_block_expansion_bijection():
    ast = parse_program(MULT)
    plain = lower_to_dfa(ast)
    fused = lower_to_dfa(ast, atomic=True)
    # every bounded-length fused word expands to an accepted plain word
    expand = {s: [st for st in s.ops] for s in fused.alphabet}
    plain_words = {tuple(str(op) for s in w for op in s.ops)
                   for w in words_upto(plain, 8)}
    fused_words = {tuple(str(op) for s in w for op in s.ops)
                   for w in words_upto(fused, 4) if sum(len(s.ops) for s in w) <= 8}
    assert fused_words <= plain_words


BUNDLED = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                        "benchmarks", "*", "*.imp")))


@pytest.mark.parametrize("atomic", [False, True])
def test_lowering_is_normalized_by_minimize_alone(monkeypatch, atomic):
    # lower_to_dfa merges dead states only through minimize and renumbers
    # statements without permuting columns: that needs every DFA _complete
    # emits (fuse_chains' too) to list its statements in id order, with no
    # id twice (a tie would be ordered by set iteration)
    emitted = []                   # statement ids as each DFA is emitted
    real_complete = frontend._complete

    def record(dfa):
        emitted.append([s.id for s in dfa.alphabet])
        return dfa
    monkeypatch.setattr(frontend, "_complete",
                        lambda *a: record(real_complete(*a)))
    assert len(BUNDLED) >= 13
    for path in BUNDLED:
        emitted.clear()
        with open(path) as fh:
            dfa, _, _ = load_program(fh.read(), atomic=atomic)
        assert emitted
        assert all(ids == sorted(ids) for ids in emitted), path
        assert all(len(set(ids)) == len(ids) for ids in emitted), path
        assert minimize(dfa) == dfa, path
        assert dfa.n - len(dfa.live_states()) <= 1, path
        assert [s.id for s in dfa.alphabet] == list(range(len(dfa.alphabet)))


@pytest.mark.parametrize("atomic", [False, True])
def test_equal_languages_lower_to_equal_dfas(atomic):
    # an empty body and a parallel composition of empty blocks both accept
    # only the empty word; no lowering keeps an unreachable sink
    empty = lower_to_dfa(parse_program("var x;"), atomic=atomic)
    par = lower_to_dfa(parse_program("var x; {} || {}"), atomic=atomic)
    assert empty == par == Dfa((), [[]], 0, frozenset({0}))


def _cat(xs: set, ys: set, n: int) -> set:
    return {x + y for x in xs for y in ys if len(x) + len(y) <= n}


def _interleavings(x: tuple, y: tuple) -> set:
    if not x or not y:
        return {x + y}
    return ({x[:1] + w for w in _interleavings(x[1:], y)}
            | {y[:1] + w for w in _interleavings(x, y[1:])})


def _language(node, n: int) -> set:
    """The words of length <= n of a statement, as tuples of statement
    displays, computed from the AST alone."""
    if isinstance(node, Seq):
        words = {()}
        for item in node.items:
            words = _cat(words, _language(item, n), n)
        return words
    if isinstance(node, Assign):
        return {(f"{node.var} := {exprs.fmt_int(node.expr)}",)}
    if isinstance(node, Assume):
        return {(f"assume({frontend._fmt_raw_bool(node.cond)})",)}
    if isinstance(node, Par):
        words = {()}
        for branch in node.branches:
            words = {w for x in words for y in _language(branch, n)
                     if len(x) + len(y) <= n for w in _interleavings(x, y)}
        return words
    guard = frontend._fmt_raw_bool(node.cond)
    enter, leave = {(f"assume({guard})",)}, {(f"assume(!({guard}))",)}
    if isinstance(node, If):
        return (_cat(enter, _language(node.then, n), n)
                | _cat(leave, _language(node.els or Seq([]), n), n))
    loop, star = _cat(enter, _language(node.body, n), n), {()}
    while not (grown := _cat(star, loop, n)) <= star:
        star |= grown
    return _cat(star, leave, n)


def test_random_lowerings_have_the_language_of_their_ast():
    # concatenation, (enter body)* leave, guarded branches and shuffles,
    # nested with empty blocks and nullable || branches; every statement
    # displays uniquely, so displays name the letters
    rng = random.Random(16)
    for _ in range(2000):
        text = random_program(rng, depth=rng.randint(1, 3))
        ast = parse_program(text)
        dfa = lower_to_dfa(ast)
        words = {tuple(s.display for s in w) for w in words_upto(dfa, 6)}
        assert words == _language(ast.body, 6), text


def _lowering_dump(text: str, atomic: bool) -> str:
    dfa, dep, _ = load_program(text, atomic=atomic)
    return repr(([(s.id, s.thread, s.region, s.ops, sorted(s.reads),
                   sorted(s.writes), s.display) for s in dfa.alphabet],
                 dfa.delta, dfa.initial, sorted(dfa.finals), dep.masks))


# the first 16 hex digits of the SHA-256 of each bundled program's
# _lowering_dump, with atomic blocks off and on
LOWERING_DIGESTS = {
    "nonatomic/mult_dist": ("3f228791baeb5be8", "c1b9ef53e05e67a6"),
    "nonatomic/mult_dist_flipped": ("b24f2b092a062f0b", "d05553b9d3740534"),
    "parallel/parallelsum1_det": ("aa57c7f4ad8b7b43", "aa57c7f4ad8b7b43"),
    "parallel/simpleinc": ("6c61b864a873f4a1", "c994d0927cff70cc"),
    "parallel/spaghetti": ("ce3e714a9d460172", "f0e5ffe7792f4345"),
    "sequential/arrayeq_symm": ("4fd4a6aa80f85e00", "5a0ac59035f07d2a"),
    "sequential/mult_dist": ("3f228791baeb5be8", "c1b9ef53e05e67a6"),
    "sequential/mult_dist_flipped": ("b24f2b092a062f0b", "d05553b9d3740534"),
    "sequential/security_sec": ("324852644eb6456b", "a0f6387d8ac9f10a"),
    "stress/exp1x3": ("e2fd6a326cbc0387", "0f7dbf2aa49733e2"),
    "stress/exp2x2": ("fd6e268be4bee483", "288548b8aa3c7610"),
    "stress/exp2x3": ("a3286f88d349d6a7", "0218061c03498d01"),
    "unsafe/mult_dist_unsafe": ("3e1b85820bd8ed5c", "925c049f172823c0"),
}


def test_bundled_lowerings_are_pinned():
    # a change to the lowering of any bundled program, down to a state
    # number or a statement id, must update these digests on purpose
    got = {}
    for path in BUNDLED:
        with open(path) as fh:
            text = fh.read()
        name = "/".join(path[:-len(".imp")].split(os.sep)[-2:])
        got[name] = tuple(
            hashlib.sha256(_lowering_dump(text, atomic).encode()).hexdigest()[:16]
            for atomic in (False, True))
    replacement = "".join(f'    "{name}": ("{off}", "{on}"),\n'
                          for name, (off, on) in sorted(got.items()))
    assert got == LOWERING_DIGESTS, (
        "if the lowering changed on purpose, paste in\n"
        f"LOWERING_DIGESTS = {{\n{replacement}}}")


def _work_dump(path: str) -> str:
    _, v = run_benchmark(path)
    return repr((v.verdict, len(v.rounds), v.stats["proof_size"],
                 [(r.counterexamples, r.cells, r.fmax_calls, r.births,
                   r.solver_queries, r.pool_hits) for r in v.rounds]))


# the first 16 hex digits of the SHA-256 of each bundled program's
# _work_dump, verified under its .expect; benchmarks/nonatomic/ takes
# seconds, so it is left out
WORK_DIGESTS = {
    "parallel/parallelsum1_det": "1588995ac015c27e",
    "parallel/simpleinc": "897dacea085f0694",
    "parallel/spaghetti": "215046373c2227ee",
    "sequential/arrayeq_symm": "5187b13fbfd533cc",
    "sequential/mult_dist": "5acd114f32246d0d",
    "sequential/mult_dist_flipped": "ea1e6a3509de16b1",
    "sequential/security_sec": "55aeae0a5071bd35",
    "stress/exp1x3": "2a6c7b7775407644",
    "stress/exp2x2": "60360dd7813c91d1",
    "stress/exp2x3": "8b0d1d99a8eddbfc",
    "unsafe/mult_dist_unsafe": "97b24fd0ce94d404",
}


def test_bundled_work_is_pinned():
    # the work of a verification, round by round: its counterexamples, the
    # check's cells, evaluations and births, lia solves and pool hits.  A
    # faster check or triple layer keeps them; a change to them must update
    # these digests on purpose
    got = {}
    for path in BUNDLED:
        name = "/".join(path[:-len(".imp")].split(os.sep)[-2:])
        if not name.startswith("nonatomic/"):
            got[name] = hashlib.sha256(
                _work_dump(path).encode()).hexdigest()[:16]
    replacement = "".join(f'    "{name}": "{digest}",\n'
                          for name, digest in sorted(got.items()))
    assert got == WORK_DIGESTS, (
        "if the work changed on purpose, paste in\n"
        f"WORK_DIGESTS = {{\n{replacement}}}")


def test_dependence_same_thread():
    dfa, dep, _ = load_program("var x, y; x := 1; y := 2;")
    a, b = dfa.alphabet
    assert dep.dependent(a.id, b.id)


def test_dependence_disjoint_parallel_independent():
    dfa, dep, _ = load_program("var a, x1, x2; { x1 := x1 + a; } || { x2 := x2 + a; }")
    s1, s2 = dfa.alphabet
    assert not dep.dependent(s1.id, s2.id)


def test_dependence_write_read_conflict():
    dfa, dep, _ = load_program("var x; { x := 1; } || { assume(x > 0); }")
    s1, s2 = dfa.alphabet
    assert dep.dependent(s1.id, s2.id)


def test_dependence_reflexive_symmetric():
    dfa, dep, _ = load_program(MULT)
    n = len(dfa.alphabet)
    for i in range(n):
        assert dep.dependent(i, i)
        for j in range(n):
            assert dep.dependent(i, j) == dep.dependent(j, i)


def test_sequential_glue_is_dependent_with_everything():
    dfa, dep, _ = load_program(MULT, atomic=True)
    final = max(dfa.alphabet, key=lambda s: "x1 != " in s.display)
    for s in dfa.alphabet:
        assert dep.dependent(final.id, s.id)


def test_program_language_is_dependence_closed():
    from tests.oracles import is_closed
    for src in [
        "var x, y; { x := 1; } || { y := 2; } assume(x = y);",
        "var a, x1, x2; { x1 := a; x1 := x1 + 1; } || { x2 := a; }",
    ]:
        dfa, dep, _ = load_program(src)
        words = {tuple(s.id for s in w) for w in words_upto(dfa, 6)}
        # closure only adds permutations of the same letters, so bounded
        # enumeration is closed iff the language is
        assert is_closed(words, dep.masks)


def test_independent_pairs_commute_semantically(solver):
    from hyperweave.cli import check_dependence_soundness
    for src in [MULT,
                "var x, y, z; { x := y + 1; } || { y := 2; } || { z := x; }"]:
        dfa, dep, _ = load_program(src, atomic=True)
        assert check_dependence_soundness(dfa, dep, solver) == []
