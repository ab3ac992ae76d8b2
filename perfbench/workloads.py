"""Workload definitions and the seeded rewriting of their programs.

A workload is a list of bundled ``benchmarks/*.imp`` programs, each with the
verdict and configuration of its ``.expect`` sidecar (or an override carried
here).  A seed renames every program's declared variables by a consistent
bijection and shuffles the program order; the verifier only ever sees the
rewritten text.

The renaming is order-isomorphic: every character of a name is replaced by a
fixed-length code, and codes keep the order of the characters they replace,
including their order against the ``@`` that the verifier appends to SSA
versions.  The verifier sorts variable names in its canonical forms and in
the simplex, so an arbitrary renaming changes which interpolants it finds
(``arrayeq_symm`` ends with another proof size); this one changes every name
and every hash while keeping every comparison, so the work done is the same
for every seed and the program-made counts must repeat exactly.
"""

from __future__ import annotations

import json
import os
import random
import re

WORKLOADS = {
    # Hoare-triple checking dominates; covers the unsafe path next to safe.
    "seq-atomic": [
        ("sequential/mult_dist", {}),
        ("sequential/mult_dist_flipped", {}),
        ("sequential/arrayeq_symm", {}),
        ("sequential/security_sec", {}),
        ("unsafe/mult_dist_unsafe", {}),
    ],
    # The one verifying program where determinize and the antichain check
    # dominate.  The verdict comes from mult_dist.expect; the timeout is set
    # here so that no new .expect file is needed.
    "nonatomic-mult": [
        ("sequential/mult_dist", {"atomic_blocks": False, "timeout": 120}),
    ],
    # Short verifications: fixed per-verify costs (solver spawns, child
    # start-up, revalidation) show; automata and antichain are under 3%.
    "par-stress": [
        ("parallel/parallelsum1_det", {}),
        ("parallel/simpleinc", {}),
        ("parallel/spaghetti", {}),
        ("stress/exp1x3", {}),
        ("stress/exp2x2", {}),
        ("stress/exp2x3", {}),
    ],
}

_KEYWORDS = {"var", "assume", "while", "if", "else", "block", "copy", "as",
             "sharing", "true", "false"}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_COMMENT = re.compile(r"//[^\n]*|#[^\n]*")
_VAR_DECL = re.compile(r"\bvar\b([^;]*);")
# Character classes in ASCII order; '@' (used for SSA versions) sorts between
# digits and letters, so each code starts with a character of its own class.
_CLASSES = [("0123456789", "0123456789"),
            ("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
            ("_", "abcdefghijklmnopqrstuvwxyz"),
            ("abcdefghijklmnopqrstuvwxyz", "abcdefghijklmnopqrstuvwxyz")]
_CODE_LEN = 2


class Program:
    """One program of a workload, as the verifier receives it."""

    def __init__(self, name: str, text: str, expect: dict):
        self.name = name              # path below benchmarks/, no suffix
        self.text = text
        self.expect = expect

    @property
    def atomic(self) -> bool:
        return bool(self.expect.get("atomic_blocks", False))


def load_workload(root: str, workload: str) -> list[Program]:
    """The workload's programs with their expectations, unrenamed."""
    progs = []
    for name, override in WORKLOADS[workload]:
        base = os.path.join(root, "benchmarks", name)
        with open(base + ".imp") as fh:
            text = fh.read()
        with open(base + ".expect") as fh:
            expect = json.load(fh)
        progs.append(Program(name, text, {**expect, **override}))
    return progs


def _char_codes(rng: random.Random) -> dict:
    codes = {}
    for first, rest in _CLASSES:
        picked: set = set()
        while len(picked) < len(first):
            picked.add(rng.choice(first)
                       + "".join(rng.choice(rest) for _ in range(_CODE_LEN - 1)))
        codes.update(zip(first, sorted(picked)))
    return codes


def rename(text: str, rng: random.Random) -> str:
    """Rename every declared variable by a seeded order-isomorphic bijection."""
    text = _COMMENT.sub("", text)
    declared = {v.strip() for decl in _VAR_DECL.findall(text)
                for v in decl.split(",") if v.strip()}
    others = set(_IDENT.findall(text)) - declared
    while True:
        codes = _char_codes(rng)
        mapping = {v: "".join(codes[c] for c in v) for v in declared}
        if not (set(mapping.values()) & (_KEYWORDS | others)):
            break
    return _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def rewrite(progs: list[Program], seed: str) -> list[Program]:
    """Renamed copies of the programs, in a seeded order."""
    rng = random.Random(seed)
    out = [Program(p.name, rename(p.text, rng), p.expect) for p in progs]
    rng.shuffle(out)
    return out
