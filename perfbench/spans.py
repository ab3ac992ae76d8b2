"""Per-layer tracing of the verifier from outside its source.

The tracer replaces the functions the refinement loop actually calls (module
attributes and methods, e.g. ``cegar.determinize`` rather than only
``automata.determinize``) with wrappers that record one span per call: name,
start, end and the id of the enclosing span.  Spans stay in memory until the
run ends.  ``restore`` puts every original back and checks that it did, so
untraced runs execute unwrapped code.
"""

from __future__ import annotations

import json
import time

from hyperweave import antichain, cegar, frontend, proofdb

# Counts read off a call's arguments and result: (args, result) -> info.

def _load_info(args, loaded):
    return {"alphabet": len(loaded[0].alphabet), "states": loaded[0].n}


def _dfa_info(args, dfa):
    return {"states": dfa.n}


def _check_info(args, result):
    s = result.stats
    return {"cells": s.cells, "fmax_calls": s.fmax_calls, "births": s.births}


def _extend_info(args, nfa):
    return {"edges": len(args[0].edges)}


def _sat_info(args, answer):
    return {"queries": 1, "unsat": int(answer[0] == "unsat")}


def _batch_info(args, answers):
    return {"queries": len(answers),
            "unsat": sum(1 for a in answers if a == "unsat")}


# (owner, attribute, span name, info or None).  A span name starts with its
# layer; a layer's self time is the time of its spans minus the part their
# child spans cover.
TARGETS = [
    (frontend, "load_program", "frontend.load_program", _load_info),
    (cegar, "verify", "cegar.verify", None),
    (cegar, "_revalidate", "cegar.revalidate", None),
    (cegar, "determinize", "automata.determinize", _dfa_info),
    (antichain, "check", "antichain.check", _check_info),
    (antichain, "extract_counterexamples", "antichain.extract", None),
    (proofdb, "feasible", "proofdb.feasible", None),
    (proofdb, "interpolate", "proofdb.interpolate", None),
    (proofdb, "replay", "proofdb.replay", None),
    (proofdb.ProofNfaBuilder, "extend", "proofdb.extend", _extend_info),
    (proofdb.SolverClient, "__init__", "solver.spawn", None),
    (proofdb.SolverClient, "check_sat", "solver.check_sat", _sat_info),
    (proofdb.SolverClient, "check_sat_batch", "solver.batch", _batch_info),
    (proofdb.SolverClient, "close", "solver.close", None),
]
# Counted, not spanned: entailment-cache lookups made inside extend.
CACHE_GET = (proofdb.EntailmentCache, "get")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "info")

    def __init__(self, sid, name, start, parent):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "info": self.info}


class Tracer:
    """Installs the wrappers; collects spans and entailment-cache counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list = []          # (owner, attribute, original)
        self.cache_lookups = 0          # EntailmentCache.get inside extend
        self.cache_hits = 0

    # ---- installation

    def install(self):
        for owner, attr, name, info in TARGETS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, info))
        owner, attr = CACHE_GET
        self._patch(owner, attr, self._wrap_cache_get(getattr(owner, attr)))

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        assert_unwrapped()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, name, info):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), name, 0.0,
                        stack[-1].id if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        wrapper.perfbench_span = name
        return wrapper

    def _wrap_cache_get(self, fn):
        tracer = self

        def get(cache, key):
            value = fn(cache, key)
            stack = tracer._stack
            if stack and stack[-1].name == "proofdb.extend":
                tracer.cache_lookups += 1
                if value is not None:
                    tracer.cache_hits += 1
            return value

        get.perfbench_span = "proofdb.cache_get"
        return get

    # ---- analysis

    def children(self) -> dict:
        kids: dict = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        kids = self.children()
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(kids.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    @staticmethod
    def subtree(root: Span, kids: dict) -> list[Span]:
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids.get(s.id, ()))
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def assert_unwrapped():
    """Raise if any traced attribute still holds a wrapper."""
    for owner, attr in [t[:2] for t in TARGETS] + [CACHE_GET]:
        if hasattr(owner.__dict__[attr], "perfbench_span"):
            raise RuntimeError(f"tracer left {owner.__name__}.{attr} wrapped")


def layer_of(span: Span) -> str:
    return span.name.partition(".")[0]
