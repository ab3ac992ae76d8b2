"""The counterexample-guided refinement loop.

Each round: build the proof NFA from the current assertion set (incremental,
cache-backed), determinize it, and ask the checker whether some sleep-set
reduction of the program is covered.  Covered means safe (after an
independent revalidation pass); otherwise the chosen strategy extracts
counterexample traces from the inactivity proof, feasible traces are real
violations, and infeasible ones are interpolated to grow the proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import antichain as ac
from . import lta as ltamod
from . import proofdb
from .automata import Dfa, determinize, first_difference_trace
from .exprs import fmt
from .reduction import (OrderSource, PARTITION, ReductionTooLarge,
                        sleep_reduction_lta)


@dataclass
class RoundRecord:
    number: int
    counterexamples: list          # letter-id tuples
    new_assertions: list           # display strings
    proof_size: int
    construction_time: float
    checking_time: float

    def as_dict(self) -> dict:
        return dict(round=self.number,
                    counterexamples=[list(w) for w in self.counterexamples],
                    new_assertions=self.new_assertions,
                    proof_size=self.proof_size,
                    construction_time=self.construction_time,
                    checking_time=self.checking_time)


@dataclass
class Safe:
    proof: list                    # assertion formulas (canonical)
    rounds: list
    stats: dict

    verdict = "safe"


@dataclass
class Unsafe:
    trace: list                    # Stmt sequence
    model: dict                    # initial-state assignment, replayable
    rounds: list
    stats: dict

    verdict = "unsafe"


@dataclass
class Unknown:
    reason: str
    rounds: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    verdict = "unknown"


@dataclass
class VerifyConfig:
    strategy: ac.Strategy = ac.Strategy("bpe", "rr")
    orders: OrderSource = PARTITION
    use_antichain: bool = True
    solver_command: object = None
    timeout: float = 300.0
    max_proof: int = 512
    max_rounds: int = 400
    interpolation: str = "farkas"
    validate: bool = True
    cex_cap: int = 200000


class _BaselineChecker:
    """Explicit-LTA emptiness; the --antichain off engine."""

    def __init__(self, program: Dfa, dep, orders: OrderSource):
        self.reduce_lta = sleep_reduction_lta(program, dep, orders)

    def check(self, api: Dfa):
        m = ltamod.lta_intersect(self.reduce_lta, ltamod.lta_powerset(api))
        inact = ltamod.inactive_baseline(m)
        covered = m.initial not in inact.inactive
        forest = None if covered else ltamod.build_counterexample_tree(m, inact)
        return covered, forest


def verify(program: Dfa, dep, config: VerifyConfig | None = None):
    cfg = config or VerifyConfig()
    rounds: list[RoundRecord] = []
    seen_cexs: set = set()
    stats: dict = {"engine": "antichain" if cfg.use_antichain else "baseline",
                   "strategy": str(cfg.strategy), "orders": cfg.orders.kind}
    deadline = time.monotonic() + cfg.timeout
    strategy = cfg.strategy
    fell_back = False

    try:
        solver = proofdb.SolverClient(cfg.solver_command)
    except proofdb.SolverError as e:
        return Unknown(f"solver unavailable: {e}", rounds, stats)
    cache = proofdb.EntailmentCache()
    builder = proofdb.ProofNfaBuilder(program.alphabet, solver, cache)
    proof = proofdb.Proof()
    baseline = None

    try:
        if not cfg.use_antichain:
            baseline = _BaselineChecker(program, dep, cfg.orders)
        for number in range(1, cfg.max_rounds + 1):
            if time.monotonic() > deadline:
                return Unknown("timeout", rounds, stats)

            t0 = time.monotonic()
            nfa = builder.extend(proof)
            api = determinize(nfa, program.alphabet)
            t_build = time.monotonic() - t0

            t0 = time.monotonic()
            if cfg.use_antichain:
                thin = cfg.orders.kind == "partition" and cfg.strategy.kind == "bpe"
                result = ac.check(program, api, dep, cfg.orders, thin=thin)
                covered, forest = result.covered, result.forest
                stats["check"] = result.stats.as_dict()
            else:
                covered, forest = baseline.check(api)
            t_check = time.monotonic() - t0

            if covered:
                rounds.append(RoundRecord(number, [], [], len(proof),
                                          t_build, t_check))
                stats.update(proof_size=len(proof), rounds=number,
                             cache_entries=len(cache))
                if cfg.validate and not _revalidate(program, dep, cfg, proof):
                    return Unknown("revalidation failed", rounds, stats)
                return Safe(list(proof), rounds, stats)

            if strategy.kind == "naive":
                word = first_difference_trace(program, api)
                assert word is not None, "NotCovered but program inside proof"
                words = [tuple(program.alphabet.index(s) for s in word)]
            else:
                words = ac.extract_counterexamples(forest, program.alphabet,
                                                   strategy, cfg.cex_cap)
            assert words, "NotCovered yielded no counterexamples"

            new_assertions: list = []
            for w in words:
                if time.monotonic() > deadline:
                    return Unknown("timeout", rounds, stats)
                assert w not in seen_cexs, "counterexample repeated across rounds"
                seen_cexs.add(w)
                trace = [program.alphabet[a] for a in w]
                model = proofdb.feasible(trace, solver)
                if model is not None:
                    replayed = proofdb.replay(trace, model)
                    assert replayed is not None, "model does not replay"
                    stats.update(proof_size=len(proof), rounds=number)
                    rounds.append(RoundRecord(
                        number, list(words[: words.index(w) + 1]),
                        [fmt(f) for f in new_assertions], len(proof),
                        t_build, t_check))
                    return Unsafe(trace, model, rounds, stats)
                chain = proofdb.interpolate(trace, solver,
                                            engine=cfg.interpolation,
                                            cache=cache)
                for f in chain[1:-1]:
                    if proof.add(f):
                        new_assertions.append(f)

            rounds.append(RoundRecord(
                number, list(words), [fmt(f) for f in new_assertions],
                len(proof), t_build, t_check))

            if not new_assertions:
                if (strategy.kind, strategy.mode) == ("bpe", "rr") and not fell_back:
                    strategy = ac.Strategy("bpe", "m", 1)
                    fell_back = True
                    stats["fallback"] = str(strategy)
                    continue
                return Unknown("stagnation: no new assertion", rounds, stats)
            if len(proof) > cfg.max_proof:
                return Unknown(f"proof size exceeded {cfg.max_proof}", rounds, stats)
        return Unknown("round limit reached", rounds, stats)
    except proofdb.SolverError as e:
        return Unknown(f"solver failure: {e}", rounds, stats)
    except (ac.ResourceLimit, ReductionTooLarge, proofdb.InterpolationError) as e:
        return Unknown(str(e), rounds, stats)
    finally:
        # every verdict, Unknown included, carries the loop's solver and
        # cache counters (the verdict shares this dict)
        stats.update(solver_queries=solver.num_queries,
                     cache_hits=cache.hits, cache_misses=cache.misses)
        solver.close()


def _revalidate(program: Dfa, dep, cfg: VerifyConfig, proof) -> bool:
    """Independent re-check: fresh solver instance, fresh fixpoint engine."""
    try:
        with proofdb.SolverClient(cfg.solver_command) as solver:
            nfa = proofdb.build_proof_nfa(proof, program.alphabet, solver)
            api = determinize(nfa, program.alphabet)
            if cfg.use_antichain:
                return ac.check(program, api, dep, cfg.orders).covered
            covered, _ = _BaselineChecker(program, dep, cfg.orders).check(api)
            return covered
    except proofdb.SolverError:
        return False


def progress_audit(rounds) -> bool:
    """No counterexample repeats; the proof strictly grows every round that
    did not terminate the run (the last round may end in Unsafe/Unknown)."""
    seen = set()
    for rec in rounds:
        for w in rec.counterexamples:
            key = tuple(w)
            if key in seen:
                return False
            seen.add(key)
    prev = 2  # {true, false}
    for i, rec in enumerate(rounds):
        terminal = i == len(rounds) - 1 and not rec.new_assertions
        if not terminal and rec.proof_size <= prev:
            return False
        if rec.proof_size < prev:
            return False
        prev = rec.proof_size
    return True
