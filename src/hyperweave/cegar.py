"""The counterexample-guided refinement loop.

Each round: build the proof NFA from the current assertion set (incremental,
cache-backed) and ask the checker whether some sleep-set reduction of the
program is covered.  There is no separate determinize step: the antichain
checker and the naive strategy read the proof NFA through a LazyDfa (only
the explicit-LTA baseline determinizes eagerly).  Covered means safe
once a fresh solver re-proves the proof automaton's edges and a fresh
fixpoint agrees; otherwise the chosen strategy extracts counterexample traces
from the inactivity proof, feasible traces are real violations, and
infeasible ones are interpolated.  The run's deadline also reaches the
check, the naive difference search, the Hoare-triple decisions and
revalidation.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from . import antichain as ac
from . import lta as ltamod
from . import proofdb
from .automata import Dfa, LazyDfa, determinize, first_difference_trace
from .exprs import fmt
from .reduction import (OrderSource, PARTITION, ReductionTooLarge,
                        sleep_reduction_lta)


@dataclass(slots=True)
class RoundRecord:
    number: int
    counterexamples: list          # letter-id tuples
    new_assertions: list           # display strings
    proof_size: int
    construction_time: float       # proof-NFA extension
    checking_time: float           # the emptiness check
    # counterexample extraction (or the naive difference search), and
    # feasibility plus interpolation of the extracted traces
    extract_time: float = 0.0
    refine_time: float = 0.0
    # the round's antichain check counters (0 on the baseline engine)
    cells: int = 0
    fmax_calls: int = 0
    births: int = 0
    api_rows: int = 0              # proof-DFA rows the check built
    memo_hits: int = 0
    # the round's lia solves and pool answers of the loop's solver, and
    # entailment-cache hits
    solver_queries: int = 0
    pool_hits: int = 0
    cache_hits: int = 0

    def as_dict(self) -> dict:
        d = asdict(self)
        d["counterexamples"] = [list(w) for w in self.counterexamples]
        return {"round": d.pop("number"), **d}


@dataclass
class Safe:
    # the assertion formulas, proofdb.pack_proof: read them as .proof
    packed_proof: bytes = field(repr=False)
    rounds: list
    stats: dict
    # the confirmed edges, proofdb.pack_edges (proof_nfa adds the implied
    # ones); kept out of repr: an int this long has too many digits for str()
    edges: int = field(repr=False)

    verdict = "safe"

    @property
    def proof(self) -> list:
        """The assertion formulas (canonical): true, false, then the rest."""
        return proofdb.unpack_proof(self.packed_proof)


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


MAX_ROUNDS = 400
MAX_PROOF = 512                    # assertions a proof may reach


@dataclass
class VerifyConfig:
    strategy: ac.Strategy = ac.Strategy("bpe", "rr")
    orders: OrderSource = PARTITION
    use_antichain: bool = True
    timeout: float = 300.0


class _BaselineChecker:
    """Explicit-LTA emptiness; the --antichain off engine.  Its
    constructions give up with ResourceLimit('timeout') past deadline."""

    def __init__(self, program: Dfa, dep, orders: OrderSource, deadline):
        self.alphabet = program.alphabet
        self.deadline = deadline
        self.reduce_lta = sleep_reduction_lta(program, dep, orders,
                                              deadline=deadline)

    def check(self, nfa):
        api = determinize(nfa, self.alphabet, self.deadline)
        m = ltamod.lta_intersect(self.reduce_lta, ltamod.lta_powerset(api),
                                 self.deadline)
        inact = ltamod.inactive_baseline(m, self.deadline)
        covered = m.initial not in inact.inactive
        forest = None if covered else ltamod.build_counterexample_tree(m, inact)
        return covered, forest, None


def _checker(program: Dfa, dep, cfg: VerifyConfig, deadline):
    """The emptiness check cfg selects: proof nfa -> (covered, forest, stats).

    stats is the antichain engine's counter dict, with the number of rows
    of the lazy proof DFA it built (api_rows), None for the baseline.  The
    antichain checks share one SurvivorMemo, made here: a checker's calls
    reuse each other's cell values, and a second checker reuses nothing.
    Both engines give up at deadline.
    """
    if not cfg.use_antichain:
        return _BaselineChecker(program, dep, cfg.orders, deadline).check
    thin = cfg.orders.kind == "partition" and cfg.strategy.kind == "bpe"
    memo = ac.SurvivorMemo()

    def check(nfa):
        api = LazyDfa(nfa, program.alphabet)
        result = ac.check(program, api, dep, cfg.orders, thin, deadline,
                          memo)
        return (result.covered, result.forest,
                dict(result.stats.as_dict(), api_rows=api.rows_built))
    return check


# RoundRecord fields taken from the antichain check's stats
_ROUND_COUNTERS = ("cells", "fmax_calls", "births", "api_rows",
                   "memo_hits")


def verify(program: Dfa, dep, config: VerifyConfig | None = None):
    cfg = config or VerifyConfig()
    rounds: list[RoundRecord] = []
    seen_cexs: set = set()
    stats: dict = {"engine": "antichain" if cfg.use_antichain else "baseline",
                   "strategy": str(cfg.strategy), "orders": cfg.orders.kind}
    if cfg.use_antichain:
        # present even when the first check times out
        stats["check"] = dict(ac.Stats().as_dict(), api_rows=0)
    deadline = time.monotonic() + cfg.timeout
    t_revalidate = 0.0

    cache = proofdb.EntailmentCache()
    proof = proofdb.Proof()
    solver = proofdb.SolverClient()

    try:
        builder = proofdb.ProofNfaBuilder(program.alphabet, solver, cache,
                                          deadline)
        check = _checker(program, dep, cfg, deadline)
        for number in range(1, MAX_ROUNDS + 1):
            if time.monotonic() > deadline:
                return Unknown("timeout", rounds, stats)

            queries0, pool0, hits0 = (solver.num_queries, solver.pool_hits,
                                      cache.hits)
            t0 = time.monotonic()
            nfa = builder.extend(proof)
            t_build = time.monotonic() - t0

            t0 = time.monotonic()
            covered, forest, check_stats = check(nfa)
            counters = {}
            if check_stats is not None:
                stats["check"] = check_stats
                counters = {k: check_stats[k] for k in _ROUND_COUNTERS}
            t_check = time.monotonic() - t0

            def record(words, new_assertions, t_extract=0.0, t_refine=0.0):
                rounds.append(RoundRecord(
                    number, list(words), [fmt(f) for f in new_assertions],
                    len(proof), t_build, t_check, t_extract, t_refine,
                    **counters,
                    solver_queries=solver.num_queries - queries0,
                    pool_hits=solver.pool_hits - pool0,
                    cache_hits=cache.hits - hits0))

            if covered:
                record([], [])
                t0 = time.monotonic()
                try:
                    edges = _revalidate(program, dep, cfg, proof,
                                        builder.edges, deadline)
                finally:
                    t_revalidate = time.monotonic() - t0
                if edges is None:
                    return Unknown("revalidation failed", rounds, stats)
                return Safe(proofdb.pack_proof(proof), rounds, stats,
                            proofdb.pack_edges(edges, program.alphabet,
                                               len(proof)))

            t0 = time.monotonic()
            if cfg.strategy.kind == "naive":
                word = first_difference_trace(
                    program, LazyDfa(nfa, program.alphabet), deadline)
                if word is None:
                    return Unknown("naive strategy found no difference trace",
                                   rounds, stats)
                words = [tuple(program.alphabet.index(s) for s in word)]
            else:
                words = ac.extract_counterexamples(forest, program.alphabet,
                                                   cfg.strategy)
            # the forest holds the check's engine and proof DFA: free them
            # before the next check builds its own
            forest = None
            t_extract = time.monotonic() - t0
            if not words:
                return Unknown("no counterexample extracted", rounds, stats)

            t0 = time.monotonic()
            new_assertions: list = []
            for w in words:
                if time.monotonic() > deadline:
                    return Unknown("timeout", rounds, stats)
                if w in seen_cexs:
                    return Unknown("counterexample repeated across rounds",
                                   rounds, stats)
                seen_cexs.add(w)
                trace = [program.alphabet[a] for a in w]
                model = proofdb.feasible(trace, solver)
                if model is not None:
                    if proofdb.replay(trace, model) is None:
                        return Unknown("model does not replay", rounds, stats)
                    record(words[: words.index(w) + 1], new_assertions,
                           t_extract, time.monotonic() - t0)
                    return Unsafe(trace, model, rounds, stats)
                chain = proofdb.interpolate(trace, solver, cache=cache)
                for f in chain[1:-1]:
                    if proof.add(f):
                        new_assertions.append(f)

            record(words, new_assertions, t_extract, time.monotonic() - t0)

            if not new_assertions:
                # a bug: one cache decides chains and edges, so the proof
                # NFA already accepts a trace whose chain adds nothing
                return Unknown("stagnation: no new assertion", rounds, stats)
            if len(proof) > MAX_PROOF:
                return Unknown(f"proof size exceeded {MAX_PROOF}", rounds, stats)
        return Unknown("round limit reached", rounds, stats)
    except proofdb.SolverError as e:
        return Unknown(f"solver failure: {e}", rounds, stats)
    except (ac.ResourceLimit, ltamod.BrokenInvariant, ReductionTooLarge,
            proofdb.InterpolationError) as e:
        return Unknown(str(e), rounds, stats)
    finally:
        # the verdict shares this dict: every exit reports the same keys
        stats.update(proof_size=len(proof), rounds=len(rounds),
                     cache_entries=len(cache),
                     solver_queries=solver.num_queries,
                     pool_hits=solver.pool_hits,
                     cache_hits=cache.hits, cache_misses=cache.misses,
                     revalidate_time=t_revalidate)
        solver.close()


def _revalidate(program: Dfa, dep, cfg: VerifyConfig, proof, edges,
                deadline) -> list | None:
    """Independent re-check of the proof by its edges: a fresh solver, with
    no shared cache, re-proves each edge, and a fresh checker (with its own
    memo: nothing the loop's checks computed) must find the NFA of the
    confirmed edges covering (a missing edge only shrinks it).  Returns them,
    or None on failure; past the deadline raises ResourceLimit('timeout')."""
    edges = sorted(edges)
    fs, stmts = proof.assertions, {s.id: s for s in program.alphabet}
    triples = [(fs[i], stmts[sid], fs[j]) for i, sid, j in edges]
    try:
        with proofdb.SolverClient() as solver:
            verdicts = proofdb.hoare_verdicts(triples, solver,
                                              deadline=deadline)
    except proofdb.SolverError:
        return None
    confirmed = [e for e, valid in zip(edges, verdicts) if valid]
    nfa = proofdb.proof_nfa(len(proof), program.alphabet, confirmed)
    return confirmed if _checker(program, dep, cfg, deadline)(nfa)[0] else None


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
