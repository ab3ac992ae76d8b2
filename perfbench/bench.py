"""Passes over a workload, output checks, and the metrics of a run.

Load is a closed loop with one client: this process verifies one program at
a time through ``frontend.load_program`` and ``cegar.verify``.  A run makes
whole passes over the workload, each with its own renaming seed derived from
``--seed``, while the next pass is predicted to end within ``--seconds``.
Untraced runs (``--trace 0``) report the end-to-end metrics as medians over
their passes.  Traced runs (``--trace 1``) alternate an untraced and a traced
pass and report the per-layer metrics; the ratio of the two walls is the
tracing overhead.

Every output is checked after its pass, outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

from hyperweave import cegar, frontend, proofdb
from hyperweave.antichain import Strategy

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh-interpreter set-ups per untraced run, half before and half after
# the passes, so that their median spans the run.
SETUP_REPS = 16
ACCOUNTING_TOLERANCE = 0.05
# .expect keys the benchmark understands; any other key would be ignored
# silently, so it is refused instead.
EXPECT_KEYS = {"verdict", "strategy", "atomic_blocks", "timeout"}
# Counts the program makes that must repeat exactly across runs and seeds.
EXACT_COUNTS = ("cegar.rounds", "cegar.proof_size", "solver.queries",
                "proofdb.edges", "antichain.cells", "antichain.fmax_calls",
                "automata.api_states")


def cpu_seconds() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


class Row:
    """One program verified in one pass."""

    def __init__(self, prog):
        self.prog = prog
        self.verdict = None
        self.error = None
        self.seconds = 0.0          # load_program + verify
        self.verify_s = None        # verify alone; None if it never ran
        self.cpu_s = 0.0            # this process and its reaped children
        self.children_cpu_s = 0.0   # solver children alone
        self.problems: list[str] = []

    def fingerprint(self) -> list:
        """Counts every verdict carries; they must not change with the seed."""
        v = self.verdict
        return [v.verdict, len(v.rounds), v.stats.get("proof_size"),
                v.stats.get("solver_queries"), v.stats.get("check")]


def verify_config(expect: dict) -> cegar.VerifyConfig:
    unknown = set(expect) - EXPECT_KEYS
    if unknown:
        raise ValueError(f"unsupported .expect keys {sorted(unknown)}")
    return cegar.VerifyConfig(strategy=Strategy.parse(expect["strategy"]),
                              timeout=float(expect["timeout"]))


def run_pass(progs, seed: str) -> list[Row]:
    rows = []
    for prog in workloads.rewrite(progs, seed):
        row = Row(prog)
        cfg = verify_config(prog.expect)
        gc.collect()
        cpu0 = cpu_seconds()
        t0, t1 = time.perf_counter(), None
        try:
            dfa, dep, _ = frontend.load_program(prog.text, atomic=prog.atomic)
            t1 = time.perf_counter()
            row.verdict = cegar.verify(dfa, dep, cfg)
        except Exception as e:  # a raising program is a failed attempt
            row.error = f"raised {e!r}"
        t2 = time.perf_counter()
        if t1 is not None:
            row.verify_s = t2 - t1
        row.seconds = t2 - t0
        cpu1 = cpu_seconds()
        row.cpu_s = sum(cpu1) - sum(cpu0)
        row.children_cpu_s = cpu1[1] - cpu0[1]
        rows.append(row)
    for row in rows:
        row.problems = check_outputs(row)
    return rows


def check_outputs(row: Row) -> list[str]:
    v = row.verdict
    if v is None:
        return [row.error]
    problems = []
    want = row.prog.expect["verdict"]
    if v.verdict != want:
        why = f" ({v.reason})" if v.verdict == "unknown" else ""
        problems.append(f"verdict {v.verdict}{why}, expected {want}")
    if v.verdict == "unsafe" and proofdb.replay(v.trace, v.model) is None:
        problems.append("unsafe model does not replay")
    if not cegar.progress_audit(v.rounds):
        problems.append("progress audit failed")
    return problems


def repeated_passes(seconds: float, step) -> list:
    """step(k) for k = 0, 1, ... while the next call should end in time."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step(len(out)))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return out


def geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def setup_seconds(root: str, progs, reps: int) -> list[float]:
    """Fresh-interpreter set-up times: import the package, load the programs."""
    job = json.dumps({"src": os.path.join(root, "src"),
                      "programs": [[p.text, p.atomic] for p in progs]})
    times = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                              input=job, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout))
    return times


# --------------------------------------------------------------- per-layer

def layer_metrics(tracer: spans.Tracer, rows: list[Row]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and exact counts per program.

    Accounting: the self times of all spans under a ``cegar.verify`` span
    must add up to the verify wall time the pass measured around the call.
    """
    kids = tracer.children()
    selfs = tracer.self_times()
    incl: dict = defaultdict(float)
    calls: Counter = Counter()
    for s in tracer.spans:
        incl[s.name] += s.end - s.start
        calls[s.name] += 1

    def info_sum(group, name, key):
        return sum((s.info or {}).get(key, 0) for s in group if s.name == name)

    roots = [s for s in tracer.spans if s.name == "cegar.verify"]
    verified = [r for r in rows if r.verify_s is not None]
    if len(roots) != len(verified):
        raise RuntimeError(f"{len(roots)} verify spans for {len(verified)} verifies")
    layer_self: dict = defaultdict(float)
    counts: dict = {}
    worst_gap = 0.0
    for root, row in zip(roots, verified):
        sub = spans.Tracer.subtree(root, kids)
        accounted = sum(selfs[s.id] for s in sub)
        gap = abs(accounted - row.verify_s) / row.verify_s
        worst_gap = max(worst_gap, gap)
        if gap > ACCOUNTING_TOLERANCE:
            row.problems.append(f"layer self times cover {accounted:.4f} s of "
                                f"a {row.verify_s:.4f} s verify")
        for s in sub:
            layer_self[spans.layer_of(s)] += selfs[s.id]
        if row.verdict is None:
            continue
        loop = kids.get(root.id, [])
        extends = [s for s in loop if s.name == "proofdb.extend"]
        counts[row.prog.name] = {
            "cegar.rounds": sum(1 for s in loop if s.name == "antichain.check"),
            "cegar.proof_size": row.verdict.stats.get("proof_size", 0),
            "solver.queries": (info_sum(sub, "solver.check_sat", "queries")
                               + info_sum(sub, "solver.batch", "queries")),
            "proofdb.edges": extends[-1].info["edges"] if extends else 0,
            "antichain.cells": info_sum(sub, "antichain.check", "cells"),
            "antichain.fmax_calls": info_sum(sub, "antichain.check", "fmax_calls"),
            "automata.api_states": info_sum(sub, "automata.determinize", "states"),
        }

    every = tracer.spans
    queries = (info_sum(every, "solver.check_sat", "queries")
               + info_sum(every, "solver.batch", "queries"))
    unsat = (info_sum(every, "solver.check_sat", "unsat")
             + info_sum(every, "solver.batch", "unsat"))
    fmax = info_sum(every, "antichain.check", "fmax_calls")
    m = {
        "frontend.load_program_s": incl["frontend.load_program"],
        "frontend.alphabet": info_sum(every, "frontend.load_program", "alphabet"),
        "frontend.program_states": info_sum(every, "frontend.load_program", "states"),
        "proofdb.extend_s": incl["proofdb.extend"],
        "proofdb.extend_calls": calls["proofdb.extend"],
        "proofdb.triples": tracer.cache_lookups,
        "proofdb.cache_hit_frac": tracer.cache_hits / max(tracer.cache_lookups, 1),
        "proofdb.interpolate_s": incl["proofdb.interpolate"],
        "proofdb.feasible_s": incl["proofdb.feasible"],
        "solver.unsat_frac": unsat / max(queries, 1),
        "solver.batch_wait_s": incl["solver.batch"],
        "solver.check_sat_s": incl["solver.check_sat"],
        "solver.spawn_s": incl["solver.spawn"],
        "solver.spawns": calls["solver.spawn"],
        "smtserver.cpu_s": sum(r.children_cpu_s for r in rows),
        "automata.determinize_s": incl["automata.determinize"],
        "automata.determinize_calls": calls["automata.determinize"],
        "antichain.check_s": incl["antichain.check"],
        "antichain.births_per_fmax": (info_sum(every, "antichain.check", "births")
                                      / max(fmax, 1)),
        "antichain.extract_s": incl["antichain.extract"],
        "cegar.revalidate_s": incl["cegar.revalidate"],
        "trace.accounting_gap_frac": worst_gap,
    }
    for layer in ("cegar", "proofdb", "solver", "automata", "antichain"):
        m[f"{layer}.self_s"] = layer_self[layer]
    for key in EXACT_COUNTS:
        m[key] = sum(c[key] for c in counts.values())
    return m, counts


# ------------------------------------------------------ repeat-exactly checks

def code_key(root: str) -> str:
    """Hash of the verifier, the bundled programs and this benchmark."""
    h = hashlib.sha256()
    for top in ("src", "benchmarks", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for name in sorted(files):
                if name.endswith((".py", ".imp", ".expect")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


class RepeatLedger:
    """Counts seen by earlier passes and earlier runs of the same code.

    Runs of one code version share a file under perfbench/out/, so a count
    that moves with the seed or between runs fails the run that sees it.
    """

    def __init__(self, root: str):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        self.path = os.path.join(HERE, "out", f"counts-{code_key(root)}.json")
        self.seen = {"fingerprint": {}, "counts": {}}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                self.seen = json.load(fh)

    def check(self, kind: str, key: str, value) -> str | None:
        value = json.loads(json.dumps(value))
        old = self.seen[kind].setdefault(key, value)
        if old != value:
            return f"{kind} changed: {old} then {value}"
        return None

    def save(self):
        tmp = self.path + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(self.seen, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


# ------------------------------------------------------------------ report

def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def tail(values) -> str:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    if len(xs) < 11:
        return f"tail n/a ({len(xs)} samples, needs 11)"
    i = len(xs) - 11
    return f"p{100 * i / (len(xs) - 1):.0f}={xs[i]:.4g} s over {len(xs)} samples"


def print_rows(label: str, rows: list[Row]):
    for r in rows:
        v = r.verdict.verdict if r.verdict else "error"
        flag = "" if not r.problems else "  FAIL: " + "; ".join(r.problems)
        print(f"  {label:10s} {r.prog.name:32s} {v:8s} {r.seconds:8.3f} s{flag}")


def main(root: str, args) -> int:
    progs = workloads.load_workload(root, args.workload)
    ledger = RepeatLedger(root)
    setup_progs = workloads.rewrite(progs, f"{args.seed}/setup")
    setup = [] if args.trace else setup_seconds(root, setup_progs, SETUP_REPS // 2)

    def untraced(seed):
        spans.assert_unwrapped()
        return run_pass(progs, seed)

    def traced(seed):
        with spans.Tracer() as tracer:
            rows = run_pass(progs, seed)
        return rows, tracer

    if args.trace:
        pairs = repeated_passes(args.seconds, lambda k: (
            untraced(f"{args.seed}/{2 * k}"), traced(f"{args.seed}/{2 * k + 1}")))
        passes = [p for plain, (rows, _) in pairs for p in (plain, rows)]
    else:
        passes = repeated_passes(args.seconds,
                                 lambda k: untraced(f"{args.seed}/{k}"))
        setup += setup_seconds(root, setup_progs, SETUP_REPS - SETUP_REPS // 2)

    for rows in passes:
        for r in rows:
            if r.verdict is not None:
                bad = ledger.check("fingerprint", f"{args.workload}:{r.prog.name}",
                                   r.fingerprint())
                if bad:
                    r.problems.append(bad)

    if args.trace:
        per_pass = []
        for _, (rows, tracer) in pairs:
            m, counts = layer_metrics(tracer, rows)
            for r in rows:
                if r.prog.name in counts:
                    bad = ledger.check("counts", f"{args.workload}:{r.prog.name}",
                                       counts[r.prog.name])
                    if bad:
                        r.problems.append(bad)
            per_pass.append(m)
        tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
        plain_wall = statistics.median(sum(r.seconds for r in p) for p, _ in pairs)
        traced_wall = statistics.median(sum(r.seconds for r in rows)
                                        for _, (rows, _) in pairs)
        values = {k: [m[k] for m in per_pass] for k in per_pass[0]}
        values["trace.overhead_frac"] = [traced_wall / plain_wall - 1]
        units = {k: unit_of(k) for k in values}
    else:
        values = {
            "wall_s": [sum(r.seconds for r in p) for p in passes],
            "verdict_s_geomean": [geomean([r.seconds for r in p]) for p in passes],
            "cpu_s": [sum(r.cpu_s for r in p) for p in passes],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
            "setup_s": setup,
        }
        units = {"wall_s": "s", "verdict_s_geomean": "s", "cpu_s": "s",
                 "peak_rss_mb": "MB", "setup_s": "s"}
    ledger.save()

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.problems)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(passes)} passes")
    for k, rows in enumerate(passes):
        print_rows(f"pass {k}", rows)
    print(f"fail_frac {failed / attempted:.4f} ({failed}/{attempted} programs)")
    if not args.trace:
        print(f"time to verdict per program: median "
              f"{statistics.median(r.seconds for p in passes for r in p):.4g} s, "
              + tail([r.seconds for p in passes for r in p]))
    metrics = {}
    for k, vals in values.items():
        med = statistics.median(vals)
        print(f"  {k:30s} {med:12.6g} {units[k]:6s} {spread(vals)}")
        metrics[k] = {"value": med, "unit": units[k]}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_per_fmax"):
        return "ratio"
    return "count"
