"""Command-line driver: verify one program, or run a benchmark directory.

Exit codes of verify: 0 safe, 1 unsafe, 2 unknown, 64 usage error.
Exit codes of bench: 0 when every row matches its .expect, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time

from . import cegar, exprs, proofdb
from .antichain import Strategy
from .automata import LazyDfa
from .frontend import ParseError, compute_dependence, load_program
from .reduction import LINEAR, PARTITION, OrderSource

EXIT_SAFE = 0
EXIT_UNSAFE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_MISMATCH = 1


def formula_to_json(f):
    if f[0] in ("true", "false"):
        return [f[0]]
    if f[0] in ("le", "eq", "ne"):
        return [f[0], [[v, a] for v, a in f[1]], f[2]]
    return [f[0], [formula_to_json(g) for g in f[1]]]


def formula_from_json(obj):
    tag = obj[0]
    if tag in ("true", "false"):
        return (tag,)
    if tag in ("le", "eq", "ne"):
        return (tag, tuple((v, a) for v, a in obj[1]), obj[2])
    return (tag, tuple(formula_from_json(g) for g in obj[1]))


def _build_config(options: dict) -> cegar.VerifyConfig:
    """The VerifyConfig named by option strings, keyed as in a .expect file
    and as verify's flags; an absent key takes the .expect default."""
    timeout = float(options.get("timeout", 120))
    if not 0 < timeout < float("inf"):     # also false for nan
        raise ValueError(f"timeout must be finite and positive, not {timeout}")
    return cegar.VerifyConfig(
        strategy=Strategy.parse(options.get("strategy", "bpe-rr")),
        orders=LINEAR if options.get("orders") == "linear" else PARTITION,
        use_antichain=options.get("antichain", "on") == "on",
        timeout=timeout,
        interpolation=options.get("interpolation", "farkas"),
    )


def _verdict_json(verdict, alphabet) -> dict:
    out = {"verdict": verdict.verdict, "stats": verdict.stats,
           "rounds": [r.as_dict() for r in verdict.rounds]}
    if verdict.verdict == "safe":
        out["proof"] = [{"display": exprs.fmt(f), "formula": formula_to_json(f)}
                        for f in verdict.proof]
        out["edges"] = sorted(map(list, proofdb.unpack_edges(
            verdict.edges, alphabet, len(verdict.proof))))
    elif verdict.verdict == "unsafe":
        out["trace"] = [s.display for s in verdict.trace]
        out["trace_ids"] = [s.id for s in verdict.trace]
        out["model"] = verdict.model
    else:
        out["reason"] = verdict.reason
    return out


def _print_text(verdict, alphabet=None):
    """With alphabet given, a safe verdict's automaton is printed too."""
    print(f"verdict: {verdict.verdict.upper()}")
    if verdict.verdict == "safe":
        n = len(verdict.proof)
        print(f"proof size: {n}")
        print("assertions:")
        for i, f in enumerate(verdict.proof):
            print(f"  [{i}] {exprs.fmt(f)}")
        if alphabet is not None:
            edges = proofdb.unpack_edges(verdict.edges, alphabet, n)
            api = LazyDfa(proofdb.proof_nfa(n, alphabet, edges), alphabet)
            # rows in numbering order (dead ones too: expanding a row
            # numbers its targets), built only up to the line cap
            print("proof automaton (determinized):")
            lines, q = 0, 0
            while lines < 200 and q < api.n:
                for j, t in enumerate(api.row(q)):
                    if api.is_live(t):
                        mark = " (accepting)" if api.is_final(t) else ""
                        print(f"  {q} -> {t} [label=\"{api.alphabet[j].display}\"]{mark}")
                        lines += 1
                        if lines >= 200:
                            print("  ... (truncated)")
                            break
                q += 1
    elif verdict.verdict == "unsafe":
        print("counterexample trace:")
        for s in verdict.trace:
            print(f"  {s.display}")
        print("model (initial state):")
        for k, val in sorted(verdict.model.items()):
            print(f"  {k} = {val}")
    else:
        print(f"reason: {verdict.reason}")
    print(f"rounds: {len(verdict.rounds)}")
    for key in ("proof_size", "solver_queries"):
        if key in verdict.stats:
            print(f"{key}: {verdict.stats[key]}")


def _write_stats(path: str, verdict):
    with open(path, "w") as fh:
        for rec in verdict.rounds:
            fh.write(json.dumps(rec.as_dict()) + "\n")


def check_dependence_soundness(dfa, dep, solver) -> list:
    """SMT check that every independent pair commutes; returns violations."""
    bad = []
    stmts = dfa.alphabet
    for i, a in enumerate(stmts):
        for b in stmts[i + 1:]:
            if dep.dependent(a.id, b.id):
                continue
            if not _commutes(a, b, solver):
                bad.append((a.id, b.id))
    return bad


def _commutes(a, b, solver) -> bool:
    from .proofdb import ssa_encode

    tags = {}
    for order, tag in (((a, b), "!ab"), ((b, a), "!ba")):
        enc = ssa_encode(list(order))
        ren = {}
        for v in enc.variables:
            ren[v] = v.replace("@", tag + "_") if "@" in v else v
        conj = [exprs.rename(f, ren) for pos in enc.conjuncts for f in pos]
        finals = {}
        for base, k in enc.snapshots[-1].items():
            finals[base] = (f"{base}{tag}_{k}" if k else base)
        tags[tag] = (conj, finals)
    conj = tags["!ab"][0] + tags["!ba"][0]
    diffs = []
    vars_all = set(tags["!ab"][1]) | set(tags["!ba"][1])
    for v in vars_all:
        va = tags["!ab"][1].get(v, v)
        vb = tags["!ba"][1].get(v, v)
        if va != vb:
            diffs.append(exprs.atom_from_cmp("!=", exprs.var(va), exprs.var(vb)))
    if not diffs:
        return True
    res, _ = solver.check_sat(conj + [exprs.c_or(diffs)])
    return res == "unsat"


def cmd_verify(args) -> int:
    cfg = _build_config(vars(args))
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        dfa, dep, ast = load_program(text, atomic=args.atomic_blocks)
    except (ParseError, exprs.NonlinearError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.dump_program:
        with open(args.dump_program, "w") as fh:
            fh.write(dfa.to_dot("program"))
    if args.check_dependence:
        try:
            with proofdb.SolverClient() as solver:
                bad = check_dependence_soundness(dfa, dep, solver)
        except proofdb.SolverError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_UNKNOWN
        if bad:
            print(f"dependence unsound for pairs: {bad}", file=sys.stderr)
            return EXIT_UNKNOWN
    verdict = cegar.verify(dfa, dep, cfg)
    if args.stats:
        _write_stats(args.stats, verdict)
    if args.format == "json":
        print(json.dumps(_verdict_json(verdict, dfa.alphabet), indent=2))
    else:
        _print_text(verdict, None if args.no_proof_dfa else dfa.alphabet)
    return {"safe": EXIT_SAFE, "unsafe": EXIT_UNSAFE}.get(verdict.verdict,
                                                          EXIT_UNKNOWN)


def run_benchmark(path: str, overrides: dict | None = None):
    """Run one .imp benchmark with its .expect sidecar; returns a result row."""
    with open(path) as fh:
        text = fh.read()
    expect_path = os.path.splitext(path)[0] + ".expect"
    expect: dict = {}
    if os.path.exists(expect_path):
        with open(expect_path) as fh:
            expect = json.load(fh)
    if overrides:
        expect = {**expect, **overrides}
    cfg = _build_config(expect)
    t0 = time.monotonic()
    dfa, dep, _ = load_program(text, atomic=expect.get("atomic_blocks", False))
    verdict = cegar.verify(dfa, dep, cfg)
    total = time.monotonic() - t0
    row = {
        "name": os.path.splitext(os.path.basename(path))[0],
        "group": os.path.basename(os.path.dirname(path)),
        "verdict": verdict.verdict,
        "expected": expect.get("verdict", ""),
        "ok": verdict.verdict == expect.get("verdict", verdict.verdict),
        "proof_size": verdict.stats.get("proof_size", 0),
        "rounds": len(verdict.rounds),
        "construction_time": round(sum(r.construction_time for r in verdict.rounds), 4),
        "checking_time": round(sum(r.checking_time for r in verdict.rounds), 4),
        "total_time": round(total, 4),
        "progress_ok": cegar.progress_audit(verdict.rounds),
    }
    return row, verdict


def cmd_bench(args) -> int:
    paths = []
    for root, _, files in os.walk(args.dir):
        for name in sorted(files):
            if name.endswith(".imp"):
                paths.append(os.path.join(root, name))
    paths.sort()
    matrix = [{}]
    if args.strategies or args.antichain_matrix:
        strategies = (args.strategies or "").split(",") if args.strategies else [None]
        engines = (args.antichain_matrix or "").split(",") if args.antichain_matrix else [None]
        matrix = []
        for s in strategies:
            for e in engines:
                cfg = {}
                if s:
                    cfg["strategy"] = s.strip()
                if e:
                    cfg["antichain"] = e.strip()
                matrix.append(cfg)
    rows = []
    stats = open(args.stats, "w") if args.stats else contextlib.nullcontext()
    with stats as stats_fh:
        for path in paths:
            for overrides in matrix:
                tag = ",".join(f"{k}={v}" for k, v in overrides.items())
                try:
                    row, verdict = run_benchmark(path, overrides or None)
                except Exception as e:  # a broken benchmark must not kill the harness
                    rows.append({"name": os.path.basename(path), "group": "",
                                 "config": tag, "verdict": f"error: {e}",
                                 "expected": "", "ok": False, "proof_size": 0,
                                 "rounds": 0, "construction_time": 0,
                                 "checking_time": 0, "total_time": 0,
                                 "progress_ok": False})
                    continue
                row["config"] = tag
                rows.append(row)
                flag = "" if row["ok"] else "  <-- MISMATCH"
                label = row["name"] if not tag else f"{row['name']}[{tag}]"
                print(f"{label:40s} {row['verdict']:8s} |Pi|={row['proof_size']:<4d} "
                      f"rounds={row['rounds']:<3d} total={row['total_time']:.2f}s{flag}")
                if stats_fh:
                    for rec in verdict.rounds:
                        stats_fh.write(json.dumps({"benchmark": row["name"],
                                                   "config": tag,
                                                   **rec.as_dict()}) + "\n")

    groups: dict = {}
    for row in rows:
        groups.setdefault(row["group"], []).append(row)
    summary = []
    for group, members in sorted(groups.items()):
        n = len(members)
        summary.append({
            "group": group, "count": n,
            "proof_size": round(sum(m["proof_size"] for m in members) / n, 1),
            "rounds": round(sum(m["rounds"] for m in members) / n, 1),
            "construction_time": round(sum(m["construction_time"] for m in members) / n, 3),
            "checking_time": round(sum(m["checking_time"] for m in members) / n, 3),
            "total_time": round(sum(m["total_time"] for m in members) / n, 3),
            "all_ok": all(m["ok"] for m in members),
        })
    if args.out:
        with open(args.out + ".json", "w") as fh:
            json.dump({"rows": rows, "groups": summary}, fh, indent=2)
        with open(args.out + ".csv", "w", newline="") as fh:
            if rows:
                w = csv.DictWriter(fh, fieldnames=list(rows[0]))
                w.writeheader()
                w.writerows(rows)
    matching = sum(1 for r in rows if r["ok"])
    print(f"\n{len(rows)} benchmarks, {matching} matching expectations")
    return EXIT_SAFE if matching == len(rows) else EXIT_MISMATCH


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hyperweave",
                                description="k-safety verifier over sleep-set "
                                            "reductions and assertion proofs")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify one program")
    pv.add_argument("file")
    pv.add_argument("--strategy", default="bpe-rr",
                    help="naive | pe | bpe-rr | bpe-lN | bpe-mN (N >= 1)")
    pv.add_argument("--orders", choices=["linear", "partition"],
                    default="partition")
    pv.add_argument("--antichain", choices=["on", "off"], default="on")
    pv.add_argument("--atomic-blocks", action="store_true")
    pv.add_argument("--timeout", type=float, default=300.0)
    pv.add_argument("--stats", default=None, help="write per-round JSONL here")
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.add_argument("--interpolation", choices=["wp", "farkas"],
                    default="farkas")
    pv.add_argument("--check-dependence", action="store_true")
    pv.add_argument("--dump-program", default=None,
                    help="write the program DFA in dot format")
    pv.add_argument("--no-proof-dfa", action="store_true",
                    help="skip printing the determinized proof automaton")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="run a directory of .imp benchmarks")
    pb.add_argument("dir")
    pb.add_argument("--stats", default=None)
    pb.add_argument("--out", default=None, help="report file prefix")
    pb.add_argument("--strategies", default=None,
                    help="comma list overriding each benchmark's strategy")
    pb.add_argument("--antichain-matrix", default=None,
                    help="comma list from {on,off} to cross with benchmarks")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
