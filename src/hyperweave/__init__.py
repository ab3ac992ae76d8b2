"""hyperweave: a k-safety verifier.

Safety of a k-fold parallel self-composition is established by searching
simultaneously for a sleep-set reduction of the composed program and an
assertion proof covering it, via looping-tree-automaton emptiness with an
antichain-optimized fixpoint inside a counterexample-guided refinement loop.
"""

from .antichain import Strategy, check, extract_counterexamples
from .cegar import Safe, Unknown, Unsafe, VerifyConfig, progress_audit, verify
from .frontend import (compute_dependence, load_program, lower_to_dfa,
                       parse_program)
from .reduction import LINEAR, PARTITION, OrderSource, sleep_reduction_lta

__all__ = [
    "Strategy", "check", "extract_counterexamples",
    "Safe", "Unsafe", "Unknown", "VerifyConfig", "progress_audit", "verify",
    "compute_dependence", "load_program", "lower_to_dfa", "parse_program",
    "LINEAR", "PARTITION", "OrderSource", "sleep_reduction_lta",
]

__version__ = "0.1.0"
