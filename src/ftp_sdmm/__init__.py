"""Trace-based secure distributed matrix multiplication over tower fields.

Encode A and B into randomized polynomial shares, let untrusted servers
multiply evaluations and return subfield traces, and decode the exact
product while any T colluding servers learn nothing.  Includes exact
rational cost/rate analysis, a byte-accounted wire protocol with an
in-process simulator and a TCP runner, and classical baselines."""

from .analysis import (
    RateParams,
    crossover_K,
    download_ratio,
    ftp_rate,
    lemma4_check,
    prime_search,
    rate_crossover,
    rates_table,
)
from .baseline import make_traditional, matdot_run, trad_run
from .demo import run_demo
from .errors import FtpError
from .fields import (
    BaseField,
    TowerField,
    make_base_field,
    make_tower,
    trace_dual_basis,
    trace_to_subfield,
)
from .ftp import (
    CostReport,
    SchemeParams,
    build_scheme,
    cost_report,
    decode,
    encode,
    security_audit,
    server_compute,
)
from .matrices import Mat, SplitMix64, mat_mul, partition_inner, random_mat
from .poly import (
    EvalDomain,
    Poly,
    annihilator,
    dual_weights,
    eval_poly,
    lagrange_interpolate,
)
from .proto import Server, TrafficLedger, run_inprocess, run_remote

__version__ = "0.1.0"

__all__ = [
    "BaseField", "CostReport", "EvalDomain", "FtpError", "Mat", "Poly",
    "RateParams", "SchemeParams", "Server", "SplitMix64", "TowerField",
    "TrafficLedger", "annihilator", "build_scheme",
    "cost_report", "crossover_K", "decode", "download_ratio", "dual_weights",
    "encode", "eval_poly", "ftp_rate", "lagrange_interpolate",
    "lemma4_check", "make_base_field", "make_tower", "make_traditional",
    "mat_mul", "matdot_run", "partition_inner", "prime_search",
    "random_mat", "rate_crossover", "rates_table", "run_demo",
    "run_inprocess", "run_remote", "security_audit",
    "server_compute", "trace_dual_basis", "trace_to_subfield", "trad_run",
]
