"""Operator entry points: demo, protocol runs, rate tables, crossover
reports, security audits, and the server daemon.

Exit codes: 0 success/verified, 1 verification failure, 2 invalid
parameters, 3 transport failure."""

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import analysis, proto
from .baseline import make_traditional, trad_run
from .demo import run_demo
from .errors import (
    ConnectionFailed,
    FtpError,
    InvalidParams,
    MalformedFrame,
    ProtocolError,
    ProtocolTimeout,
    VersionMismatch,
)
from .fields import make_base_field
from .ftp import build_scheme, cost_report, security_audit
from .matrices import mat_mul, random_mat

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARAMS = 2
EXIT_TRANSPORT = 3

_TRANSPORT_ERRORS = (
    ConnectionFailed,
    ProtocolError,
    ProtocolTimeout,
    MalformedFrame,
    VersionMismatch,
)


def _fail(exc):
    """Machine-readable error line on stderr, then the mapped exit code."""
    print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
    if isinstance(exc, _TRANSPORT_ERRORS):
        return EXIT_TRANSPORT
    return EXIT_PARAMS


def _rat(x):
    return analysis.format_rational(Fraction(x))


def _parse_primes(text):
    return tuple(int(p) for p in str(text).replace(":", ",").split(",") if p != "")


def _parse_endpoints(text):
    out = []
    for part in str(text).split(","):
        host, _, port = part.rpartition(":")
        out.append((host, int(port)))
    return out


# -- config file ---------------------------------------------------------------

def _load_config(path, schema):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in schema:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = schema[key](raw.strip())
    return values


def _merge(args, schema, defaults):
    """Effective option values: flag > config file > default."""
    config = {}
    if getattr(args, "config", None):
        config = _load_config(args.config, schema)
    out = {}
    for key in schema:
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in config:
            out[key] = config[key]
        else:
            out[key] = defaults.get(key)
    return out


def _add_schema_flags(sub, schema):
    sub.add_argument("--config", help="key=value file; flags override it")
    for key, caster in schema.items():
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, type=caster, default=None)


# -- subcommands -----------------------------------------------------------------

_DEMO_SCHEMA = {"a": int, "b": int, "c": int, "seed": int}
_DEMO_DEFAULTS = {"a": 2, "b": 2, "c": 2, "seed": 0}


def _cmd_demo(args):
    opts = _merge(args, _DEMO_SCHEMA, _DEMO_DEFAULTS)
    res = run_demo(a=opts["a"], b=opts["b"], c=opts["c"], seed=opts["seed"])
    print(f"demo a={res.a} b={res.b} c={res.c} seed={opts['seed']}")
    print("identity alpha^4*(S1+S2+S3+S4) + alpha^5*S2 + alpha^10*S3 + alpha^15*S4 = AB:",
          "holds" if res.verified else "VIOLATED")
    print(f"upload_symbols={res.upload_symbols} download_symbols={res.download_symbols} (F_4 symbols)")
    print(f"R  = {_rat(res.ftp_rate)}")
    print(f"R' = {_rat(res.traditional_rate)}")
    print("AB verified" if res.verified else "AB MISMATCH")
    return EXIT_OK if res.verified else EXIT_VERIFY


_RUN_SCHEMA = {
    "L": int, "T": int, "primes": _parse_primes,
    "q0_p": int, "q0_d": int,
    "a": int, "b": int, "c": int, "seed": int,
    "endpoints": _parse_endpoints,
}
_RUN_DEFAULTS = {
    "L": 1, "T": 1, "primes": (2,), "q0_p": 5, "q0_d": 1,
    "a": 2, "b": 2, "c": 2, "seed": 0, "endpoints": None,
}


def _build_from_opts(opts):
    base = make_base_field(opts["q0_p"], opts["q0_d"])
    return build_scheme(
        L=opts["L"], T=opts["T"], primes=opts["primes"], base=base,
        a=opts["a"], b=opts["b"], c=opts["c"],
    )


def _checksum(scheme, m):
    return hashlib.sha256(proto.mat_to_bytes(scheme.tower, m)).hexdigest()[:16]


def _cmd_run(args):
    opts = _merge(args, _RUN_SCHEMA, _RUN_DEFAULTS)
    start = time.perf_counter_ns()
    scheme = _build_from_opts(opts)
    setup_s = (time.perf_counter_ns() - start) / 1e9
    seed = opts["seed"]
    A = random_mat(opts["a"], opts["b"], scheme.tower, seed=seed * 2 + 1)
    B = random_mat(opts["b"], opts["c"], scheme.tower, seed=seed * 2 + 2)
    if opts["endpoints"]:
        product, ledger = proto.run_remote(opts["endpoints"], scheme, A, B, seed=seed)
        mode = "remote"
    else:
        product, ledger = proto.run_inprocess(scheme, A, B, seed=seed)
        mode = "in-process"
    verified = product.eq(mat_mul(A, B))
    report = cost_report(scheme)
    ledger_ok = (ledger.upload_symbols == report.upload_symbols
                 and ledger.download_symbols == report.download_symbols)
    print(f"run mode={mode} L={opts['L']} T={opts['T']} "
          f"primes={':'.join(map(str, opts['primes']))} "
          f"q0={opts['q0_p']}^{opts['q0_d']} seed={seed}")
    print(f"product_checksum={_checksum(scheme, product)}")
    print("oracle:", "verified" if verified else "MISMATCH")
    print(f"ledger upload={ledger.upload_symbols} formula={report.upload_symbols} "
          f"download={ledger.download_symbols} formula={report.download_symbols} "
          f"{'match' if ledger_ok else 'MISMATCH'}")
    print(f"rate={_rat(report.rate)}")
    spans = {"setup": setup_s, **ledger.spans}
    stages = ("setup", "encode", "servers", "wire", "decode")
    print("times", *(f"{k}={spans.get(k, 0.0) * 1e3:.2f}ms" for k in stages), file=sys.stderr)
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump({"spans_s": spans, "per_server": ledger.per_server, "upload_bytes":
                       ledger.upload_bytes, "download_bytes": ledger.download_bytes}, fh, indent=1)
    return EXIT_OK if verified and ledger_ok else EXIT_VERIFY


def _cmd_rates(args):
    rows = []
    for spec_item in args.grid:
        fields = dict(kv.split("=", 1) for kv in spec_item.split(","))
        missing = {"a", "b", "c", "L", "T", "primes"} - fields.keys()
        if missing:
            raise ValueError(f"grid row {spec_item!r} lacks {', '.join(sorted(missing))}")
        rows.append(analysis.RateParams(
            a=int(fields["a"]), b=int(fields["b"]), c=int(fields["c"]),
            L=int(fields["L"]), T=int(fields["T"]),
            primes=_parse_primes(fields["primes"]),
            n_prime=int(fields["n_prime"]) if "n_prime" in fields else None,
            l_prime=int(fields["l_prime"]) if "l_prime" in fields else None,
        ))
    table = analysis.rates_table(rows)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(table)
        print(f"wrote {len(rows)} rows to {args.csv}")
    else:
        sys.stdout.write(table)
    return EXIT_OK


_CROSS_SCHEMA = {
    "L": int, "T": int, "primes": _parse_primes,
    "n_prime": int, "eta": analysis.parse_rational,
}
_CROSS_DEFAULTS = {"L": 1, "T": 1, "primes": (5,), "n_prime": 2,
                   "eta": Fraction(2)}


def _cmd_crossover(args):
    opts = _merge(args, _CROSS_SCHEMA, _CROSS_DEFAULTS)
    report = analysis.crossover_K(
        L=opts["L"], T=opts["T"], n_prime=opts["n_prime"],
        eta=opts["eta"], primes=opts["primes"],
    )
    print(f"crossover L={opts['L']} T={opts['T']} N'={opts['n_prime']} "
          f"eta={_rat(opts['eta'])} primes={':'.join(map(str, report.primes))}")
    print(f"N_L={report.N_L}")
    for name, ok in report.hypotheses_ok.items():
        print(f"hypothesis {name}: {'ok' if ok else 'FAIL'}")
    print(f"K = {_rat(report.K)}")
    honest = analysis.rate_crossover(
        L=opts["L"], T=opts["T"], primes=opts["primes"], n_prime=opts["n_prime"]
    )
    print(f"rate_crossover_threshold = {_rat(honest)}")
    return EXIT_OK


_AUDIT_SCHEMA = dict(_RUN_SCHEMA, mode=str)
_AUDIT_SCHEMA.pop("endpoints")
_AUDIT_DEFAULTS = dict(_RUN_DEFAULTS, mode="rank", q0_p=2, q0_d=2, a=1, b=1, c=1)
_AUDIT_DEFAULTS.pop("endpoints")


def _cmd_audit(args):
    opts = _merge(args, _AUDIT_SCHEMA, _AUDIT_DEFAULTS)
    scheme = _build_from_opts(opts)
    report = security_audit(scheme, mode=opts["mode"])
    print(f"audit mode={report.mode} checks={report.checks}")
    for failure in report.failures:
        print(f"fail: {failure}")
    print("audit:", "pass" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_serve(args):
    if not 0 <= args.port <= 65535:
        raise InvalidParams(f"port {args.port} is outside 0..65535")
    print(f"serving on {args.host}:{args.port}", flush=True)
    proto.serve(args.port, host=args.host)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="ftp-sdmm")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("demo", help="pinned small-field showcase")
    _add_schema_flags(p, _DEMO_SCHEMA)
    p.set_defaults(func=_cmd_demo)

    p = subs.add_parser("run", help="full protocol run, in-process or remote")
    _add_schema_flags(p, _RUN_SCHEMA)
    p.add_argument("--trace", metavar="FILE.json",
                   help="write the stage times, setup's with them, and the ledger as JSON")
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("rates", help="exact-rational rate table as CSV")
    p.add_argument("--grid", action="append", required=True,
                   metavar="a=..,b=..,c=..,L=..,T=..,primes=p1:p2[,n_prime=..]",
                   help="one table row; repeatable")
    p.add_argument("--csv", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_rates)

    p = subs.add_parser("crossover", help="aspect-ratio crossover report")
    _add_schema_flags(p, _CROSS_SCHEMA)
    p.set_defaults(func=_cmd_crossover)

    p = subs.add_parser("audit", help="security audit (rank or exhaustive)")
    _add_schema_flags(p, _AUDIT_SCHEMA)
    p.set_defaults(func=_cmd_audit)

    p = subs.add_parser("serve", help="run a computing-node daemon")
    p.add_argument("--port", type=int, default=7420)
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FtpError, ValueError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
