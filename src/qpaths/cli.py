"""Command-line front end.

Every subcommand is one ``run(args) -> (code, config, q_mode, result, table)``
function; ``_run`` wraps its result in the envelope {command, config,
library_version, q_mode, result} and ``_emit`` prints it as JSON with sorted
keys, so identical invocations produce byte-identical output.  One writer,
``_write_json``, gives both JSON forms, with exact polynomials reaching it as
``QPoly`` and ``QRational`` values.  ``--format csv`` prints the tabular part
of the result as CSV instead.  ``sample`` emits plain path-text lines by
default.  q values are rational text ("1/2", "0.5"); evaluating at the
nearest float requires the explicit --float flag.  Exact values print in
full, whatever their length.  Exit codes: 0 success, 1 verification failure
or stdout closed by its reader before all of the output was written, 2
usage or precondition error, or a request too large for this machine (an
``OverflowError`` or ``MemoryError``).

A sweep file (``--sweep``) holds lines ``flag = value, value, ...``; the
cartesian product of all listed flags is run in grid order, one compact
JSON line per grid point (``--format`` does not apply).  A swept flag needs
no value on the command line; one given there is overridden by the grid.
A flag listed twice or with no values, or one the subcommand lacks, is a
usage error, and every grid point is parsed before the first one runs.

``main`` builds its argparse parser once per process and reuses it for every
call; ``build_parser()`` returns a new parser each time.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .correlations import (
    SPIN_DOWN,
    SPIN_UP,
    CorrelationQuery,
    FluctuationQuery,
    PathSampler,
    TailBound,
    exp_bound,
    fluctuation_distribution,
    multipoint_bound_regime,
    multipoint_prob,
)
from .errors import CapExceeded, DomainError
from .partition import DEFAULT_Q_GRID, z_closed, z_recursive
from .paths import BoxSpec, oracle_partition
from .qpoly import QPoly, QRational
from .reduction2d import _check_shape, compositions, z2d_oracle, z2d_product, z2d_reduction
from .verify import run_suites


@contextmanager
def _any_length_ints():
    """Lift the int/str conversion digit limit (Python 3.10.7+) inside the block."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, or Python < 3.10.7
    set_limit = sys.set_int_max_str_digits if old else (lambda _: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _parse_q(text: str, as_float: bool):
    # Bound q's digits as written before Fraction expands them: 1e-1000000
    # is a million-digit denominator.  A bad exponent is counted by length.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    mantissa, _, exponent = text.lower().partition("e")
    try:
        shift = abs(int(exponent or 0))
    except ValueError:
        shift = len(exponent)
    digits = max(sum(map(str.isdigit, side)) for side in mantissa.split("/")) + shift
    if limit and digits > limit:
        raise ValueError(f"q must have at most {limit} digits in numerator and denominator")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"q must be a rational with a nonzero denominator, got {text}") from None
    except ValueError:
        raise ValueError(f"q must be a rational such as 1/2 or 0.5, got {text!r}") from None
    if not 0 < value < 1:
        raise DomainError(f"q must lie strictly in (0, 1), got {text}")
    if as_float:
        value = float(value)  # correctly rounded: "0.5" and "1/2" give the same float
        if not 0 < value < 1:
            raise DomainError(f"q must lie strictly in (0, 1) as a float; {text} rounds to {value}")
    return value


def _check_sizes(args, *names: str):
    """Reject a negative value of any of the named size flags (zero is allowed)."""
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


def _parse_sites(text: str) -> list[tuple[int, str]]:
    out = []
    for chunk in text.split(","):
        site, _, spin = chunk.strip().partition(":")
        try:
            x = int(site)
        except ValueError:
            x = None
        if x is None or spin not in (SPIN_DOWN, SPIN_UP):
            raise ValueError(f"bad --sites entry {chunk!r}; expected e.g. '3:down'")
        out.append((x, spin))
    return out


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's names


def _write_json(value, write: Callable[[str], object], nl: str, step: str) -> None:
    """Pass the JSON text of ``value`` to ``write`` in pieces, where ``nl``
    starts a line at its depth and ``step`` indents one level: ("\\n", "  ")
    gives ``json.dumps(sort_keys=True, indent=2, default=str)`` byte for
    byte, and ("", "") the same call with ``separators=(",", ":")``.

    A ``QPoly`` is its term list ``[[exponent, "coefficient"], ...]`` and a
    ``QRational`` is ``{"den": ..., "num": ...}``.  Dict keys must be str:
    envelopes have no others, and json's text for other keys would need its
    own sort and key conversion.
    """
    if isinstance(value, str):
        write(_quote(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        write(_NONFINITE.get(text, text))
    elif isinstance(value, QPoly):
        # Most of a large envelope: one join for the whole term list.
        inner, term = nl + step, nl + step + step
        write("[" + inner + ("," + inner).join(
            f'[{term}{e},{term}"{c}"{inner}]' for e, c in value.terms()
        ) + nl + "]" if value else "[]")
    elif isinstance(value, QRational):
        _write_json({"den": value.den, "num": value.num}, write, nl, step)
    elif isinstance(value, (list, tuple)) and value and all(type(i) is int for i in value):
        # A list of ints (a composition) in one write: ``python -u`` makes each write a syscall.
        write("[" + nl + step + ("," + nl + step).join(map(int.__repr__, value)) + nl + "]")
    elif isinstance(value, (list, tuple)):
        inner = nl + step
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, write, inner, step)
            sep = "," + inner
        write(nl + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = nl + step
        colon = ": " if step else ":"
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            write(sep + _quote(key) + colon)
            _write_json(value[key], write, inner, step)
            sep = "," + inner
        write(nl + "}" if value else "{}")
    else:
        write(_quote(str(value)))


def _emit(args, envelope: dict, table: Optional[tuple[list[str], Iterable[list]]]):
    """Print one result: a compact JSON line for a sweep point, else in ``--format``.

    Both JSON forms come from ``_write_json``, which writes as it goes, with
    the int-to-str digit limit lifted so exact values of any length print.
    Every refusal is raised in ``run``, before anything is written; a
    terminal is line-buffered, so there output is flushed line by line.
    """
    sweep = getattr(args, "sweep", None)
    with _any_length_ints():
        if not sweep and args.format == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(table[0])
            writer.writerows(table[1])
        elif not sweep and args.format == "text":
            for line in envelope["result"]["paths"]:
                print(line)
        else:
            _write_json(envelope, sys.stdout.write, "" if sweep else "\n", "" if sweep else "  ")
            sys.stdout.write("\n")


# -- subcommands ---------------------------------------------------------------


def _run_partition(args) -> tuple:
    _check_sizes(args, "cap")
    if args.float and args.eval is None:
        raise ValueError("--float needs --eval")
    if args.oracle:
        poly = oracle_partition(BoxSpec.sector(args.n, args.m), cap=args.cap)
        method = "oracle"
    elif args.recursive:
        poly = z_recursive(args.n, args.m)
        method = "recursive"
    else:
        poly = z_closed(args.n, args.m)
        method = "closed"
    q = _parse_q(args.eval, args.float) if args.eval is not None else None
    q_mode = None if q is None else ("float" if args.float else "exact")
    result = {"polynomial": poly, "value": None if q is None else poly.evaluate(q)}
    config = {"n": args.n, "m": args.m, "method": method, "eval": args.eval}
    rows = ([e, c] for p in [poly] for e, c in p.terms())  # read only when csv is written
    return 0, config, q_mode, result, (["exponent", "coefficient"], rows)


def _run_correlate(args) -> tuple:
    if args.float and args.eval is None:
        raise ValueError("--float needs --eval")
    query = CorrelationQuery.build(args.n, args.m, _parse_sites(args.sites))
    prob = multipoint_prob(query)
    in_regime = multipoint_bound_regime(query)
    if args.eval is not None:
        qs = [_parse_q(args.eval, args.float)]
        q_mode = "float" if args.float else "exact"
    else:
        qs = list(DEFAULT_Q_GRID)
        q_mode = "exact"
    checks = []
    for q in qs:
        p = prob.evaluate(q)
        b = exp_bound(query, q)
        checks.append(
            {"q": str(q), "probability": p, "probability_float": float(p),
             "bound": b, "bound_float": float(b), "holds": bool(p <= b)}
        )
    result = {
        "probability": prob,
        "bound_exponent": query.bound_exponent,
        "checks": checks,
        "bound_holds": all(c["holds"] for c in checks),
        "in_regime": in_regime,
    }
    config = {"n": args.n, "m": args.m, "sites": args.sites, "eval": args.eval, "exact": args.exact}
    header = ["q", "probability", "probability_float", "bound", "bound_float", "holds", "in_regime"]
    rows = [[*c.values(), in_regime] for c in checks]
    return 0, config, q_mode, result, (header, rows)


def _run_fluctuations(args) -> tuple:
    fq = FluctuationQuery(args.N, args.L)
    q = _parse_q(args.q, args.float)
    dist = fluctuation_distribution(fq)
    rows = []
    for l, prob in dist.items():
        p = prob.evaluate(q)
        try:
            tail = TailBound(q, fq.L, abs(l)).value if l != 0 else None
        except DomainError:  # past the float range: above 1, so it bounds nothing
            tail = None
        rows.append({"l": l, "probability": p, "probability_float": float(p), "tail_bound": tail})
    result = {"sector": [fq.sector.n, fq.sector.m], "window": list(fq.window), "distribution": rows}
    config = {"N": args.N, "L": args.L, "q": args.q}
    q_mode = "float" if args.float else "exact"
    table = (["l", "probability", "probability_float", "tail_bound"], [list(r.values()) for r in rows])
    return 0, config, q_mode, result, table


def _run_sample(args) -> tuple:
    _check_sizes(args, "count")
    q = _parse_q(args.q, False)
    sampler = PathSampler(args.n, args.m, q, args.seed)
    lines = [sampler.draw().to_text() for _ in range(args.count)]
    config = {"n": args.n, "m": args.m, "q": args.q, "count": args.count, "seed": args.seed}
    return 0, config, "exact", {"paths": lines}, None


def _run_reduce2d(args) -> tuple:
    _check_shape(args.N, args.M)
    if not args.all and not 0 <= args.k <= args.N * args.M:
        raise ValueError(f"--k must lie in [0, {args.N * args.M}], got {args.k}")
    oracle = z2d_oracle(args.N, args.M)
    ks = range(len(oracle)) if args.all else [args.k]
    terms = [{"k": k, "polynomial": oracle[k]} for k in ks]
    result = {"terms": terms}
    if args.check:
        reduction, product = z2d_reduction(args.N, args.M), z2d_product(args.N, args.M)
        for k, entry in zip(ks, terms):
            entry["compositions"] = compositions(args.N, args.M, k)  # tuples print as lists
            entry["routes_agree"] = reduction[k] == product[k] == oracle[k]
        result["check_passed"] = all(entry["routes_agree"] for entry in terms)
    config = {"N": args.N, "M": args.M, "k": args.k, "all": args.all, "check": args.check}
    header = ["k", "exponent", "coefficient"]
    rows = ([t["k"], e, c] for t in terms for e, c in t["polynomial"].terms())
    code = 0 if result.get("check_passed", True) else 1
    return code, config, None, result, (header, rows)


def _run_verify(args) -> tuple:
    _check_sizes(args, "max_nm", "enum_limit", "count", "max_chain")
    q_grid = [_parse_q(tok, False) for tok in args.q_grid.split(",")]
    report = run_suites(
        [args.suite],
        max_nm=args.max_nm,
        enumeration_limit=args.enum_limit,
        random_instances=args.count,
        max_chain=args.max_chain,
        q_grid=q_grid,
        seed=args.seed,
    )
    result = report.to_json_obj()
    config = {
        "suite": args.suite,
        "max_nm": args.max_nm,
        "enum_limit": args.enum_limit,
        "count": args.count,
        "max_chain": args.max_chain,
        "q_grid": args.q_grid,
        "seed": args.seed,
    }
    header = ["name", "instances", "failure_count", "informational", "passed"]
    rows = [
        [r["name"], r["instances"], r["failure_count"], r["informational"], r["failure_count"] == 0]
        for r in result["records"]
    ]
    return (0 if report.passed else 1), config, "exact", result, (header, rows)


# -- sweep runner ----------------------------------------------------------------


def _read_sweep_file(path: str) -> dict[str, list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read sweep file {path}: {exc.strerror}") from None
    grid: dict[str, list[str]] = {}
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, values = line.partition("=")
        if not _:
            raise ValueError(f"bad sweep line {raw!r}; expected 'flag = v1, v2'")
        name = name.strip()
        if name in grid:
            raise ValueError(f"sweep flag --{name} is listed twice in {path}")
        grid[name] = [v.strip() for v in values.split(",") if v.strip()]
        if not grid[name]:
            raise ValueError(f"sweep flag --{name} has no values in {path}")
    if not grid:
        raise ValueError(f"sweep file {path} declares no flags")
    return grid


def _sweep_file(flag: argparse.ArgumentParser, argv: list[str]) -> Optional[str]:
    """The ``--sweep`` file, read by the one-flag parser ``flag`` ahead of the
    full parse, which would demand the swept flags."""
    try:
        return flag.parse_known_args(argv)[0].sweep
    except argparse.ArgumentError:  # a bare --sweep; the full parse reports it
        return None


def _run(args) -> int:
    code, config, q_mode, result, table = args.run(args)
    envelope = {"command": args.subcommand, "config": config, "library_version": __version__,
                "q_mode": q_mode, "result": result}
    _emit(args, envelope, table)
    return code


def _check_swept_flags(parser: argparse.ArgumentParser, argv: list[str], grid: dict):
    """Name a swept flag the subcommand lacks, which argparse would report as
    some other flag missing or as an unrecognized argument."""
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = argv[0] if argv else None
    if command not in subs.choices:  # not a subcommand; the parse reports it
        return
    known = subs.choices[command]._option_string_actions
    for name in grid:
        if f"--{name}" not in known:
            raise ValueError(f"sweep flag --{name} is not an option of {command}")


def _run_sweep(parser: argparse.ArgumentParser, argv: list[str], path: str) -> int:
    """Run ``argv`` once per grid point, the point's flags appended (later flags win).

    Every point is parsed before any runs, so a bad value found while parsing
    prints no output; a point that fails only when it runs leaves the output of
    the points before it printed.
    """
    grid = _read_sweep_file(path)
    _check_swept_flags(parser, argv, grid)
    points = []
    for values in itertools.product(*grid.values()):
        swept = [tok for name, value in zip(grid, values) for tok in (f"--{name}", value)]
        points.append(parser.parse_args(argv + swept))
    return max(_run(args) for args in points)


# -- parser ------------------------------------------------------------------------


def _add_format(sub, choices=("json", "csv"), default="json"):
    sub.add_argument("--format", choices=list(choices), default=default)


def _add_sweep(sub):
    sub.add_argument("--sweep", metavar="FILE", help="sweep-grid config file")


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; ``main`` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="qpaths",
        description="Exact partition functions, correlations and fluctuations "
        "of q-weighted monotone lattice paths.",
    )
    parser.add_argument("--version", action="version", version=f"qpaths {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("partition", help="canonical partition function Z(n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--recursive", action="store_true", help="corner recursion")
    group.add_argument("--oracle", action="store_true", help="brute-force enumeration")
    p.add_argument("--eval", metavar="Q", help="also evaluate at q")
    p.add_argument("--float", action="store_true", help="treat Q as a float")
    p.add_argument("--cap", type=int, default=1_000_000, help="enumeration cap for --oracle")
    _add_format(p)
    _add_sweep(p)
    p.set_defaults(run=_run_partition)

    p = subs.add_parser("correlate", help="joint spin probability and its bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sites", required=True, help="e.g. '3:down,4:up'")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--eval", metavar="Q", help="evaluate at a single q")
    group.add_argument("--exact", action="store_true", help="exact output, checks on the default q grid (default)")
    p.add_argument("--float", action="store_true", help="treat Q as a float")
    _add_format(p)
    _add_sweep(p)
    p.set_defaults(run=_run_correlate)

    p = subs.add_parser("fluctuations", help="window spin distribution with tail bounds")
    p.add_argument("--N", type=int, required=True, help="even chain length")
    p.add_argument("--L", type=int, required=True, help="even centered window length")
    p.add_argument("--q", required=True)
    p.add_argument("--float", action="store_true", help="treat q as a float")
    _add_format(p)
    _add_sweep(p)
    p.set_defaults(run=_run_fluctuations)

    p = subs.add_parser("sample", help="exact path samples, one text line each")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", required=True, help="exact rational in (0,1)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    _add_format(p, choices=("text", "json"), default="text")
    _add_sweep(p)
    p.set_defaults(run=_run_sample)

    p = subs.add_parser("reduce2d", help="two-dimensional partition functions")
    p.add_argument("--N", type=int, required=True, help="sites per diagonal")
    p.add_argument("--M", type=int, required=True, help="number of diagonals")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="total down spins")
    group.add_argument("--all", action="store_true", help="every k from 0 to N*M")
    p.add_argument("--check", action="store_true", help="cross-check all three computation routes")
    _add_format(p)
    _add_sweep(p)
    p.set_defaults(run=_run_reduce2d)

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["identities", "bounds", "fluctuations", "all"])
    p.add_argument("--max-nm", type=int, default=12, dest="max_nm")
    p.add_argument("--enum-limit", type=int, default=8, dest="enum_limit")
    p.add_argument("--count", type=int, default=100, help="randomized instances per identity")
    p.add_argument(
        "--max-chain", type=int, default=8, dest="max_chain",
        help="largest chain n+m of the bound suite, which checks 3^min(n,m)-1 joint "
        "spin queries per sector, so its time grows 2-3x per +2; the fluctuation suite "
        "checks N up to min(max_chain, 8)*2, so at most 16",
    )
    p.add_argument("--q-grid", default=",".join(map(str, DEFAULT_Q_GRID)), dest="q_grid")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(run=_run_verify)

    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The full parser and the ``--sweep`` pre-parser, built once per process.

    Building them costs more than a small request; argparse keeps no state
    between parses, so every call of ``main`` can share them.
    """
    flag = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    flag.add_argument("--sweep")
    return build_parser(), flag


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sweep_flag = _parsers()
    sweep = _sweep_file(sweep_flag, argv)
    try:
        code = _run_sweep(parser, argv, sweep) if sweep else _run(parser.parse_args(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point it at devnull
        # so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CapExceeded, ValueError, OverflowError, MemoryError) as exc:
        if isinstance(exc, (OverflowError, MemoryError)):
            exc = "the request is too large for this machine"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
