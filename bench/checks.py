"""Output checks for every benchmark request, on any seed.

Each ``check_*`` function takes a request's parameters and parsed output and
returns a list of problems (empty when the output is right).  The checks are
independent of the program's code paths:

- exact polynomials are checked through their coefficient sums at q = 1
  (path counts) and their exponent ranges, and exact values through an
  evaluation modulo the prime 2^61 - 1;
- float values are compared with a 40-digit ``decimal`` evaluation of the
  same exact polynomials, which cannot underflow.

On the default seed the exact fields of each output are also compared byte
for byte (by SHA-256) with outputs recorded from the program, and float
fields within a relative tolerance of 1e-9 (``compare_reference``).
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
import re
import sys
from fractions import Fraction

from workloads import Request

#: Mersenne prime used for modular evaluation of exact polynomials.
PRIME = 2**61 - 1

#: Relative tolerance for every float comparison.
REL_TOL = 1e-9

#: The default exact q grid of ``qpaths correlate`` without ``--eval``.
DEFAULT_Q_GRID = ("1/5", "1/2", "4/5")

_DECIMAL = decimal.Context(prec=40, Emin=-999_999, Emax=999_999)
_PATH_TEXT = re.compile(r"^\(0,0\):([HV]*)$")


def floats_close(a: float, b: float) -> bool:
    """Equal within REL_TOL; values that are both below the normal float
    range (where a correct float result may itself be imprecise) also agree."""
    tiny = sys.float_info.min
    return math.isclose(a, b, rel_tol=REL_TOL) or (abs(a) < tiny and abs(b) < tiny)


def _terms(poly) -> list[tuple[int, int]]:
    return [(int(e), int(c)) for e, c in poly]


def _mod_eval(terms: list[tuple[int, int]], q: Fraction) -> int:
    x = q.numerator * pow(q.denominator, -1, PRIME) % PRIME
    return sum(c * pow(x, e, PRIME) for e, c in terms) % PRIME


def _mod_equal(value: Fraction, num: int, den: int) -> bool:
    """value == num/den modulo PRIME, with num and den already reduced."""
    return value.numerator * den % PRIME == value.denominator * num % PRIME


def _decimal_eval(terms: list[tuple[int, int]], q: decimal.Decimal) -> decimal.Decimal:
    total, power, last = decimal.Decimal(0), decimal.Decimal(1), 0
    for e, c in terms:
        power = _DECIMAL.multiply(power, _DECIMAL.power(q, e - last))
        total = _DECIMAL.add(total, _DECIMAL.multiply(c, power))
        last = e
    return total


def _check_exponents(terms, lo: int, hi: int, what: str) -> list[str]:
    if any(not lo <= e <= hi or e % 2 for e, _ in terms):
        return [f"{what}: exponent outside the even range [{lo}, {hi}]"]
    return []


# -- per-command checks ---------------------------------------------------------


def check_correlate(params: dict, env: dict) -> list[str]:
    n, m, sites = params["n"], params["m"], params["sites"]
    problems = []
    result = env["result"]
    num = _terms(result["probability"]["num"])
    den = _terms(result["probability"]["den"])
    downs = [x for x, spin in sites if spin == "down"]
    v, r = len(downs), len(sites)
    lo, hi = n * (n + 1), n * (n + 1) + 2 * n * m
    if sum(c for _, c in num) != math.comb(n + m - r, n - v):
        problems.append("correlate: numerator coefficient sum is not the constrained path count")
    if sum(c for _, c in den) != math.comb(n + m, n):
        problems.append("correlate: denominator coefficient sum is not the path count")
    problems += _check_exponents(num, lo, hi, "correlate numerator")
    problems += _check_exponents(den, lo, hi, "correlate denominator")
    exponent = v * (v - 1) + 2 * sum(x - n for x in downs)
    if result["bound_exponent"] != exponent:
        problems.append("correlate: wrong bound exponent")
    if result["in_regime"] != all(x > n and x > m for x, _ in sites):
        problems.append("correlate: wrong in_regime flag")

    mode = params["mode"]
    qs = list(DEFAULT_Q_GRID) if mode == "grid" else [params["q"]]
    checks = result["checks"]
    if len(checks) != len(qs):
        return problems + ["correlate: wrong number of q checks"]
    for q_text, c in zip(qs, checks):
        q = Fraction(q_text)
        if mode == "float":
            problems += _check_float_probability(num, den, q, exponent, c)
            continue
        p, b = Fraction(c["probability"]), Fraction(c["bound"])
        if c["q"] != str(q):
            problems.append("correlate: wrong q in check")
        if not 0 <= p <= 1:
            problems.append("correlate: probability outside [0, 1]")
        if b != q**exponent:
            problems.append("correlate: wrong bound value")
        if c["holds"] != (p <= b):
            problems.append("correlate: holds disagrees with p <= bound")
        if not _mod_equal(p, _mod_eval(num, q), _mod_eval(den, q)):
            problems.append("correlate: probability is not numerator/denominator at q")
        if not (floats_close(c["probability_float"], float(p)) and floats_close(c["bound_float"], float(b))):
            problems.append("correlate: float field disagrees with the exact value")
    if result["bound_holds"] != all(c["holds"] for c in checks):
        problems.append("correlate: bound_holds disagrees with the checks")
    return problems


def _check_float_probability(num, den, q: Fraction, exponent: int, c: dict) -> list[str]:
    qf = float(q)
    qd = decimal.Decimal(qf)
    p, b = c["probability"], c["bound"]
    problems = []
    if c["q"] != str(qf):
        problems.append("correlate: wrong q in check")
    if not 0 <= p <= 1 + REL_TOL:
        problems.append("correlate: float probability outside [0, 1]")
    if c["holds"] != (p <= b):
        problems.append("correlate: holds disagrees with p <= bound")
    true_p = float(_DECIMAL.divide(_decimal_eval(num, qd), _decimal_eval(den, qd)))
    if not floats_close(p, true_p):
        problems.append("correlate: float probability is inaccurate")
    if not floats_close(b, float(_DECIMAL.power(qd, exponent))):
        problems.append("correlate: float bound is inaccurate")
    return problems


def check_partition(point: dict, env: dict) -> list[str]:
    n, m = int(point["n"]), int(point["m"])
    terms = _terms(env["result"]["polynomial"])
    problems = _check_exponents(terms, n * (n + 1), n * (n + 1) + 2 * n * m, "partition")
    if sum(c for _, c in terms) != math.comb(n + m, n):
        problems.append("partition: coefficient sum is not the path count")
    # Z(n, m) = q^(n(n+1)) prod_{i=1..n} (1 - q^(2(m+i))) / (1 - q^(2i)), at q = 3 mod PRIME.
    x = 3
    num = pow(x, n * (n + 1), PRIME)
    den = 1
    for i in range(1, n + 1):
        num = num * (1 - pow(x, 2 * (m + i), PRIME)) % PRIME
        den = den * (1 - pow(x, 2 * i, PRIME)) % PRIME
    if _mod_eval(terms, Fraction(x)) * den % PRIME != num:
        problems.append("partition: polynomial differs from the closed product form")
    return problems


def check_fluctuations(point: dict, env: dict) -> list[str]:
    N, L = int(point["N"]), int(point["L"])
    result = env["result"]
    problems = []
    if result["sector"] != [N // 2, N // 2] or result["window"] != [(N - L) // 2 + 1, (N + L) // 2]:
        problems.append("fluctuations: wrong sector or window")
    rows = result["distribution"]
    if [row["l"] for row in rows] != list(range(-L // 2, L // 2 + 1)):
        problems.append("fluctuations: support is not [-L/2, L/2]")
    probs = [Fraction(row["probability"]) for row in rows]
    if sum(probs) != 1:
        problems.append("fluctuations: probabilities do not sum to exactly 1")
    if any(not 0 <= p <= 1 for p in probs):
        problems.append("fluctuations: probability outside [0, 1]")
    if any(not floats_close(row["probability_float"], float(p)) for row, p in zip(rows, probs)):
        problems.append("fluctuations: float field disagrees with the exact value")
    if any((row["tail_bound"] is None) != (row["l"] == 0) for row in rows):
        problems.append("fluctuations: tail bound missing or spurious")
    return problems


def check_reduce2d(point: dict, env: dict) -> list[str]:
    N, M = int(point["N"]), int(point["M"])
    result = env["result"]
    problems = []
    if result.get("check_passed") is not True or not all(t["routes_agree"] for t in result["terms"]):
        problems.append("reduce2d: routes do not agree")
    if [t["k"] for t in result["terms"]] != list(range(N * M + 1)):
        problems.append("reduce2d: wrong k range")
    # prod_j (1 + z q^(2j))^N at q = z = 1 counts all 2^(NM) configurations.
    if sum(c for t in result["terms"] for _, c in _terms(t["polynomial"])) != 2 ** (N * M):
        problems.append("reduce2d: coefficient sums do not add up to 2^(NM)")
    return problems


def check_verify(params: dict, env: dict) -> list[str]:
    result = env["result"]
    if result.get("passed") is not True or not result.get("records"):
        return ["verify: report did not pass"]
    return []


def check_sample(params: dict, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != params["count"]:
        return ["sample: wrong number of paths"]
    for line in lines:
        match = _PATH_TEXT.match(line)
        if match is None or match.group(1).count("H") != params["n"] or match.group(1).count("V") != params["m"]:
            return ["sample: path does not have n H and m V steps from the origin"]
    return []


_SWEEP_CHECKS = {"partition": check_partition, "fluctuations": check_fluctuations, "reduce2d": check_reduce2d}
_CONFIG_KEYS = {"partition": ("n", "m"), "fluctuations": ("N", "L", "q"), "reduce2d": ("N", "M")}


def check_sweep(params: dict, stdout: str) -> list[str]:
    kind, points = params["kind"], params["points"]
    lines = stdout.splitlines()
    if len(lines) != len(points):
        return [f"sweep: {len(lines)} output lines for {len(points)} grid points"]
    problems = []
    for point, line in zip(points, lines):
        env = json.loads(line)
        config = env["config"]
        if env["command"] != kind or any(str(config[k]) != str(point[k]) for k in _CONFIG_KEYS[kind]):
            problems.append("sweep: output line does not match its grid point")
            continue
        problems += _SWEEP_CHECKS[kind](point, env)
    return problems


def check_output(request: Request, stdout: str) -> list[str]:
    """Problems with a request's output (the request already exited 0)."""
    command = request.argv[0]
    if "--sweep" in request.argv:
        return check_sweep(request.params, stdout)
    if command == "sample":
        return check_sample(request.params, stdout)
    env = json.loads(stdout)
    if env["command"] != command:
        return [f"{command}: output is for another command"]
    return {"correlate": check_correlate, "verify": check_verify}[command](request.params, env)


# -- reference outputs ----------------------------------------------------------


def digest(stdout: str) -> dict:
    """SHA-256 of the output's exact fields and the list of its float fields.

    JSON outputs (one document, or one per line for sweeps) are parsed;
    floats are lifted out in document order and replaced by null, and
    ``library_version`` is dropped, so a version bump or a last-digit float
    change is not a byte difference.  Text outputs are hashed as they are.
    """
    text = stdout.strip()
    if not text.startswith("{"):
        return {"sha256": hashlib.sha256(stdout.encode()).hexdigest(), "floats": []}
    floats: list[float] = []

    def lift(node):
        if isinstance(node, float):
            floats.append(node)
            return None
        if isinstance(node, list):
            return [lift(x) for x in node]
        if isinstance(node, dict):
            return {k: lift(v) for k, v in node.items() if k != "library_version"}
        return node

    # The hash is that of the canonical JSON list of all documents, built one
    # document at a time so that the check holds no more than one in memory.
    hasher = hashlib.sha256(b"[")
    for i, doc in enumerate([text] if text.startswith("{\n") else text.splitlines()):
        if i:
            hasher.update(b",")
        hasher.update(json.dumps(lift(json.loads(doc)), sort_keys=True, separators=(",", ":")).encode())
    hasher.update(b"]")
    return {"sha256": hasher.hexdigest(), "floats": floats}


def compare_reference(reference: dict, stdout: str) -> list[str]:
    """Problems against a recorded reference output of the same request.

    A reference recorded from a failed request says nothing about the right
    output, so it is not compared."""
    if not reference.get("ok"):
        return []
    got = digest(stdout)
    if got["sha256"] != reference["sha256"]:
        return ["reference: exact fields differ from the recorded output"]
    if len(got["floats"]) != len(reference["floats"]) or not all(
        math.isclose(a, b, rel_tol=REL_TOL) for a, b in zip(got["floats"], reference["floats"])
    ):
        return ["reference: float fields differ from the recorded output"]
    return []
