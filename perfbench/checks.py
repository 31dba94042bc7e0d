"""Correctness checks for the benchmark's outputs, made apart from chainops.

Each checker takes a request's description (argv and the `expect` record
from `inputs.py`) and the parsed CLI report, and returns None when the
report is right or a string saying what is wrong.  Expected answers come
from closed forms (homology of BZ/p skeleta, spheres and the torus; the
Steenrod squares of H^*(BZ/2; F_2); the check counts implied by
H^*(BZ/3; F_3)) or from an integer Smith form computed with sympy, never
from stored program output.

`negative_control` feeds a corrupted copy of a passing report to its
checker and requires the checker to reject it.
"""

import ast
import copy
import math

# --- integral homology and the universal coefficient theorem -------------


def bz_homology(p, top):
    """H_n of the top-skeleton of the bar-construction BZ/p, over Z, as
    {n: (free rank, torsion divisors)}.  Below the top it is that of
    BZ/p; at the top it is the free group of top cycles, whose rank
    follows from the Euler characteristic of the rationally acyclic
    skeleton: rank d_1 = 0 and rank d_{n+1} = c_n - rank d_n."""
    cells = [(p - 1) ** n for n in range(top + 1)]
    out = {0: (1, ())}
    rank_d = 0                      # rank of d_n, starting at n = 1
    for n in range(1, top + 1):
        if n < top:
            out[n] = (0, (p,)) if n % 2 else (0, ())
            rank_d = cells[n] - rank_d
        else:
            out[n] = (cells[n] - rank_d, ())
    return out


def space_homology(expect):
    kind = expect["space"]
    if kind == "bz":
        return bz_homology(expect["p"], expect["dim"])
    if kind == "sphere":
        return {0: (1, ()), expect["n"]: (1, ())}
    if kind == "circle":
        return {0: (1, ()), 1: (1, ())}
    if kind == "torus":
        return {0: (1, ()), 1: (2, ()), 2: (1, ())}
    raise ValueError(kind)


def smith_divisors(rows):
    """Nonzero invariant factors of an integer matrix (sympy)."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors
    if not rows or not rows[0]:
        return []
    return [abs(int(d)) for d in invariant_factors(Matrix(rows), domain=ZZ)
            if d != 0]


def complex_homology(ranks, matrices):
    """Integral homology of a homological complex given by its ranks and
    integer differential matrices (d_n: C_n -> C_{n-1})."""
    divs = {n: smith_divisors(m) for n, m in matrices.items()}
    out = {}
    for n, c in ranks.items():
        rank_out = len(divs.get(n, ()))
        into = divs.get(n + 1, ())
        out[n] = (c - rank_out - len(into),
                  tuple(sorted(d for d in into if d > 1)))
    return out


def with_coefficients(integral, ring):
    """Homology with coefficients by the universal coefficient theorem:
    H_n(C; F) = H_n(C) (x) F  +  Tor(H_{n-1}(C), F)."""
    if ring == "Z":
        return {n: ("Z", free, tuple(sorted(divs)))
                for n, (free, divs) in integral.items()}
    if ring == "Q":
        return {n: ("Q", free, ()) for n, (free, _) in integral.items()}
    q = int(ring[2:])
    out = {}
    for n, (free, divs) in integral.items():
        below = integral.get(n - 1, (0, ()))[1]
        dim = (free + sum(1 for d in divs if d % q == 0)
               + sum(1 for d in below if d % q == 0))
        out[n] = (ring, dim, ())
    return out


def parse_group(text, ring):
    """Read chainops' rendering of a homology group."""
    if ring != "Z":
        base, _, exp = text.rpartition("^")
        if base != ring:
            raise ValueError(f"group {text!r} is not over {ring}")
        return (ring, int(exp), ())
    free, divs = 0, []
    if text != "0":
        for part in text.split(" + "):
            if part == "Z":
                free = 1
            elif part.startswith("Z^"):
                free = int(part[2:])
            elif part.startswith("Z/"):
                divs.append(int(part[2:]))
            else:
                raise ValueError(f"unreadable group {text!r}")
    return ("Z", free, tuple(sorted(divs)))


def check_homology(req, report):
    expect = req["expect"]
    if "ranks" in expect:
        integral = complex_homology(
            {int(n): c for n, c in expect["ranks"].items()},
            {int(n): m for n, m in expect["matrices"].items()})
    else:
        integral = space_homology(expect)
    want = with_coefficients(integral, expect["ring"])
    got = {item["degree"]: parse_group(item["group"], expect["ring"])
           for item in report["results"]}
    if got != want:
        return f"homology {got} != {want}"
    return None


# --- power operations -------------------------------------------------------


def check_steenrod(req, report):
    """Sq^i(x^q) = C(q, i) x^{q+i} in H^*(BZ/2; F_2).  Below the top of
    the skeleton H^n is F_2 on x^n, so the unique nonzero class reads
    (1,); at the top, x^n restricts injectively, so Sq^i(x^q) is nonzero
    exactly when C(q, i) is odd."""
    top, cap = req["expect"]["dim"], req["expect"]["cap"]
    got = {}
    for item in report["results"]:
        if item["class"] != "(1,)":
            return f"unexpected class {item['class']}"
        got[(item["degree"], item["i"])] = ast.literal_eval(item["value"])
    want_keys = {(q, i) for q in range(1, min(cap, top) + 1)
                 for i in range(q + 1) if q + i <= top}
    if set(got) != want_keys:
        return f"reported (q, i) pairs {sorted(got)} != {sorted(want_keys)}"
    for (q, i), value in got.items():
        odd = math.comb(q, i) % 2
        if q + i < top and tuple(value) != (odd,):
            return f"Sq^{i}(x^{q}) = {value}, want ({odd},)"
        if q + i == top and any(value) != bool(odd):
            return f"Sq^{i}(x^{q}) = {value} at the top, want nonzero={odd}"
    return None


def bz3_classes(degree_cap, p=3):
    """Number of classes of H^q(BZ/p; F_p) summed over q <= degree_cap:
    H^q has rank one below the top of the skeleton, so p classes each."""
    return (degree_cap + 1) * p


def cartan_checked(job):
    n = bz3_classes(job["degree_cap"], job["p"])
    return n * n * (job["smax"] + 1) * 2


def adem_pairs(pair_bound, p):
    return [(a, b) for b in range(1, pair_bound)
            for a in range(1, pair_bound - b + 1) if a < p * b]


def adem_checked(job):
    n = bz3_classes(job["degree_cap"], job["p"])
    return n * len(adem_pairs(job["pair_bound"], job["p"])) * 2 * 2


def check_verifier_counts(report, want):
    if not report["passed"] or report["failures"]:
        return f"verifier reports failures {report['failures'][:3]}"
    got = report["results"][0]["checked"]
    if got != want:
        return f"checked {got} != {want} implied by the ranks of H^*"
    return None


def check_cartan(req, report):
    return check_verifier_counts(report, cartan_checked(req["expect"]))


def check_adem(req, report):
    return check_verifier_counts(report, adem_checked(req["expect"]))


def check_job(job, kind, report):
    """A verify_cartan / verify_adem report from a verifier workload."""
    want = cartan_checked(job) if kind == "cartan" else adem_checked(job)
    return check_verifier_counts(
        {"passed": report["passed"], "failures": report["failures"],
         "results": [{"checked": report["checked"]}]}, want)


# --- the rest of the stream -------------------------------------------------


def check_passed(req, report):
    if not report["passed"] or report["failures"]:
        return f"reports failures {report['failures'][:3]}"
    return None


def check_dold_kan(req, report):
    """The CLI compares normalize(denormalize(L)) with L literally, module
    by module and map by map; require that on every complex."""
    bad = check_passed(req, report)
    if bad:
        return bad
    got = report["results"][0]["checked"]
    if got != req["expect"]["count"]:
        return f"checked {got} roundtrips, want {req['expect']['count']}"
    return None


def check_w_resolution(req, report):
    bad = check_passed(req, report)
    if bad:
        return bad
    argv = req["argv"]
    want = [{"p": int(argv[argv.index("--p") + 1]),
             "cap": int(argv[argv.index("--cap") + 1])}]
    if report["results"] != want:
        return f"results {report['results']} != {want}"
    return None


def check_operad(req, report):
    bad = check_passed(req, report)
    if bad:
        return bad
    if report["results"][0]["checked"] <= 0:
        return "no axiom instance checked"
    return None


def check_bar(req, report):
    """H^0 of the bar construction of Q plus k closed degree-1 generators
    with zero products is the tensor coalgebra on them, so up to word
    length L its rank is 1 + k + ... + k^L (L + 1 for one generator, 1
    for the trivial DGA and for an even generator)."""
    bad = check_passed(req, report)
    if bad:
        return bad
    k, length = req["expect"]["k"], req["expect"]["length"]
    want = sum(k ** n for n in range(length + 1))
    got = report["results"][0]["h0_rank"]
    if got != want:
        return f"h0_rank {got} != {want}"
    return None


CHECKERS = {
    "homology": check_homology,
    "steenrod": check_steenrod,
    "cartan-check": check_cartan,
    "adem-check": check_adem,
    "dold-kan-roundtrip": check_dold_kan,
    "w-resolution": check_w_resolution,
    "operad-check": check_operad,
    "einfinity-check": check_operad,
    "bar": check_bar,
    "hopf-check": check_bar,
}


def known_fault_failure(req, code, report):
    """True when a request is one of the known-fault Z/4 roundtrips and
    failed only on the literal roundtrip."""
    return (req["kind"] == "known-fault" and code == 1
            and report is not None and report["failures"]
            and all(f["check"] == "simplicial-roundtrip"
                    for f in report["failures"]))


def check_response(req, code, report):
    """None if a response is right; otherwise what is wrong.  A report
    that is not shaped as the CLI documents is wrong, not a crash."""
    if report is None:
        return f"exit code {code} without a report"
    try:
        if report["command"] != req["argv"][0]:
            return f"report for {report['command']}"
        if (code == 0) != report["passed"]:
            return f"exit code {code} disagrees with passed={report['passed']}"
        return CHECKERS[req["argv"][0]](req, report)
    except (KeyError, IndexError, TypeError, ValueError, SyntaxError) as e:
        return f"malformed report: {e!r}"


# --- negative control -------------------------------------------------------


def corrupt(command, report):
    """A wrong copy of a passing report, as the checker for command sees it."""
    bad = copy.deepcopy(report)
    first = bad["results"][0] if bad["results"] else None
    if command == "homology":
        base, _, exp = first["group"].rpartition("^")
        if base and base != "Z":                 # a field: one more rank
            first["group"] = f"{base}^{int(exp) + 1}"
        elif first["group"] == "0":
            first["group"] = "Z/97"
        else:
            first["group"] += " + Z/97"
    elif command == "steenrod":
        first["value"] = "(0,)" if first["value"] != "(0,)" else "(1,)"
    elif command in ("cartan-check", "adem-check", "dold-kan-roundtrip"):
        first["checked"] += 1
    elif command in ("bar", "hopf-check"):
        first["h0_rank"] += 1
    else:
        bad["passed"] = False
        bad["failures"] = [{"check": "corrupted", "witness": "0"}]
    return bad


def negative_control(samples):
    """samples: {command: (request, passing report)}.  Returns the list of
    commands whose checker accepted a corrupted report."""
    missed = []
    for command, (req, report) in sorted(samples.items()):
        if CHECKERS[command](req, corrupt(command, report)) is None:
            missed.append(command)
    return missed


def known_fault_control(req, report):
    """A known-fault request must count as failed only while it fails on
    the roundtrip, and must pass the ordinary Dold-Kan check once the
    fault is mended.  Fed the report a mended program would print (the
    same report with the roundtrip failures gone), a corrupted copy of
    it, and a report failing another check; returns what was misjudged."""
    mended = dict(copy.deepcopy(report), passed=True, failures=[])
    other = dict(copy.deepcopy(report), failures=[
        {"check": "cubical-roundtrip", "witness": "0"}])
    missed = []
    if known_fault_failure(req, 0, mended):
        missed.append("mended report counted as the known fault")
    rejected = check_response(req, 0, mended)
    if rejected is not None:
        missed.append(f"mended report rejected: {rejected}")
    if check_response(req, 0, corrupt(req["argv"][0], mended)) is None:
        missed.append("corrupted mended report accepted")
    if known_fault_failure(req, 1, other):
        missed.append("another failure counted as the known fault")
    return missed


def job_negative_control(job, kind, report):
    """The verifier-job checker must reject a report whose count is off by
    one and a report that lost its pass."""
    off = dict(report, checked=report["checked"] - 1)
    failed = dict(report, passed=False,
                  failures=[{"check": "corrupted", "witness": "0"}])
    return [name for name, bad in (("count", off), ("passed", failed))
            if check_job(job, kind, bad) is None]
