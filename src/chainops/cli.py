"""Batch command-line front-end.

Parses input descriptions (simplicial sets, chain complexes, DGA
presentations, or built-in space names), runs the requested computation
or verifier sweep, and emits a deterministic machine-readable report.

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input (a
malformed file, an unknown name, a --p that is not a prime, or a count
or size option below its least value), 3 a request past a size bound
(rings.SizeBoundError).
"""

import argparse
import contextlib
import functools
import json
import random
import sys

from .bar_hopf import (AugmentedDGA, check_connected, h0_hopf,
                       indecomposables, one_generator_dga, reduced_bar,
                       square_generator_dga, trivial_dga)
from .complexes import ChainComplex, HOMOLOGICAL, COHOMOLOGICAL, homology, \
    verify_differential
from .cubical import dnc, dnc_inclusion, dnc_projection, nc
from .dold_kan import denormalize, normalize
from .freemod import FreeModule, FreeModuleMap, zero_module
from .homology_classes import HomologySpace
from .operads import check_einfinity, check_operad_axioms, surjection_operad
from .powerops import (BigradedClass, CochainSystem, build_w, cup_i_oracle,
                       equivariant_lift_j, steenrod_square, verify_adem,
                       verify_cartan)
from .randomgen import random_chain_complex
from .rings import QQ, RingSpec, SizeBoundError, ZZ, Zmod, _is_prime
from .simplicial import (FiniteSimplicialSet, Simplex, chains,
                         circle_space, classifying_space,
                         sphere_space, torus_space)


class ParseError(Exception):
    """Malformed input file; carries a location string."""


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def parse_ring(text: str) -> RingSpec:
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("Z/"):
        try:
            return Zmod(int(text[2:]))
        except ValueError as e:
            raise ParseError(f"bad ring {text!r}: {e}")
    raise ParseError(f"unknown ring {text!r} (want Z, Q, or Z/<m>)")


@contextlib.contextmanager
def _reading(where):
    """A ValueError or IndexError raised while reading `where` (a path, or
    path:line) becomes a ParseError that names it."""
    try:
        yield
    except IndexError:
        raise ParseError(f"{where}: too few fields") from None
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None


def _content_lines(path):
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except (OSError, ValueError) as e:
        raise ParseError(f"{path}: {e}")
    out = []
    for lineno, line in enumerate(raw, 1):
        line = line.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_simplicial_file(path) -> FiniteSimplicialSet:
    """Lines `simplex <dim> <id> : faces <spec>...` where a face spec is
    either a plain id or `<word>.<id>` with word like s0s2."""
    simplices = {}
    dims = {}
    face_specs = []
    for lineno, line in _content_lines(path):
        parts = line.split()
        if parts[0] != "simplex" or ":" not in parts:
            raise ParseError(f"{path}:{lineno}: expected "
                             "'simplex <dim> <id> : faces ...'")
        try:
            dim = int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad dimension {parts[1]!r}")
        sid = parts[2]
        if sid in dims:
            raise ParseError(f"{path}:{lineno}: duplicate simplex {sid!r}")
        colon = parts.index(":")
        tail = parts[colon + 1:]
        if tail and tail[0] == "faces":
            tail = tail[1:]
        if dim > 0 and len(tail) != dim + 1:
            raise ParseError(f"{path}:{lineno}: simplex {sid!r} needs "
                             f"{dim + 1} faces, got {len(tail)}")
        dims[sid] = dim
        simplices.setdefault(dim, []).append(sid)
        face_specs.append((lineno, dim, sid, tail))
    faces = {}
    for lineno, dim, sid, tail in face_specs:
        for i, spec in enumerate(tail):
            if "." in spec:
                word_text, base = spec.split(".", 1)
                with _reading(f"{path}:{lineno}"):
                    word = tuple(int(piece) for piece
                                 in word_text.split("s") if piece)
            else:
                word, base = (), spec
            if base not in dims:
                raise ParseError(f"{path}:{lineno}: face {spec!r} of "
                                 f"{sid!r} references unknown id {base!r}")
            if dims[base] + len(word) != dim - 1:
                raise ParseError(f"{path}:{lineno}: face {spec!r} of "
                                 f"{sid!r} has the wrong dimension")
            faces[(dim, sid, i)] = Simplex(word, base, dims[base])
    with _reading(path):
        X = FiniteSimplicialSet(path, simplices, faces)
        bad = X.check_simplicial_identities()
    if bad:
        raise ParseError(f"{path}: simplicial identities fail at {bad[0]!r}")
    return X


def parse_complex_file(path) -> ChainComplex:
    """`ring <R>`, `direction <dir>`, `module <n> <labels>...`,
    `d <n> <target> <source> <coeff>` blocks."""
    ring = None
    direction = HOMOLOGICAL
    modules = {}
    entries = {}
    for lineno, line in _content_lines(path):
        parts = line.split()
        key = parts[0]
        with _reading(f"{path}:{lineno}"):
            if key == "ring":
                try:
                    ring = parse_ring(parts[1])
                except ParseError as e:
                    raise ParseError(f"{path}:{lineno}: {e}") from None
            elif key == "direction":
                if parts[1] not in (HOMOLOGICAL, COHOMOLOGICAL):
                    raise ParseError(f"{path}:{lineno}: bad direction")
                direction = parts[1]
            elif key == "module":
                n = int(parts[1])
                modules.setdefault(n, []).extend(parts[2:])
            elif key == "d":
                if len(parts) != 5:
                    raise ParseError(f"{path}:{lineno}: expected "
                                     "'d <n> <target> <source> <coeff>'")
                n = int(parts[1])
                entries.setdefault(n, {})[(parts[2], parts[3])] = \
                    int(parts[4])
            else:
                raise ParseError(f"{path}:{lineno}: unknown keyword {key!r}")
    if ring is None:
        raise ParseError(f"{path}: missing 'ring' line")
    step = -1 if direction == HOMOLOGICAL else 1
    diffs = {}
    with _reading(path):
        mods = {n: FreeModule(ring, labs) for n, labs in modules.items()}
        for n, ent in entries.items():
            src = mods.get(n) or zero_module(ring)
            tgt = mods.get(n + step) or zero_module(ring)
            try:
                diffs[n] = FreeModuleMap(src, tgt, ent)
            except KeyError as e:
                raise ParseError(f"{path}: differential at degree {n}: {e}")
        C = ChainComplex(ring, mods, diffs, direction=direction)
    bad = verify_differential(C)
    if bad:
        raise ParseError(f"{path}: d squared is nonzero at degree {bad[0]}")
    return C


def parse_dga_file(path) -> AugmentedDGA:
    """`dga`, `generator <label> <degree> <weight>`, `unit <label>`,
    `d <label> : <label> <coeff>...`, `mul <a> <b> : <label> <coeff>...`"""
    basis = {}
    unit = None
    diff = {}
    mult = {}

    def vector(parts, lineno):
        if len(parts) % 2:
            raise ParseError(f"{path}:{lineno}: expected label/coeff pairs")
        out = {}
        for lab, c in zip(parts[::2], parts[1::2]):
            if lab not in basis:
                raise ParseError(f"{path}:{lineno}: unknown label {lab!r}")
            out[lab] = QQ.normalize(int(c))
        return out

    for lineno, line in _content_lines(path):
        parts = line.split()
        key = parts[0]
        if key == "dga":
            continue
        with _reading(f"{path}:{lineno}"):
            if key == "generator":
                basis[parts[1]] = (int(parts[2]), int(parts[3]))
            elif key == "unit":
                unit = parts[1]
            elif key == "d":
                if parts[2] != ":":
                    raise ParseError(f"{path}:{lineno}: expected "
                                     "'d <label> : <label> <coeff>...'")
                diff[parts[1]] = vector(parts[3:], lineno)
            elif key == "mul":
                if parts[3] != ":":
                    raise ParseError(f"{path}:{lineno}: expected "
                                     "'mul <a> <b> : <label> <coeff>...'")
                mult[(parts[1], parts[2])] = vector(parts[4:], lineno)
            else:
                raise ParseError(f"{path}:{lineno}: unknown keyword {key!r}")
    if unit is None or unit not in basis:
        raise ParseError(f"{path}: missing or undeclared unit")
    with _reading(path):
        A = AugmentedDGA(path, basis, unit, diff=diff, mult=mult)
        report = A.verify()
    if not report["passed"]:
        w = report["failures"][0]
        raise ParseError(f"{path}: {w['check']} fails on {w['witness']!r}")
    return A


def parse_inputs(path):
    """Dispatch on the first keyword of the file."""
    lines = _content_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty input")
    head = lines[0][1].split()[0]
    if head == "simplex":
        return parse_simplicial_file(path)
    if head in ("ring", "direction", "module"):
        return parse_complex_file(path)
    if head in ("dga", "generator"):
        return parse_dga_file(path)
    raise ParseError(f"{path}: unrecognized leading keyword {head!r}")


def builtin_space(name: str, dim: int) -> FiniteSimplicialSet:
    if name == "circle":
        return circle_space()
    if name == "torus":
        return torus_space()
    n = name[len("sphere"):]
    if name.startswith("sphere") and n.isascii() and n.isdigit():
        return sphere_space(int(n))
    if name in ("bz2", "bz3", "bz5"):
        return classifying_space(int(name[2:]), dim)
    raise ParseError(f"unknown space {name!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _failures(report):
    return [{"check": f["check"], "witness": repr(f["witness"])}
            for f in report["failures"]]


def _checked_body(report):
    """Body of a verifier's report: its comparison count and failures."""
    return {"results": [{"checked": report["checked"]}],
            "failures": _failures(report)}


def _space_from_args(args):
    if getattr(args, "input", None):
        X = parse_inputs(args.input)
        if not isinstance(X, FiniteSimplicialSet):
            raise ParseError(f"{args.input}: expected a simplicial set")
        return X
    return builtin_space(args.space, args.dim)


def cmd_homology(args):
    ring = parse_ring(args.ring)
    if getattr(args, "input", None):
        obj = parse_inputs(args.input)
        if isinstance(obj, AugmentedDGA):
            raise ParseError(f"{args.input}: homology needs a simplicial "
                             "set or a complex input")
        C = chains(obj, ring) if isinstance(obj, FiniteSimplicialSet) else obj
    else:
        C = chains(builtin_space(args.space, args.dim), ring)
    results = []
    for n in sorted(C.modules):
        results.append({"degree": n, "group": str(homology(C, n))})
    return {"results": results, "failures": []}


# The longest random complex dold-kan-roundtrip draws.  Denormalizing a
# complex of length n builds, in degree n + 1, one copy of L_r per
# surjection [n + 1] ->> [r]: with --count 1 and --max-rank 3 a request
# takes about 0.5 s at length 8, and about sevenfold more per two degrees.
MAX_ROUNDTRIP_LENGTH = 8


def cmd_dold_kan_roundtrip(args):
    if args.length > MAX_ROUNDTRIP_LENGTH:
        raise SizeBoundError("length cap exceeded for the roundtrip "
                             f"(length <= {MAX_ROUNDTRIP_LENGTH})")
    rng = random.Random(args.seed)
    rings = [ZZ, Zmod(3)] if args.ring == "default" \
        else [parse_ring(args.ring)]
    failures = []
    checked = 0
    for ring in rings:
        for trial in range(args.count):
            L = random_chain_complex(ring, args.length, args.max_rank, rng)
            top = max(L.modules, default=0)
            checked += 1
            N = normalize(denormalize(L, top + 1))
            if N.modules != L.modules or N.differentials != L.differentials:
                failures.append({"check": "simplicial-roundtrip",
                                 "witness": repr((str(ring), trial))})
            C = nc(dnc(L, top + 1))
            comp = dnc_projection(L, C).compose(dnc_inclusion(L, C))
            for n in comp.source.modules:
                if comp.component(n) != \
                        FreeModuleMap.identity(comp.source.module(n)):
                    failures.append({"check": "cubical-roundtrip",
                                     "witness": repr((str(ring), trial, n))})
            if verify_differential(C):
                failures.append({"check": "cubical-differential",
                                 "witness": repr((str(ring), trial))})
    return {"results": [{"checked": checked}], "failures": failures}


def cmd_operad_check(args):
    ring = parse_ring(args.ring)
    O = surjection_operad(args.arity_cap, ring, args.degree_cap)
    return _checked_body(check_operad_axioms(O, args.arity_cap,
                                             args.degree_cap))


def cmd_einfinity_check(args):
    ring = parse_ring(args.ring)
    O = surjection_operad(args.arity_cap, ring, args.degree_cap)
    return _checked_body(check_einfinity(O, args.arity_cap,
                                         args.degree_cap))


def cmd_steenrod(args):
    if args.p != 2:
        raise ParseError("the operation-table command runs at p = 2")
    ring = Zmod(2)
    X = _space_from_args(args)
    alg = CochainSystem(X, ring)
    lift = equivariant_lift_j(2, cap=0)
    results = []
    failures = []
    # the lift's recursion gives component q - i as the word cup_i_oracle
    # writes out, so this check verifies the recursion, not the value of
    # Sq^i
    for q in X.dims():
        if q == 0 or q > args.degree_cap:
            continue
        for label, rep in alg.homology_space(q).all_classes():
            if not rep:
                continue
            x = BigradedClass(q, 0, rep)
            for i in range(0, q + 1):
                out = steenrod_square(x, i, alg, lift)
                if out.degree not in X.dims():
                    continue
                H = alg.homology_space(out.degree)
                got = H.class_vector(out.rep)
                want = H.class_vector(cup_i_oracle(X, ring, q - i, rep, q))
                results.append({"degree": q, "class": repr(label), "i": i,
                                "value": repr(got)})
                if got != want:
                    failures.append({"check": "cup-i-oracle",
                                     "witness": repr((q, label, i))})
    return {"results": results, "failures": failures}


def cmd_cartan_check(args):
    if args.p == 2:
        raise ParseError("cartan-check needs an odd prime --p, got 2")
    ring = Zmod(args.p)
    X = _space_from_args(args)
    alg = CochainSystem(X, ring)
    return _checked_body(verify_cartan(alg, args.degree_cap, args.p,
                                       smax=args.smax))


def cmd_adem_check(args):
    if args.p == 2:
        raise ParseError("adem-check needs an odd prime --p, got 2")
    ring = Zmod(args.p)
    X = _space_from_args(args)
    alg = CochainSystem(X, ring)
    return _checked_body(verify_adem(alg, args.p, args.amax,
                                     args.degree_cap))


def cmd_w_resolution(args):
    W = build_w(args.p, args.cap)
    failures = []
    Q = W.quotient_complex()
    for n in range(args.cap):
        if HomologySpace(Q, n).rank != 1:
            failures.append({"check": "quotient-homology", "witness": repr(n)})
        beta = W.quotient_bockstein(n)
        if n % 2 == 0 and n > 0:
            if beta != {("e", n - 1): 1}:
                failures.append({"check": "bockstein", "witness": repr(n)})
        elif beta:
            failures.append({"check": "bockstein", "witness": repr(n)})
    return {"results": [{"p": args.p, "cap": args.cap}],
            "failures": failures}


def _dga_from_args(args):
    if getattr(args, "input", None):
        return parse_inputs(args.input)
    fixtures = {"trivial": trivial_dga,
                "one-generator": one_generator_dga,
                "square-generator": square_generator_dga}
    if args.fixture not in fixtures:
        raise ParseError(f"unknown fixture {args.fixture!r}")
    return fixtures[args.fixture]()


def cmd_bar(args):
    A = _dga_from_args(args)
    if not isinstance(A, AugmentedDGA):
        raise ParseError("bar command needs a DGA input")
    failures = _failures(check_connected(A))
    B = reduced_bar(A, args.length_cap, args.degree_cap)
    rep = B.verify()
    for w in rep["square_failures"]:
        failures.append({"check": "bar-d-squared", "witness": repr(w)})
    for w in rep["incomplete"]:
        failures.append({"check": "bar-window", "witness": repr(w)})
    rank = HomologySpace(B.complex, 0).rank
    return {"results": [{"h0_rank": rank}], "failures": failures}


def cmd_hopf_check(args):
    A = _dga_from_args(args)
    if not isinstance(A, AugmentedDGA):
        raise ParseError("hopf-check needs a DGA input")
    B = reduced_bar(A, args.length_cap, args.degree_cap)
    H = h0_hopf(B)
    failures = _failures(H.verify())
    L = indecomposables(H)
    failures += _failures(L.verify_co_jacobi())
    return {"results": [{"h0_rank": H.h0.rank,
                         "indecomposables": len(L.basis)}],
            "failures": failures}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built on first use and kept for the process.
    Each subcommand runs the cmd_ function named after it, looked up when
    it runs."""
    parser = argparse.ArgumentParser(
        prog="chainops",
        description="exact-arithmetic chain-level computations and checks")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def space_opts(p, dim=6):
        p.add_argument("--space", default="circle")
        p.add_argument("--input", default=None)
        p.add_argument("--dim", type=int, default=dim)

    p = sub.add_parser("homology")
    space_opts(p)
    p.add_argument("--ring", default="Z")

    p = sub.add_parser("dold-kan-roundtrip")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--ring", default="default")

    for name in ("operad-check", "einfinity-check"):
        p = sub.add_parser(name)
        p.add_argument("--arity-cap", type=int, default=3)
        p.add_argument("--degree-cap", type=int, default=4)
        p.add_argument("--ring", default="Z/2")

    p = sub.add_parser("steenrod")
    space_opts(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--degree-cap", type=int, default=6)

    p = sub.add_parser("cartan-check")
    space_opts(p, dim=4)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--smax", type=int, default=2)
    p.add_argument("--degree-cap", type=int, default=2)

    p = sub.add_parser("adem-check")
    space_opts(p, dim=8)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--amax", type=int, default=3)
    p.add_argument("--degree-cap", type=int, default=4)

    p = sub.add_parser("w-resolution")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--cap", type=int, default=20)

    for name in ("bar", "hopf-check"):
        p = sub.add_parser(name)
        p.add_argument("--fixture", default="one-generator")
        p.add_argument("--input", default=None)
        p.add_argument("--length-cap", type=int, default=4)
        p.add_argument("--degree-cap", type=int, default=4)

    return parser


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []
    for item in report["results"]:
        for k in sorted(item):
            lines.append(f"result\t{k}\t{item[k]}")
    for item in report["failures"]:
        lines.append(f"failure\t{item['check']}\t{item['witness']}")
    lines.append(f"passed\t{str(report['passed']).lower()}")
    return "\n".join(lines) + "\n"


# the least value each count or size option accepts, for every command
# (key None) and where a command's differs; below it a request compares
# nothing or is malformed.  An Adem pair has a, b >= 1, so a sum cap
# --amax below 2 admits no pair; steenrod squares no class of degree 0,
# so its --degree-cap of 0 compares nothing.
LEAST_VALUE = {
    None: {"arity_cap": 1, "dim": 0, "count": 1, "length": 0,
           "max_rank": 0, "cap": 1, "degree_cap": 0, "length_cap": 0,
           "smax": 0, "amax": 2},
    "steenrod": {"degree_cap": 1},
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("out", "format") and v is not None}
    try:
        if getattr(args, "p", None) is not None and not _is_prime(args.p):
            raise ParseError(f"--p must be a prime, got {args.p}")
        least_values = dict(LEAST_VALUE[None],
                            **LEAST_VALUE.get(args.command, {}))
        for name, least in least_values.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ParseError(f"--{name.replace('_', '-')} must be at "
                                 f"least {least}, got {value}")
        body = globals()["cmd_" + args.command.replace("-", "_")](args)
    except ParseError as e:
        print(f"chainops: {e}", file=sys.stderr)
        return 2
    except SizeBoundError as e:
        print(f"chainops: {e}", file=sys.stderr)
        return 3
    report = {"schema": 1, "command": args.command, "parameters": params,
              "passed": not body["failures"],
              "results": body["results"], "failures": body["failures"]}
    text = render(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
