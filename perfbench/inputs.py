"""Seeded inputs for the three workloads.

Everything here is input generation and counts toward `setup_s`: the
relabelled spaces written as simplicial-set files, the random chain
complexes and DGA presentations written as input files, and the request
stream of `requests-mixed`.  The expected answers are not computed here;
`checks.py` derives them from the description each input carries.

The same seed always gives the same files and the same stream.
"""

import os
import random

# --- the verifier jobs --------------------------------------------------

# cartan-bz3: verify_cartan on the 3-skeleton of BZ/3, classes of degree
# <= 2, s <= 2, Bockstein variant on, lift cap 2*smax*(p-1).
CARTAN = {"p": 3, "dim": 3, "degree_cap": 2, "smax": 2}
# adem-bz3: verify_adem on the 5-skeleton of BZ/3, classes of degree
# <= 4, pairs a + b <= 3, default lift cap p*maxdim + 2 = 17.
ADEM = {"p": 3, "dim": 5, "degree_cap": 4, "pair_bound": 3}
# The acceptance-gate sizes, for a one-off traced run (`--size gate`).
CARTAN_GATE = {"p": 3, "dim": 4, "degree_cap": 2, "smax": 2}
ADEM_GATE = {"p": 3, "dim": 8, "degree_cap": 4, "pair_bound": 3}


def cartan_lift_cap(job):
    """The largest generator index the Cartan sweep evaluates."""
    return 2 * job["smax"] * (job["p"] - 1)


# --- simplicial-set files -------------------------------------------------

def space_text(X, rng):
    """Render a chainops FiniteSimplicialSet in the CLI's file format,
    renaming every simplex and listing each dimension in a random order."""
    names = {}
    order = []
    for n in X.dims():
        ids = list(X.simplices(n))
        fresh = list(range(len(ids)))
        rng.shuffle(fresh)
        for base, k in zip(ids, fresh):
            names[base] = f"c{n}_{k}"
        rng.shuffle(ids)
        order.extend((n, base) for base in ids)
    lines = [f"# {X.name}, relabelled"]
    for n, base in order:
        specs = []
        for i in range(n + 1 if n else 0):
            f = X.face(X.nondegenerate(base), i)
            word = "".join(f"s{j}" for j in f.word)
            specs.append(f"{word}.{names[f.base]}" if word
                         else names[f.base])
        lines.append(f"simplex {n} {names[base]} : faces {' '.join(specs)}"
                     if specs else f"simplex 0 {names[base]} :")
    return "\n".join(lines) + "\n"


def builtin(name, dim=None):
    from chainops.simplicial import (circle_space, classifying_space,
                                     sphere_space, torus_space)
    if name == "circle":
        return circle_space()
    if name == "torus":
        return torus_space()
    if name.startswith("sphere"):
        return sphere_space(int(name[len("sphere"):]))
    return classifying_space(int(name[2:]), dim)


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def verifier_space(job, seed, workdir):
    """Write the relabelled BZ/p skeleton of a verifier job; return its
    path."""
    rng = random.Random(seed)
    X = builtin(f"bz{job['p']}", job["dim"])
    path = os.path.join(workdir, f"bz{job['p']}-{job['dim']}.sset")
    write(path, space_text(X, rng))
    return path


# --- request stream -------------------------------------------------------

# The mix is assumed: the repository holds no record of real traffic.
# The rule is that every subcommand the CLI exposes (`build_parser` in
# chainops/cli.py, ten of them) gets the same share: FRESH distinct
# requests per round, plus REPEATS exact repeats of them.  So one request
# in four, apart from the known-fault ones, repeats an earlier one; that
# share is assumed too, and the traced run reports the share of time the
# repeats take (`requests.repeat_time_share`), so that a cache's gain can
# be set against a stream without them.
FRESH = 6
REPEATS = 2

# Requests that fail every time because of a known fault: normalize over
# Z/4 returns the kernel basis sorted, so the literal Dold-Kan roundtrip
# fails.  Their parameters do not depend on the seed; were the fault
# mended, they would pass the ordinary Dold-Kan check.
KNOWN_FAULT = [
    ["dold-kan-roundtrip", "--ring", "Z/4", "--count", "3", "--seed", str(s)]
    for s in (1, 2)
]
KNOWN_FAULT_EXPECT = {"count": 3}

# bar and hopf-check: a built-in fixture with its length cap, or a
# generated square-zero DGA (k generators, acyclic pair or not) with its
# length cap.
DGA_OPTIONS = [("one-generator", 3), ("trivial", 3), ("square-generator", 3),
               (1, False, 4), (2, False, 2), (2, True, 2)]

# Per kind of request, its parameter options.  Every round serves each
# option once, in a seeded order, so every seed serves the same multiset
# of parameters at about the same cost; the seed picks the order, the
# relabelling of file-given spaces, the random complexes of the
# chain-complex files and the DGA weights.  The Dold-Kan requests' own
# seeds are fixed, and so are the repeats (each command's first REPEATS
# options as listed here), because the cost of a roundtrip or of a
# repeated request varies too much with them.  The options were chosen
# so that the median and the 90th-percentile latency fall inside runs of
# requests of like cost, not on a jump between two costs.  `homology`
# takes its FRESH requests from three kinds: built-in spaces,
# simplicial-set files and chain-complex files.
KINDS = {
    "homology-builtin": [("bz3", 4, "Z"), ("bz2", 5, "Z/2")],
    "homology-space-file": [("bz3", 3, "Z/3"), ("torus", None, "Q")],
    "homology-complex-file": ["Z", "Z/2"],
    # (ring, the CLI's --seed for its random complexes)
    "dold-kan-roundtrip": [("default", 1), ("Z", 2), ("Z/3", 3), ("Q", 4),
                           ("Z/5", 7), ("Z/2", 7)],
    "w-resolution": [(2, 8), (2, 16), (3, 10), (3, 20), (5, 8), (5, 16)],
    # (ring, arity cap, degree cap)
    "operad-check": [("Z/2", 3, 2), ("Z/3", 3, 2), ("Z/3", 2, 2), ("Z/2", 3, 1),
                     ("Z", 3, 1), ("Q", 3, 1)],
    "einfinity-check": [("Z/2", 3, 1), ("Z/3", 3, 1), ("Z/5", 3, 1),
                        ("Z/2", 3, 2), ("Z/3", 3, 2), ("Z", 3, 2)],
    # (dim, degree cap)
    "steenrod": [(4, 2), (4, 3), (5, 3), (5, 4), (6, 3), (6, 5)],
    # (dim, degree cap, smax)
    "cartan-check": [(2, 1, 1), (2, 1, 2), (2, 0, 1), (2, 0, 2), (1, 0, 1),
                     (1, 0, 2)],
    # (dim, degree cap, amax)
    "adem-check": [(3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3), (2, 1, 2),
                   (2, 1, 3)],
    "bar": DGA_OPTIONS,
    "hopf-check": DGA_OPTIONS,
}


def command_of(kind):
    return "homology" if kind.startswith("homology") else kind


class Request:
    """One CLI request, and what its checker needs to know about it."""

    def __init__(self, kind, argv, expect):
        self.kind = kind
        self.argv = argv
        self.expect = expect


def _space_expect(name, dim):
    if name.startswith("bz"):
        return {"space": "bz", "p": int(name[2:]), "dim": dim}
    if name.startswith("sphere"):
        return {"space": "sphere", "n": int(name[len("sphere"):])}
    return {"space": name}


def _complex_text(rng, ring_text):
    """A random homological complex over Z (d o d = 0 by construction),
    written for the given coefficient ring.  Returns the file text, the
    rank of each chain group and each differential as an integer
    matrix."""
    from chainops.randomgen import random_chain_complex
    from chainops.rings import ZZ
    C = random_chain_complex(ZZ, rng.randint(2, 4), 3, rng)
    labels = {n: [f"x{n}_{i}" for i in range(C.module(n).rank)]
              for n in sorted(C.modules)}
    lines = [f"ring {ring_text}"]
    for n in sorted(labels):
        lines.append(f"module {n} " + " ".join(labels[n]))
    ranks = {n: len(labs) for n, labs in labels.items()}
    matrices = {}
    for n, d in sorted(C.differentials.items()):
        src = C.module(n).basis
        tgt = C.module(n - 1).basis
        rows = [[0] * len(src) for _ in tgt]
        for (t, s), c in d.entries.items():
            i, j = tgt.index(t), src.index(s)
            rows[i][j] = int(c)
            lines.append(f"d {n} {labels[n - 1][i]} {labels[n][j]} {int(c)}")
        matrices[n] = rows
    return "\n".join(lines) + "\n", ranks, matrices


def _dga_text(rng, k, acyclic_pair):
    """Square-zero DGA: Q plus k closed degree-1 generators with all
    products zero, optionally plus an acyclic pair du = v.  Its bar
    construction has H^0 the tensor coalgebra on the k generators."""
    lines = ["dga", "generator 1 0 0", "unit 1"]
    for i in range(k):
        lines.append(f"generator a{i} 1 {rng.randint(1, 3)}")
    if acyclic_pair:
        w = rng.randint(1, 3)
        lines += [f"generator u 1 {w}", f"generator v 2 {w}", "d u : v 1"]
    return "\n".join(lines) + "\n"


def request_stream(seed, workdir):
    """Write the round's input files under workdir and return the list of
    Requests, in serving order."""
    rng = random.Random(seed)
    files = 0

    def new_file(suffix, text):
        nonlocal files
        files += 1
        path = os.path.join(workdir, f"in{files:03d}.{suffix}")
        write(path, text)
        return path

    def draw(kind, opt):
        if kind == "homology-builtin":
            name, dim, ring = opt
            argv = ["homology", "--space", name, "--ring", ring]
            if dim is not None:
                argv += ["--dim", str(dim)]
            return argv, dict(_space_expect(name, dim), ring=ring)
        if kind == "homology-space-file":
            name, dim, ring = opt
            path = new_file("sset", space_text(builtin(name, dim), rng))
            return (["homology", "--input", path, "--ring", ring],
                    dict(_space_expect(name, dim), ring=ring))
        if kind == "homology-complex-file":
            text, ranks, mats = _complex_text(rng, opt)
            path = new_file("cx", text)
            return (["homology", "--input", path],
                    {"ring": opt, "ranks": ranks, "matrices": mats})
        if kind == "dold-kan-roundtrip":
            ring, cli_seed = opt
            argv = ["dold-kan-roundtrip", "--count", "2", "--seed",
                    str(cli_seed), "--length", "4", "--ring", ring]
            return argv, {"count": 2 * (2 if ring == "default" else 1)}
        if kind == "w-resolution":
            return (["w-resolution", "--p", str(opt[0]), "--cap",
                     str(opt[1])], {})
        if kind in ("operad-check", "einfinity-check"):
            ring, arity, degree = opt
            return ([kind, "--arity-cap", str(arity), "--degree-cap",
                     str(degree), "--ring", ring], {})
        if kind == "steenrod":
            dim, cap = opt
            return (["steenrod", "--space", "bz2", "--dim", str(dim),
                     "--degree-cap", str(cap)], {"dim": dim, "cap": cap})
        if kind == "cartan-check":
            dim, cap, smax = opt
            return (["cartan-check", "--space", "bz3", "--dim", str(dim),
                     "--degree-cap", str(cap), "--smax", str(smax)],
                    {"p": 3, "dim": dim, "degree_cap": cap, "smax": smax})
        if kind == "adem-check":
            dim, cap, amax = opt
            return (["adem-check", "--space", "bz3", "--dim", str(dim),
                     "--degree-cap", str(cap), "--amax", str(amax)],
                    {"p": 3, "dim": dim, "degree_cap": cap,
                     "pair_bound": amax})
        if kind in ("bar", "hopf-check"):
            if isinstance(opt[0], str):
                fixture, length = opt
                return ([kind, "--fixture", fixture, "--length-cap",
                         str(length)],
                        {"k": int(fixture == "one-generator"),
                         "length": length})
            k, pair, length = opt
            path = new_file("dga", _dga_text(rng, k, pair))
            return ([kind, "--input", path, "--length-cap", str(length),
                     "--degree-cap", "2"], {"k": k, "length": length})
        raise ValueError(kind)

    stream = []
    fresh = {}
    for kind, options in KINDS.items():
        order = list(enumerate(options))
        rng.shuffle(order)
        fresh.setdefault(command_of(kind), []).extend(
            (i, Request(kind, *draw(kind, opt))) for i, opt in order)
    for drawn in fresh.values():
        assert len(drawn) == FRESH
        stream.extend(req for _, req in drawn)
        # the repeats are the command's first options as KINDS lists
        # them, so their cost does not depend on the seed
        stream.extend(req for _, req in sorted(drawn, key=lambda e: e[0])
                      [:REPEATS])
    stream.extend(Request("known-fault", list(argv), dict(KNOWN_FAULT_EXPECT))
                  for argv in KNOWN_FAULT)
    rng.shuffle(stream)
    return stream
