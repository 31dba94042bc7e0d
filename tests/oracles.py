"""Oracles for the power-operation tests: the cochain Bockstein,
computed by lifting to Z/p^2 rather than through the resolution; the
vanishing-pattern property of the lifted generators; and the
coordinates of a sum of cross products built as a cochain on the
product space, against which the Kuenneth reading is checked."""
from chainops.freemod import add_scaled
from chainops.powerops import BigradedClass, cochain_cross, theta_bar
from chainops.rings import Zmod
from chainops.simplicial import cochains


def bockstein(x, X, p):
    """The Z/p -> Z/p^2 -> Z/p connecting operation on cochains: lift
    the representative, apply the coboundary, divide by p."""
    big = Zmod(p * p)
    ring = Zmod(p)
    C2 = cochains(X, big)
    lifted = {lab: int(c) % (p * p) for lab, c in x.rep.items()}
    q = x.degree
    d = C2.differentials.get(q)
    out = {}
    if d is not None:
        img = d.apply(lifted)
        for lab, c in img.items():
            c = int(c) % (p * p)
            if c % p:
                raise ValueError("representative is not a mod-p cocycle")
            v = (c // p) % p
            if v:
                out[lab] = ring.normalize(v)
    return BigradedClass(q + 1, x.weight, out)


def verify_vanishing_pattern(alg, lift, degree_cap, index_cap):
    """theta-bar(e_n (x) x^p) can only be a nonzero class when n sits
    in the residue classes 0, -1 (q even) or p-1, p-2 (q odd) modulo
    2(p - 1)."""
    X = alg.space
    ring = alg.ring
    p = lift.p
    period = 2 * (p - 1)
    failures = []
    checked = 0
    for q in [n for n in X.dims() if n <= degree_cap]:
        for _, xrep in alg.homology_space(q).all_classes():
            if not xrep:
                continue
            for n in range(index_cap + 1):
                out_deg = p * q - n
                if out_deg < 0 or out_deg not in X.dims():
                    continue
                checked += 1
                z = theta_bar(X, ring, lift, n, xrep, q)
                coords = alg.homology_space(out_deg).class_vector(z)
                if coords is None:
                    failures.append({"check": "vanishing-cocycle",
                                     "witness": (q, n)})
                    continue
                if any(not ring.is_zero(ring.normalize(c))
                       for c in coords):
                    if q % 2 == 0:
                        ok = n % period in (0, period - 1)
                    else:
                        ok = n % period in ((p - 1) % period,
                                            (p - 2) % period)
                    if not ok:
                        failures.append({"check": "vanishing-pattern",
                                         "witness": (q, n, coords)})
    failures.sort(key=repr)
    return {"passed": not failures, "checked": checked,
            "failures": failures}


def full_product_coordinates(classifier, P, terms, n):
    """The coordinates of sum sign * (a cross b) over the terms (a, deg a,
    b, deg b, sign): the sum is built as a cochain on the product space
    P = X x Y, one cochain_cross per term, and paired through the
    classifier's table, which ProductClassifier.cross_coordinates must
    match without building it."""
    ring = classifier.ring
    cochain = {}
    for a, qa, b, qb, sign in terms:
        add_scaled(cochain, sign, cochain_cross(
            classifier.X, classifier.Y, ring, a, qa, b, qb, P), ring)
    return classifier.coordinates(cochain, n)
