"""Span tracing of chainops' public functions, installed from outside.

`Tracer.install` replaces each traced function with a wrapper in every
chainops module namespace that holds it (the defining module and every
module that imported it by name), and each traced method or constructor
on its class.  A wrapper records one span per call: name, start, end and
the index of the enclosing span.  Spans stay in memory until `write`.

A layer's self time is its span's duration minus the time covered by
its child spans; the tracer accumulates it per name as the spans close.
"""

import functools
import inspect
import json
import sys
import time
from array import array

# (module, attribute path) of every traced function.  A class name alone
# traces its constructor; "Class.method" traces that method.
TRACED = (
    ("cli", "main"),
    ("cli", "parse_inputs"),
    ("cli", "render"),
    ("powerops", "equivariant_lift_j"),
    ("powerops", "build_w"),
    ("powerops", "theta_bar"),
    ("powerops", "power_op"),
    ("powerops", "classical_power"),
    ("powerops", "steenrod_square"),
    ("powerops", "cochain_cross"),
    ("powerops", "ProductClassifier.coordinates"),
    ("operads", "surjection_boundary"),
    ("operads", "interval_cut_action"),
    ("operads", "check_operad_axioms"),
    ("operads", "check_einfinity"),
    ("simplicial", "product_space"),
    ("simplicial", "chains"),
    ("simplicial", "cochains"),
    ("freemod", "FreeModuleMap"),
    ("freemod", "FreeModuleMap.compose"),
    ("homology_classes", "HomologySpace"),
    ("homology_classes", "HomologySpace.class_vector"),
    ("linalg", "kernel_matrix"),
    ("linalg", "rref"),
    ("linalg", "smith_normal_form_matrix"),
    ("linalg", "solve_matrix"),
    ("linalg", "integer_quotient"),
    ("complexes", "homology"),
    ("complexes", "verify_differential"),
    ("dold_kan", "normalize"),
    ("dold_kan", "denormalize"),
    ("cubical", "dnc"),
    ("cubical", "nc"),
    ("cubical", "dnc_inclusion"),
    ("cubical", "dnc_projection"),
    ("bar_hopf", "reduced_bar"),
    ("bar_hopf", "h0_hopf"),
    ("bar_hopf", "HopfData.verify"),
    ("bar_hopf", "indecomposables"),
    ("bar_hopf", "CoLieData.verify_co_jacobi"),
    ("bar_hopf", "check_connected"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)


class Tracer:
    """Records spans around the traced functions of one process."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self._stack = []
        # per lift object: [cap passed to equivariant_lift_j, highest
        # index theta_bar was asked to evaluate]
        self._lifts = {}
        self._installed = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, nid, fn, hook=None):
        starts, ends = self.starts, self.ends
        name_ids, parents = self.name_ids, self.parents
        stack, self_s, calls = self._stack, self.self_s, self.calls
        total_s = self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            frame = [0.0]
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append((idx, frame))
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                span = end - start
                self_s[nid] += span - frame[0]
                total_s[nid] += span
                calls[nid] += 1
                if stack:
                    stack[-1][1][0] += span
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- lift index use ---------------------------------------------------

    def _lift_built(self, args, kwargs, lift):
        cap = kwargs["cap"] if "cap" in kwargs else args[2]
        self._lifts[id(lift)] = [cap, 0, lift]

    def _theta_evaluated(self, args, kwargs, _result):
        lift = kwargs["lift"] if "lift" in kwargs else args[2]
        n = kwargs["n"] if "n" in kwargs else args[3]
        entry = self._lifts.get(id(lift))
        if entry is not None and n > entry[1]:
            entry[1] = n

    def lift_index_use(self):
        """Highest generator index evaluated over the cap built, summed
        over every lift built (0.0 when no lift was built)."""
        caps = sum(e[0] for e in self._lifts.values())
        used = sum(e[1] for e in self._lifts.values())
        return used / caps if caps else 0.0

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function; call `uninstall` to restore."""
        import chainops.cli  # noqa: F401  (loads every traced module)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("chainops.") and mod is not None}
        hooks = {"powerops.equivariant_lift_j": self._lift_built,
                 "powerops.theta_bar": self._theta_evaluated}
        for nid, (modname, path) in enumerate(TRACED):
            name = SPAN_NAMES[nid]
            home = modules["chainops." + modname]
            parts = path.split(".")
            if len(parts) == 2 or inspect.isclass(getattr(home, parts[0])):
                cls = getattr(home, parts[0])
                attr = parts[1] if len(parts) == 2 else "__init__"
                fn = cls.__dict__[attr]
                self._set(cls, attr, fn, self._wrap(nid, fn))
                continue
            fn = getattr(home, path)
            if inspect.isgeneratorfunction(fn):
                raise TypeError(f"{name} is a generator; spans would close "
                                "before its work is done")
            wrapper = self._wrap(nid, fn, hooks.get(name))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, fn, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------

    def metrics(self):
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.total_s"] = self.total_s[nid]
            out[f"{name}.calls"] = self.calls[nid]
        out["powerops.lift_index_use"] = self.lift_index_use()
        return out

    def write(self, path):
        """Write the spans as JSON: span names, then one row per span of
        [name index, start, end, parent span index or -1]."""
        with open(path, "w") as fh:
            fh.write('{"names": ')
            json.dump(self.names, fh)
            fh.write(', "columns": ["name", "start", "end", "parent"], '
                     '"spans": [\n')
            rows = zip(self.name_ids, self.starts, self.ends, self.parents)
            first = True
            for nid, start, end, parent in rows:
                if not first:
                    fh.write(",\n")
                fh.write(f"[{nid},{start!r},{end!r},{parent}]")
                first = False
            fh.write("\n]}\n")
