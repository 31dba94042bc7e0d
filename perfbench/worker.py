"""One round of a workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR \
        --out FILE [--spans FILE] [--size bench|gate]

A round is one verifier job (`cartan-bz3`, `adem-bz3`) or one pass over
the seeded request stream (`requests-mixed`).  Set-up, from the start of
this script to the first timed operation, covers the import of chainops
and the generation of the inputs.  The timed phase runs the round's
operations and nothing else; its outputs are written to FILE as JSON
and checked by `run.py` afterwards.  With --spans the chainops functions
named in `tracing.TRACED` are wrapped once the inputs are made, just
before the timed phase (the round's functions import them at call time,
so they get the wrappers), and the spans are written to that file when
the round ends.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_chainops():
    """Import chainops from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import chainops.cli
    import chainops.powerops  # noqa: F401
    where = os.path.dirname(os.path.abspath(chainops.cli.__file__))
    if where != os.path.join(SRC, "chainops"):
        raise SystemExit(f"chainops imported from {where}, not {SRC}")


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verifier_round(workload, job, path):
    from chainops.cli import parse_inputs
    from chainops.powerops import CochainSystem, verify_adem, verify_cartan
    from chainops.rings import Zmod
    import inputs

    start = time.perf_counter()
    X = parse_inputs(path)
    alg = CochainSystem(X, Zmod(job["p"]))
    if workload == "cartan-bz3":
        report = verify_cartan(alg, job["degree_cap"], job["p"],
                               smax=job["smax"], with_bockstein=True,
                               lift_cap=inputs.cartan_lift_cap(job))
    else:
        report = verify_adem(alg, job["p"], job["pair_bound"],
                             job["degree_cap"])
    wall = time.perf_counter() - start
    return wall, {"passed": report["passed"], "checked": report["checked"],
                  "failures": [repr(f) for f in report["failures"]]}


def requests_round(stream):
    from chainops.cli import main

    responses = []
    start = time.perf_counter()
    for req in stream:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(list(req.argv))
        except Exception:       # a crash is a wrong answer, not the end
            code = -1
            err.write(traceback.format_exc())
        responses.append((time.perf_counter() - t0, code, out.getvalue(),
                          err.getvalue()))
    wall = time.perf_counter() - start
    return wall, responses


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None,
                    help="trace this round and write its spans here")
    ap.add_argument("--size", default="bench", choices=("bench", "gate"))
    args = ap.parse_args()

    import_chainops()
    sys.path.insert(0, HERE)
    import inputs

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()

    os.makedirs(args.workdir, exist_ok=True)
    result = {}
    if args.workload == "requests-mixed":
        stream = inputs.request_stream(args.seed, args.workdir)
        result["setup_s"] = time.perf_counter() - SETUP_START
        if tracer is not None:
            tracer.install()
        wall, responses = requests_round(stream)
        result["requests"] = [
            {"kind": req.kind, "argv": req.argv, "expect": req.expect,
             "latency_s": lat, "code": code, "stdout": out, "stderr": err}
            for req, (lat, code, out, err) in zip(stream, responses)]
    else:
        job = {("cartan-bz3", "bench"): inputs.CARTAN,
               ("cartan-bz3", "gate"): inputs.CARTAN_GATE,
               ("adem-bz3", "bench"): inputs.ADEM,
               ("adem-bz3", "gate"): inputs.ADEM_GATE}[
                   (args.workload, args.size)]
        path = inputs.verifier_space(job, args.seed, args.workdir)
        result["setup_s"] = time.perf_counter() - SETUP_START
        if tracer is not None:
            tracer.install()
        wall, report = verifier_round(args.workload, job, path)
        result["job"] = job
        result["report"] = report
    result["wall_s"] = wall
    result["peak_rss_mib"] = peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.metrics()
        tracer.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
