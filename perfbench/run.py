"""The chainops benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md): `cartan-bz3`, `adem-bz3`, `requests-mixed`.
A run repeats whole rounds in fresh processes, one at a time, until S
seconds have passed (at least MIN_ROUNDS rounds): one verifier job per
round, or one pass over the seeded request stream.  Every round's
outputs are checked after its timer stopped.  The last line printed is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run alternates untraced and traced rounds and
reports the difference of their median wall times as the tracing
overhead.  The result goes to .bench_out/result-*.json and the spans of
every traced round to .bench_out/spans/.

`--size gate` runs one traced verifier job at the acceptance-gate size
(BZ/3 to dimension 4 for Cartan, 8 for Adem) and prints its metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cartan-bz3", "adem-bz3", "requests-mixed")
MIN_ROUNDS = 4
# A run must end within 180 s: a bench round takes 2 to 7 s, so no new
# round starts after 100 s and none may take more than 60 s.  A gate-size
# job takes minutes.
ROUND_TIMEOUT_S = {"bench": 60, "gate": 1200}
STOP_STARTING_S = 100

sys.path.insert(0, HERE)


def run_round(args, index, traced, size="bench"):
    name = f"{args.workload}-s{args.seed}-t{args.trace}-r{index}"
    out = os.path.join(OUT, "rounds", name + ".json")
    spans = os.path.join(OUT, "spans", name + ".json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", os.path.join(OUT, "inputs", name), "--out", out,
           "--size", size]
    if traced:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT,
                          timeout=ROUND_TIMEOUT_S[size],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    latency = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"round {name} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    with open(out) as fh:
        result = json.load(fh)
    result["process_s"] = latency
    return result


def check_rounds(workload, rounds):
    """Returns (attempted, failed, problems) over every round."""
    import checks

    attempted = failed = 0
    problems = []
    if workload != "requests-mixed":
        kind = workload.split("-")[0]
        for r in rounds:
            attempted += 1
            bad = checks.check_job(r["job"], kind, r["report"])
            if bad:
                problems.append(bad)
        missed = checks.job_negative_control(rounds[0]["job"], kind,
                                             rounds[0]["report"])
        problems.extend(f"negative control: {kind} checker accepted a "
                        f"corrupted {m}" for m in missed)
        return attempted, failed, problems

    samples = {}
    fault = None
    for r in rounds:
        for resp in r["requests"]:
            attempted += 1
            try:
                report = json.loads(resp["stdout"]) if resp["stdout"] \
                    else None
            except ValueError:
                report = None
            if checks.known_fault_failure(resp, resp["code"], report):
                failed += 1
                fault = fault or (resp, report)
                continue
            bad = checks.check_response(resp, resp["code"], report)
            if bad:
                problems.append(f"{' '.join(resp['argv'])}: {bad} "
                                f"{resp['stderr'][-300:]}")
            else:
                samples.setdefault(resp["argv"][0], (resp, report))
    problems.extend(f"negative control: {c} checker accepted a corrupted "
                    "report" for c in checks.negative_control(samples))
    if fault is not None:
        problems.extend(f"negative control: known fault: {m}"
                        for m in checks.known_fault_control(*fault))
    return attempted, failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, rounds):
    m = {
        "setup_s": metric(statistics.median(r["setup_s"] for r in rounds),
                          "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mib": metric(
            statistics.median(r["peak_rss_mib"] for r in rounds), "MiB"),
    }
    if workload == "requests-mixed":
        lat = [resp["latency_s"] * 1000.0
               for r in rounds for resp in r["requests"]]
    else:
        # a verifier request is one job in a fresh process, as a client
        # launching the CLI waits for it: start to exit
        lat = [r["process_s"] * 1000.0 for r in rounds]
    m["request_p50_ms"] = metric(statistics.median(lat), "ms")
    # inclusive: with the 13 to 17 jobs of a verifier run the 90th
    # percentile falls between the second and third slowest, not at the
    # slowest
    m["request_p90_ms"] = metric(
        statistics.quantiles(lat, n=10, method="inclusive")[-1], "ms")
    return m


def repeat_time_share(rounds):
    """Median over rounds of the share of the timed requests' latency
    spent on exact repeats of a request served earlier in the round; 0
    on the verifier workloads, which serve one job per process."""
    shares = []
    for r in rounds:
        seen, repeat, total = set(), 0.0, 0.0
        for resp in r.get("requests", ()):
            key = tuple(resp["argv"])
            total += resp["latency_s"]
            if key in seen:
                repeat += resp["latency_s"]
            seen.add(key)
        shares.append(repeat / total if total else 0.0)
    return statistics.median(shares)


def per_layer(plain, traced):
    from tracing import SPAN_NAMES

    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = metric(statistics.median(
            r["trace"][f"{name}.self_s"] for r in traced), "s")
        m[f"{name}.calls"] = metric(statistics.median(
            r["trace"][f"{name}.calls"] for r in traced), "count")
    m["powerops.equivariant_lift_j.total_s"] = metric(statistics.median(
        r["trace"]["powerops.equivariant_lift_j.total_s"] for r in traced),
        "s")
    m["powerops.lift_index_use"] = metric(statistics.median(
        r["trace"]["powerops.lift_index_use"] for r in traced), "ratio")
    # latencies of untraced rounds where there are any
    m["requests.repeat_time_share"] = metric(
        repeat_time_share(plain or traced), "ratio")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    m["trace.wall_s"] = metric(traced_wall, "s")
    if plain:
        m["trace.overhead_s"] = metric(
            traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "gate"), default="bench")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "chainops", "cli.py")):
        print(f"benchmark: no chainops sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.size == "gate" and args.workload == "requests-mixed":
        ap.error("--size gate applies to the verifier workloads")
    for sub in ("rounds", "inputs", "spans"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)

    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    try:
        if args.size == "gate":
            traced.append(run_round(args, 0, True, size="gate"))
        else:
            while True:
                elapsed = time.perf_counter() - start
                if index >= MIN_ROUNDS and elapsed >= args.seconds:
                    break
                if elapsed >= STOP_STARTING_S and index >= 2:
                    break
                with_trace = bool(args.trace) and index % 2 == 1
                (traced if with_trace else plain).append(
                    run_round(args, index, with_trace))
                index += 1
    finally:
        for sub in ("rounds", "inputs"):
            shutil.rmtree(os.path.join(OUT, sub), ignore_errors=True)

    rounds = plain + traced
    attempted, failed, problems = check_rounds(args.workload, rounds)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace or args.size == "gate":
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(args.workload, rounds)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    if args.size == "gate":
        name = f"result-{args.workload}-gate.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
