"""Benchmark of opstable: three workloads, each timed end to end from outside.

    python3 perfbench/run.py --workload {book,inference,oracle} --seed N
                             --seconds T --trace {0,1}

Run from the root of a source checkout (the package is imported from src/).
The run launches fresh single-threaded interpreters:

  * SETUP_LAUNCHES set-up launches (import, load the configs, build the
    models), after one unmeasured launch; setup_s is their median;
  * one workload process that warms up on inputs of another seed, then runs
    whole rounds of the workload for --seconds and reports every output;
  * with --trace 1, a second, traced workload process on the same inputs.

Outputs are checked here, in this process, which never imports the package.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  A fuller record goes to
perfbench/results/.

Times are given at a reference machine speed.  The host's speed drifts by
tens of percent over seconds, so the workload process times a fixed
calibration kernel (child.Calibration) before every operation and after the
last one of a round; each operation's wall time is scaled by
CAL_REF_S / (mean of the two kernel times around it).  Set-up launches are
scaled by the kernel time measured in the same launch.  Raw wall times are
kept in the record under results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

SETUP_LAUNCHES = 11
CHILD_TIMEOUT_S = 150
# Calibration kernel time taken as the reference speed: about its median on
# the 2-core host the reference figures in README.md come from.
CAL_REF_S = 0.65e-3
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(SINGLE_THREAD)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics: (name, unit).  call1..call3 and cli are the time per
# call of the workload's four operation classes (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call1_ms", "ms"),
    ("call2_ms", "ms"),
    ("call3_ms", "ms"),
    ("cli_ms", "ms"),
)


def _child_cmd(args, config_dir, extra=()):
    return [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--configs", config_dir, *extra]


def _launch(cmd):
    """Run a child to completion.

    Returns (seconds from launch to its "ready" line, its last stdout line).
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process timed out: {' '.join(cmd)}")
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{err[-3000:]}")
    return ready, json.loads(out.strip().splitlines()[-1])


def measure_setup(args, config_dir):
    """Median over launches of launch-to-ready time, each at reference speed."""
    cmd = _child_cmd(args, config_dir, ["--setup-only"])
    _launch(cmd)  # fills the bytecode and file caches
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        ready, out = _launch(cmd)
        raw.append(ready)
        scaled.append(ready * CAL_REF_S / out["cal_s"])
    return statistics.median(scaled), statistics.median(raw)


def interquartile_mean(values):
    """Mean of the values between the first and third quartile."""
    v = np.sort(np.asarray(values, dtype=float))
    lo, hi = len(v) // 4, len(v) - len(v) // 4
    return float(v[lo:hi].mean()) if hi > lo else float(v.mean())


def class_times(workload, samples):
    """Time per call of each class from per-call samples keyed (class, config).

    Each stratum (the operations of one class on one config) gives the
    interquartile mean of its samples; the class's figure is the mean of its
    strata weighted by their calls over a cycle of rounds.  A class with a
    stratum that has no sample is None: it could not be measured.
    """
    out = {}
    for cls, weights in workloads.stratum_weights(workload).items():
        parts = [(w, samples.get((cls, cfg))) for cfg, w in weights.items()]
        out[f"{cls}_ms"] = (None if any(not v for _, v in parts) else
                            sum(w * interquartile_mean(v) for w, v in parts)
                            / sum(w for w, _ in parts))
    return out


def evaluate(workload, seed, result):
    """Times, counts and checks of one workload process.

    Every operation is attempted once; it fails if it raised or if any check
    of its output found a problem, and then counts once in ``failed``.
    Times per call come from the operations that did not raise, each scaled
    to reference speed by the calibration times around it.
    """
    cfgs = workloads.configs(workload)
    mcf_ref = checks.load_mcf_reference() if workload == "inference" else None
    scaled, raw = {}, {}
    attempted = 0
    failed_ops = set()
    errors, problems = [], []
    round_s = []
    for r, rec in enumerate(result["rounds"]):
        ops = workloads.round_ops(workload, seed, r)
        cal = rec["cal"]
        done = []
        round_s.append(0.0)
        for j, (op, o) in enumerate(zip(ops, rec["ops"])):
            attempted += 1
            if "error" in o:
                failed_ops.add((r, j))
                errors.append(f"round {r} {op['kind']}: {o['error']}")
                continue
            done.append(j)
            dt = o["dt"] * CAL_REF_S / (0.5 * (cal[j] + cal[j + 1]))
            round_s[-1] += dt
            key = (op["cls"], op["cfg"])
            scaled.setdefault(key, []).append(1e3 * dt / op["calls"])
            raw.setdefault(key, []).append(1e3 * o["dt"] / op["calls"])
        found = checks.check_round(workload, [ops[j] for j in done],
                                   [rec["ops"][j]["out"] for j in done], cfgs, mcf_ref)
        for i, msg in found:
            failed_ops.add((r, done[i]))
            problems.append(f"round {r} {ops[done[i]]['kind']}: {msg}")
    raw_times = class_times(workload, raw)
    raw_times["calibration_ms"] = 1e3 * float(np.median([x for rec in result["rounds"]
                                                         for x in rec["cal"]]))
    return {"metrics": class_times(workload, scaled), "raw": raw_times,
            "round_s": round_s, "attempted": attempted,
            "failed": len(failed_ops), "errors": errors, "problems": problems}


def result_line(evaluations, metrics):
    """The benchmark's result: its outputs are correct when no completed
    operation failed a check and every metric could be measured."""
    correct = all(not ev["problems"] for ev in evaluations) and \
        all(m["value"] is not None for m in metrics.values())
    return {"correct": correct,
            "attempted": sum(ev["attempted"] for ev in evaluations),
            "failed": sum(ev["failed"] for ev in evaluations),
            "metrics": metrics}


def named_metrics(workload, seed, result):
    """The figures each workload's users would name, raw wall time, same samples."""
    samples: dict[str, list] = {}
    for r, rec in enumerate(result["rounds"]):
        for op, o in zip(workloads.round_ops(workload, seed, r), rec["ops"]):
            if "error" not in o:
                samples.setdefault(op["kind"], []).append((op, o["dt"]))

    def times_ms(kind):
        return np.array([dt for _, dt in samples.get(kind, [])]) * 1e3

    def percentile(kind, q):
        t = times_ms(kind)
        return float(np.percentile(t, q)) if len(t) else None

    def rate(kinds, work):
        pairs = [p for k in kinds for p in samples.get(k, [])]
        total = sum(dt for _, dt in pairs)
        return sum(work(op) for op, _ in pairs) / total if total else None

    if workload == "book":
        return {
            "quote_p50_ms": percentile("quote", 50),
            "quote_p99_ms": percentile("quote", 99),
            "quote_samples": len(times_ms("quote")),
            "hedge_p50_ms": percentile("hedge", 50),
            "grid_contracts_per_s": rate(["grid"], lambda op: len(op["strikes"])
                                         * len(op["maturities"])),
        }
    if workload == "inference":
        return {
            "cf_evals_per_s": rate(["selfsim"], lambda op: 2),
            "moments_per_s": rate(["moment"], lambda op: op["calls"]),
            "marginal_cf_per_s": rate(["mcf"], lambda op: 1),
            "density_points_per_s": rate(["density"], lambda op: op["points"]),
        }
    return {
        "mc_paths_per_s": rate(["mc", "sim"], lambda op: op["paths"]),
        "validate_p50_ms": percentile("validate", 50),
    }


def layer_metrics(traced):
    """Per-layer counts and self times per round of the traced run; self times
    at reference speed by the run's median calibration time."""
    trace = traced["trace"]
    n = len(traced["rounds"])
    speed = CAL_REF_S / float(np.median([x for rec in traced["rounds"] for x in rec["cal"]]))
    out = {}
    for name, unit in tracing.layer_metric_names():
        if name.endswith(".self_ms"):
            value = trace["self_ms"].get(name[: -len(".self_ms")], 0.0) * speed
        else:
            value = trace["counts"].get(name, 0)
        out[name] = {"value": value / n, "unit": unit}
    return out


def environment():
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="opstable benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opstable", "__init__.py")):
        print(f"no package source at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    config_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    workloads.write_configs(args.workload, config_dir)
    try:
        return _run(args, config_dir)
    finally:
        for name in os.listdir(config_dir):
            os.remove(os.path.join(config_dir, name))
        os.rmdir(config_dir)


def _run(args, config_dir) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    if args.trace == 0:
        setup_s, setup_raw_s = measure_setup(args, config_dir)
    _, plain = _launch(_child_cmd(args, config_dir))
    evaluations = [evaluate(args.workload, args.seed, plain)]
    record.update(rounds=len(plain["rounds"]), raw=evaluations[0]["raw"],
                  named=named_metrics(args.workload, args.seed, plain))

    if args.trace == 0:
        metrics = dict(evaluations[0]["metrics"], setup_s=setup_s,
                       peak_rss_mb=plain["peak_rss_mb"])
        record["raw"]["setup_s"] = setup_raw_s
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        trace_file = os.path.join(RESULTS, f"trace-{tag}.csv.gz")
        _, traced = _launch(_child_cmd(args, config_dir, ["--trace-out", trace_file]))
        evaluations.append(evaluate(args.workload, args.seed, traced))
        # overhead over the rounds both runs completed (same inputs)
        n = min(len(plain["rounds"]), len(traced["rounds"]))
        plain_s, traced_s = (sum(ev["round_s"][:n]) for ev in evaluations)
        out_metrics = layer_metrics(traced)
        out_metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / plain_s - 1.0),
                                             "unit": "%"}
        record.update(
            traced_rounds=len(traced["rounds"]), spans=traced["trace"]["spans"],
            absent_functions=traced["trace"]["absent"],
            trace_file=os.path.relpath(trace_file, ROOT),
            traced_minus_untraced={
                k: None if v is None or evaluations[0]["metrics"][k] is None
                else v - evaluations[0]["metrics"][k]
                for k, v in evaluations[1]["metrics"].items()},
        )
        if traced["trace"]["absent"]:
            print("absent, not traced: " + ", ".join(traced["trace"]["absent"]))

    result = result_line(evaluations, out_metrics)
    errors = [e for ev in evaluations for e in ev["errors"]]
    problems = [p for ev in evaluations for p in ev["problems"]]
    unmeasured = [name for name, m in out_metrics.items() if m["value"] is None]
    record.update(errors=errors[:50], problems=problems[:50], unmeasured=unmeasured,
                  **result)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in (errors + problems)[:20]:
        print(line)
    if unmeasured:
        print("not measured, every operation of a stratum failed: " + ", ".join(unmeasured))
    print(json.dumps({"workload": args.workload, "rounds": record["rounds"],
                      "raw": record["raw"], "named": record["named"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
