"""Workload process: runs the program on seeded inputs and times it.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
It never checks answers; it prints one JSON line with timings and the raw
outputs, and run.py checks them in its own process.

  python3 perfbench/child.py --workload W --seed S --seconds T --configs DIR
         [--trace-out FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

WARM_SECONDS = 1.0


def _setup(workload: str, config_dir: str):
    """Import the package and load every config of the workload."""
    import opstable
    import opstable.cli

    paths = {name: os.path.join(config_dir, f"{name}.json")
             for name in workloads.configs(workload)}
    models = {name: opstable.cli.load_config(path) for name, path in paths.items()}
    return opstable, paths, models


def _cli(opstable, argv):
    """Run the CLI in-process; return its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = opstable.cli.main(argv)
    # validate exits 1 when a check fails; its rows are checked, not its code
    if rc not in (0, 1):
        raise RuntimeError(f"CLI exit code {rc}")
    return buf.getvalue()


class Runner:
    """Executes operations; ``run`` returns the raw outputs of one operation."""

    def __init__(self, opstable, paths, models):
        self.ops = opstable
        self.paths = paths
        self.models = models

    def contract(self, op, strike=None):
        o = self.ops
        return o.OptionContract(o.OptionStyle(op["style"]),
                                op["strike"] if strike is None else strike, op["tau"])

    def run(self, op):
        return getattr(self, "_" + op["kind"])(op)

    # book ------------------------------------------------------------------
    def _quote(self, op):
        model, quad = self.models[op["cfg"]]
        rep = self.ops.price_option(model, self.contract(op), op["spot"], 0.0, quad)
        return [rep.price]

    def _hedge(self, op):
        model, quad = self.models[op["cfg"]]
        res = self.ops.hedge_and_portfolio(model, self.contract(op), op["spot"], 0.0, quad)
        return [res.n_s, res.portfolio]

    def _grid(self, op):
        argv = ["price", self.paths[op["cfg"]], "--spot", repr(op["spot"]),
                "--strikes", ",".join(map(repr, op["strikes"])),
                "--maturities", ",".join(map(repr, op["maturities"])),
                "--style", op["style"], "--out", "csv"]
        text = _cli(self.ops, argv)
        rows = list(csv.DictReader(io.StringIO(text)))
        return [[float(r["strike"]), float(r["maturity"]), float(r["price"])] for r in rows]

    # inference -------------------------------------------------------------
    def _selfsim(self, op):
        o = self.ops
        model, _ = self.models[op["cfg"]]
        index = model.index
        k = [float(v) for v in op["k"]]
        lhs = o.char_fn(model, o.matrix_power(index, op["t"]) @ k, 1.0)
        rhs = o.char_fn(model, k, op["t"])
        radius, angle = o.jurek_decompose(index, k)
        rec = o.matrix_power(index, radius) @ angle
        return [lhs, rhs, *map(float, rec)]

    def _moment(self, op):
        model, _ = self.models[op["cfg"]]
        out = []
        for t in op["times"]:
            m = self.ops.fractional_moment(model, op["beta"], t)
            out += [m.real, m.imag]
        return out

    def _mcf(self, op):
        model, _ = self.models[op["cfg"]]
        v = self.ops.power_marginal_cf(model, op["beta"], op["k"], op["t"])
        return [v.real, v.imag]

    def _density(self, op):
        argv = ["density", self.paths[op["cfg"]], "--tau", repr(op["tau"]),
                "--xi-min", repr(op["xi_min"]), "--xi-max", repr(op["xi_max"]),
                "--points", str(op["points"])]
        text = _cli(self.ops, argv)
        rows = list(csv.DictReader(io.StringIO(text)))
        return [[float(r["xi"]), float(r["density"])] for r in rows]

    # oracle ----------------------------------------------------------------
    def _mc(self, op):
        model, _ = self.models[op["cfg"]]
        cfg = self.ops.SimConfig(n_paths=op["paths"], master_seed=op["mc_seed"])
        res = self.ops.mc_price(model, self.contract(op), op["spot"], 0.0, cfg)
        return [res.price, res.stderr]

    def _strip(self, op):
        model, quad = self.models[op["cfg"]]
        return [self.ops.price_option(model, self.contract(op, k), op["spot"], 0.0, quad).price
                for k in op["strikes"]]

    def _sim(self, op):
        model, _ = self.models[op["cfg"]]
        cfg = self.ops.SimConfig(n_paths=op["paths"], master_seed=op["mc_seed"])
        return self.ops.simulate_log_price(model, op["tau"], cfg)

    def sim_summary(self, op, x):
        """E[cos kX] with its stderr, and the program's char_fn at k sigma (untimed)."""
        import numpy as np

        model, _ = self.models[op["cfg"]]
        out = []
        for k in op["ks"]:
            c = np.cos(k * x)
            cf = self.ops.char_fn(model, k * model.sigma, op["tau"])
            out.append([float(c.mean()), float(c.std(ddof=1) / math.sqrt(len(x))), cf])
        return out

    def _validate(self, op):
        argv = ["validate", self.paths[op["cfg"]], "--suite", "all",
                "--samples", str(op["samples"]), "--seed", str(op["mc_seed"])]
        text = _cli(self.ops, argv)
        return [[r["suite"], r["check"], r["status"]] for r in json.loads(text)]


class Calibration:
    """A fixed piece of work, timed between operations to track machine speed.

    Its three parts resemble the program's own mix: a Python loop with
    scalar arithmetic and a dict, complex numpy arithmetic on 240 points (one
    set of quadrature panels) and real arithmetic on 15 000 points.  Nothing
    in it calls the package, so its time moves only with the machine.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.mid = np.linspace(0.01, 5.0, 240)
        self.big = np.linspace(0.0, 10.0, 15_000)

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0j
        for i in range(3):
            edges = [0.0]
            width, x = 0.05, 0.0
            while x < 5.0:
                x = min(x + width, 5.0)
                edges.append(x)
                width = min(width * 1.6, 1.0)
            e = np.asarray(edges)
            z = self.mid + 1j * (0.5 + 0.01 * i)
            f = np.exp(-0.3 * np.power(z * z, 0.85)) * np.sin(self.mid * 1.3) / self.mid
            acc += complex(f.sum()) + float((e[:-1] * np.diff(e)).sum())
            for j in range(40):
                d = {"a": acc.real, "b": j}
                acc += math.cos(j * 0.1) * 1e-3 + d["a"] * 1e-12
        big = self.big
        acc += float((np.sin(big) * np.exp(-big) + np.sqrt(big)).sum())
        return time.perf_counter() - t0


def run_rounds(runner, workload, seed, seconds, calibrate, tracer=None, min_rounds=1):
    """Whole rounds until `seconds` have passed and at least `min_rounds` are done.

    Each round records, per operation, its wall time and outputs (or the
    error it raised), and the calibration time before every operation and
    after the last one.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    op_id = 0
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rec = {"ops": [], "cal": []}
        for op in workloads.round_ops(workload, seed, len(rounds)):
            rec["cal"].append(calibrate())
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(f"bench.{op['cls']}"):
                        out = runner.run(op)
                else:
                    out = runner.run(op)
                dt = time.perf_counter() - t0
                if op["kind"] == "sim":
                    out = runner.sim_summary(op, out)
                rec["ops"].append({"dt": dt, "out": out})
            except Exception as exc:  # a failed operation is counted, not fatal
                rec["ops"].append({"dt": time.perf_counter() - t0,
                                   "error": f"{type(exc).__name__}: {exc}"})
            op_id += 1
        rec["cal"].append(calibrate())
        rounds.append(rec)
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--configs", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    warnings.simplefilter("ignore")
    opstable, paths, models = _setup(args.workload, args.configs)
    print("ready", flush=True)
    calibrate = Calibration()
    if args.setup_only:
        cal = sorted(calibrate() for _ in range(15))
        print(json.dumps({"cal_s": cal[len(cal) // 2]}))
        return 0

    runner = Runner(opstable, paths, models)
    run_rounds(runner, args.workload, args.seed + workloads.WARM_SEED_OFFSET,
               WARM_SECONDS, calibrate)

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # at least one cycle, so every class has a sample on every config
    rounds = run_rounds(runner, args.workload, args.seed, args.seconds, calibrate, tracer,
                        min_rounds=workloads.CYCLE[args.workload])
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
    }
    if tracer is not None:
        result["trace"] = {"counts": tracer.counts, "self_ms": tracer.self_times_ms(),
                           "absent": tracer.absent, "spans": len(tracer.spans)}
        tracer.write(args.trace_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
