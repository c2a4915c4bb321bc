"""Benchmark of markovbsde: one workload per run, every operation checked.

Run from the repository root:

    python3 benchmark/run.py --workload american_cli --seed 0 --seconds 30 --trace 0

A run times ``--seconds`` of whole cycles over the workload's fixed
operation list (the first cycle's outputs are the ones checked against
the references; every later cycle must reproduce them exactly) and
prints one JSON object as
the last line of standard output. With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics, from cycles
that alternate untraced and traced. Progress and failures go to
standard error. Outputs, inputs and trace files go to ``.bench_out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

WORKLOADS = ("american_cli", "mc_verify", "solver_family")
SETUP_REPEATS = 9
SETUP_FIRST = 3
# BLAS threads would contend with the single benchmark thread for the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="grid steps of the american_cli jobs (default 250)")
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up of the workload, print it and exit")
    return p.parse_args(argv)


def reference_kernel(np):
    """Fixed work outside the package, in the package's own mix: small
    numpy calls (searchsorted on a list, 3x3 products, exp, a 3x3 solve)
    and Python float formatting in a loop. Its median time in a run is the
    unit of ``cycle_ref``, which cancels part of the CPU's changes of
    speed."""
    a = np.array([[-1.0, 0.5, 0.2], [0.6, -0.9, 0.3], [0.4, 0.4, -0.5]])
    starts = [0.0, 0.25, 0.5, 0.75]
    y = np.ones(3)
    rows = []
    for k in range(200):
        j = int(np.searchsorted(starts, k / 200.0, side="right")) - 1
        g = a * np.exp(np.diag(a)[None, :] - a.T * (1.0 + 0.01 * j))
        np.fill_diagonal(g, np.diag(a) - 0.05)
        v = np.linalg.solve(g.T - 3.0 * np.eye(3), y)
        y = np.maximum(v, 0.1) + 1e-3 * (g.T @ y)
        rows.append("%.17g" % float(v[k % 3]))
    return rows


class Runner:
    """Runs whole cycles over the operations and keeps what checking needs:
    the first cycle's captures and, per operation, how many later
    captures differed from them."""

    def __init__(self, ops, np, workloads):
        self.ops = ops
        self.np = np
        self.wl = workloads
        self.first = None
        self.mismatch = [0] * len(ops)
        self.cycles = 0
        self.op_times = [[] for _ in ops]

    def kernel(self):
        t0 = perf_counter()
        reference_kernel(self.np)
        return perf_counter() - t0

    def cycle(self, tracer=None):
        """One pass. Returns the summed operation time and the cycle in
        kernel units: each operation's time over the mean of the kernel
        times just before and just after it, summed over the operations,
        so that the CPU's speed is read where each operation ran."""
        total = 0.0
        in_ref = 0.0
        captures = []
        k_before = self.kernel()
        for j, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = j
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # counted as a failed operation below
                result = exc
            dt = perf_counter() - t0
            if isinstance(result, Exception):
                cap = self.wl.Raised.of(result)
            else:
                cap = op.capture(result)
            if self.first is None:
                captures.append(cap)
            elif not self.wl.same(cap, self.first[j]):
                self.mismatch[j] += 1
            k_after = self.kernel()
            total += dt
            in_ref += dt / (0.5 * (k_before + k_after))
            self.op_times[j].append(dt)
            k_before = k_after
        if self.first is None:
            self.first = captures
        self.cycles += 1
        return total, in_ref

    def verdicts(self):
        """Failure message (or None) of each operation's first capture."""
        out = []
        for op, cap in zip(self.ops, self.first):
            if isinstance(cap, self.wl.Raised):
                ok = op.may_raise and cap.typed
                out.append(None if ok else f"raised {cap.name}: {cap.message}")
                continue
            try:
                out.append(op.check(cap))
            except Exception as exc:  # a check that cannot read the output fails
                out.append(f"check could not run: {exc!r}")
        return out


def setup_probe(args, script):
    cmd = [sys.executable, str(script), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.steps:
        cmd += ["--steps", str(args.steps)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                         check=True)
    return float(res.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    script = Path(__file__).resolve()
    root = script.parents[1]
    src = root / "src"
    if not (src / "markovbsde" / "__init__.py").is_file():
        print(f"no markovbsde sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore", RuntimeWarning)

    work = root / ".bench_out" / args.workload
    if args.setup_probe:
        t0 = perf_counter()
        import workloads
        workloads.build(args.workload, root, work.with_name(work.name + "-setup"),
                        args.seed, args.steps)
        print(repr(perf_counter() - t0))
        return 0

    # set-up time follows the CPU's speed, so the probes are spread over
    # the run: a few before the cycles, one after each cycle, the rest after
    setup = [setup_probe(args, script) for _ in range(SETUP_FIRST)]
    import numpy as np
    import markovbsde
    import workloads
    if not Path(markovbsde.__file__).resolve().is_relative_to(src.resolve()):
        print(f"markovbsde imported from {markovbsde.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, root, work, args.seed, args.steps)
    runner = Runner(wl.ops, np, workloads)

    times, ratios, traced, per_cycle = [], [], [], []
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    deadline = perf_counter() + args.seconds
    while True:
        t, r = runner.cycle()
        times.append(t)
        ratios.append(r)
        if tracer is not None:
            before = tracer.totals()
            tracer.install()
            try:
                t, _ = runner.cycle(tracer)
            finally:
                tracer.uninstall()
            traced.append(t)
            per_cycle.append((before, tracer.totals()))
        if len(setup) < SETUP_REPEATS:
            setup.append(setup_probe(args, script))
        if perf_counter() >= deadline:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(args, script))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = runner.verdicts()
    failed = 0
    correct = True
    for j, (op, msg) in enumerate(zip(wl.ops, verdicts)):
        bad = runner.cycles if msg else runner.mismatch[j]
        failed += bad
        if bad:
            correct = correct and bool(op.known_fault)
            why = msg or f"output changed in {bad} cycles"
            tag = f" [known fault: {op.known_fault}]" if op.known_fault else ""
            print(f"FAILED {op.label}: {why}{tag}", file=sys.stderr)
    for op, ts in zip(wl.ops, runner.op_times):
        print(f"op {statistics.median(ts):10.6f} s  {op.label}", file=sys.stderr)

    print(f"cycle_s {statistics.median(times):.6f} s (median of "
          f"{len(times)} untraced cycles)", file=sys.stderr)
    if tracer is None:
        # cycle_s itself moves with the CPU's speed between runs (see the
        # README), so only its ratio to the reference kernel is a metric
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "cycle_ref": (statistics.median(ratios), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(per_cycle)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(times), "s")
        path = wl.out_dir / f"trace-seed{args.seed}.npz"
        tracer.write(path)
        print(f"spans written to {path}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.cycles * len(wl.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(per_cycle):
    """Per traced cycle: calls and self time of every wrapped function
    (medians over the traced cycles) and the driver callbacks."""
    import tracing
    out = {}
    for i, name in enumerate(tracing.LAYERS):
        calls = [after[0][i] - before[0][i] for before, after in per_cycle]
        self_s = [after[1][i] - before[1][i] for before, after in per_cycle]
        out[f"{name}.calls"] = (statistics.median(calls), "count")
        out[f"{name}.self_s"] = (statistics.median(self_s), "s")
    evals = [after[2] - before[2] for before, after in per_cycle]
    out["bsde.driver_evals"] = (statistics.median(evals), "count")
    return out


if __name__ == "__main__":
    sys.exit(main())
