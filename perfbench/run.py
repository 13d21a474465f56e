"""Benchmark harness for the jetsums package.

Usage:
  python3 perfbench/run.py --workload {scan,fibers,arcs,certify} --seed N
                           --seconds S --trace {0,1}

Load model: a closed loop with one client.  Each repetition runs the
workload's job list back to back in one fresh interpreter (so every module
cache starts empty, as in a command-line run), with one jetsums worker and
one BLAS/OpenMP thread.  Repetitions follow one another until ``--seconds``
is spent, with at least two of them.  Every job's exact answer is checked
against the oracle table in ``workloads.py``.

--trace 0 prints the end-to-end metrics:
  wall_s       median wall time of one repetition's job list (set-up excluded)
  setup_s      median time from spawning a worker until it is ready
               (interpreter, ``import jetsums``, form construction), over
               every repetition and a few set-up-only workers
  peak_rss_mb  median peak resident memory of a repetition's process
Both times are scaled by how fast the machine ran a fixed reference
computation meanwhile (``speed_factor``), since the host's speed drifts by
tens of percent over minutes; the unscaled median wall time is printed as
``measured_wall_s``.  The share of failed jobs (``failed_frac``) is printed
by name as well, and carried by the result's ``attempted`` and ``failed``
counts.

--trace 1 runs the two-worker scan probe and then pairs of one untraced and
one traced repetition, and prints the per-module metrics (medians over the
traced repetitions) with ``trace.overhead_frac``, the median traced wall
time over the median untraced one, minus one.  The spans of each traced
repetition are written to ``.bench_out/`` under the checkout root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import ORACLE, REFERENCE_OF, WORKLOADS  # noqa: E402

MIN_REPS = 2
SETUP_PROBES = 3
# a run stops starting repetitions after this long, so that it exits well
# inside three minutes even when the machine is slow
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 150.0
# Median times of worker.reference_s on the baseline machine, by the kind of
# reference each workload uses (workloads.REFERENCE_OF); perfbench/design.json
# records the runs they were measured in.
REFERENCE_S = {"python": 0.0134, "numpy": 0.0154}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Modules whose self time should dominate each workload (trace.target_share).
TARGETS = {
    "scan": ("counting.batch_digits", "counting.batch_eval_form",
             "counting.batch_generating_mask"),
    "fibers": ("counting.mult_matrix", "counting.unfolded_mult_matrix", "forms.",
               "linalg.", "expsums.value_histogram", "expsums.slice_histogram",
               "expsums.pair_data", "expsums.char_transform"),
    "arcs": ("sections.", "expsums.n_count", "arith."),
    "certify": ("bounds.",),
}


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: dict, wall: float, workload: str) -> dict:
    """Per-module metrics of one traced repetition, as (value, unit)."""
    calls, self_s, incl, k = t["calls"], t["self_s"], t["incl_s"], t["counts"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    scan_s = sum(s(f"counting.{n}") for n in
                 ("batch_digits", "batch_eval_form", "batch_generating_mask"))
    rows = k.get("scan.rows", 0)
    target = sum(v for name, v in self_s.items()
                 if name.startswith(TARGETS[workload]))
    out = {
        "counting.batch_digits.self_s": (s("counting.batch_digits"), "s"),
        "counting.batch_eval_form.self_s": (s("counting.batch_eval_form"), "s"),
        "counting.batch_generating_mask.self_s": (s("counting.batch_generating_mask"), "s"),
        "counting.scan.rows": (rows, "count"),
        "counting.scan.rows_per_s": (_ratio(rows, scan_s), "1/s"),
        "counting.generating_mask.useful_frac":
            (_ratio(k.get("scan.solutions", 0), rows), "ratio"),
        "counting.mult_matrix.calls": (c("counting.mult_matrix"), "count"),
        "counting.mult_matrix.self_s": (s("counting.mult_matrix"), "s"),
        "counting.unfolded_mult_matrix.calls": (c("counting.unfolded_mult_matrix"), "count"),
        "counting.unfolded_mult_matrix.self_s": (s("counting.unfolded_mult_matrix"), "s"),
        "forms.gradient.calls": (c("forms.gradient"), "count"),
        "forms.gradient.self_s": (s("forms.gradient"), "s"),
        "forms.eval_form.calls": (c("forms.eval_form"), "count"),
        "forms.eval_form.self_s": (s("forms.eval_form"), "s"),
        "linalg.rref.calls": (c("linalg.rref"), "count"),
        "linalg.rref.self_s": (s("linalg.rref"), "s"),
        "linalg.rref.rows": (k.get("rref.rows", 0), "count"),
        "linalg.span_elements.calls": (c("linalg.span_elements"), "count"),
        "linalg.span_elements.self_s": (s("linalg.span_elements"), "s"),
        "linalg.span_elements.vectors": (k.get("span_elements.vectors", 0), "count"),
        "expsums.value_histogram.s": (incl.get("expsums.value_histogram", 0.0), "s"),
        "expsums.pair_data.s": (incl.get("expsums.pair_data", 0.0), "s"),
        "expsums.slice_histogram.s": (incl.get("expsums.slice_histogram", 0.0), "s"),
        "expsums.char_transform.self_s": (s("expsums.char_transform"), "s"),
        "expsums.char_transform.cells": (k.get("char_transform.cells", 0), "count"),
        "expsums.cache.reuse_frac":
            (_ratio(k.get("cache.reuses", 0), k.get("cache.calls", 0)), "ratio"),
        "expsums.n_count.calls": (c("expsums.n_count"), "count"),
        "expsums.n_count.self_s": (s("expsums.n_count"), "s"),
        "sections.minimal_divisor_table.s":
            (incl.get("sections.minimal_divisor_table", 0.0), "s"),
        "sections.factors_through.calls": (c("sections.factors_through"), "count"),
        "sections.divisor_scan.useful_frac":
            (_ratio(k.get("divisor_scan.functionals", 0),
                    c("sections.factors_through")), "ratio"),
        "arith.compare_abs_power.calls": (c("arith.compare_abs_power"), "count"),
        "arith.compare_abs_power.self_s": (s("arith.compare_abs_power"), "s"),
        "arith.compare_abs_power.undecided_frac":
            (_ratio(k.get("compare_abs_power.undecided", 0),
                    c("arith.compare_abs_power")), "ratio"),
        "bounds.certify.canonical.s": (k.get("certify.canonical.s", 0.0), "s"),
        "bounds.certify.terminal.s": (k.get("certify.terminal.s", 0.0), "s"),
        "bounds.certify.points": (k.get("certify.points", 0), "count"),
        "bounds.certify.points_per_s":
            (_ratio(k.get("certify.points", 0), incl.get("bounds.certify", 0.0)), "1/s"),
        "bounds.pair_gain.calls": (c("bounds.pair_gain"), "count"),
        "parallel.map_reduce.s": (incl.get("parallel.map_reduce", 0.0), "s"),
        "parallel.shards": (k.get("map_reduce.shards", 0), "count"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (t["spans"], "count"),
        "trace.target_share": (_ratio(target, wall), "ratio"),
    }
    return out


def speed_factor(refs: list[dict], kind: str) -> float:
    """Reference time on the baseline machine over the mean of the reference
    times measured inside a worker.  Scaling a worker's times by this factor
    removes most of the host's speed drift, since no change to the package
    can change the reference computation."""
    return REFERENCE_S[kind] / statistics.fmean(r[kind] for r in refs)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["JETSUMS_WORKERS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(spec: dict, timeout: float) -> tuple[dict, float]:
    """Spawn one worker; returns (its result, spawn time on the monotonic clock)."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(), cwd=str(ROOT), text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise TimeoutError(f"{spec['mode']} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(
            f"{spec['mode']} worker exited with {proc.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1]), spawned


class Run:
    """One invocation: repetitions of one workload and their results."""

    def __init__(self, args):
        self.args = args
        self.t_begin = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.measured_wall_s = None
        self.span_dir = ROOT / ".bench_out"
        self.inputs = self._worker({"mode": "inputs"})[0]

    def elapsed(self) -> float:
        return time.monotonic() - self.t_begin

    def _timeout(self) -> float:
        return max(10.0, CHILD_TIMEOUT_S - self.elapsed())

    def _worker(self, extra: dict):
        spec = {"workload": self.args.workload, "seed": self.args.seed,
                "tiny": self.args.tiny, **extra}
        return run_worker(spec, self._timeout())

    def setup_probe(self, record: bool = True) -> None:
        res, spawned = self._worker({"mode": "setup", "inputs": self.inputs})
        if record:
            self.setup.append((res["ready"] - spawned) * speed_factor(res["refs"], "python"))

    def rep(self, rep_id: int, trace: bool):
        """One repetition; returns its result, or None if its worker died."""
        spec = {"mode": "rep", "inputs": self.inputs, "trace": trace, "rep": rep_id}
        if trace:
            self.span_dir.mkdir(exist_ok=True)
            spec["span_file"] = str(
                self.span_dir
                / f"spans-{self.args.workload}-seed{self.args.seed}-rep{rep_id}.json"
            )
        try:
            res, spawned = self._worker(spec)
        except TimeoutError as exc:
            self.failures.append(str(exc))
            prefix = ("tiny." if self.args.tiny else "") + self.args.workload + "."
            njobs = sum(key.startswith(prefix) for key in ORACLE)
            self.attempted += njobs
            self.failed += njobs
            return None
        # set-up is scaled by the reference run as it ended, the job list by
        # the ones run after each job
        refs = res["refs"]
        self.setup.append((res["ready"] - spawned) * speed_factor(refs[:1], "python"))
        res["measured_wall_s"] = res["wall_s"]
        res["wall_s"] *= speed_factor(refs[1:], REFERENCE_OF[self.args.workload])
        for job in res["jobs"]:
            self.attempted += 1
            if not job["ok"]:
                self.failed += 1
                self.failures.append(f"{job['job']}: got {job['value']}")
        return res

    def more(self, durations: list[float], minimum: int) -> bool:
        if self.elapsed() > HARD_STOP_S:
            return False
        if len(durations) < minimum:
            return True
        return self.elapsed() + statistics.median(durations) <= self.args.seconds

    def measure(self) -> dict:
        self.setup_probe(record=False)  # warm the file and bytecode caches
        walls, measured, rss, durations = [], [], [], []
        while self.more(durations, MIN_REPS):
            t0 = time.monotonic()
            res = self.rep(len(durations), trace=False)
            durations.append(time.monotonic() - t0)
            if res is None:
                break
            walls.append(res["wall_s"])
            measured.append(res["measured_wall_s"])
            rss.append(res["peak_rss_mb"])
        for _ in range(SETUP_PROBES):
            self.setup_probe()
        if not walls:
            raise HarnessError("no repetition completed")
        self.reps = len(walls)
        self.measured_wall_s = statistics.median(measured)
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": statistics.median(rss),
        }

    def measure_traced(self) -> dict:
        self.setup_probe(record=False)
        speed = self._worker({"mode": "speedup"})[0]
        if not (speed["w1_ok"] and speed["w2_ok"]):
            self.failures.append("parallel probe: conic(5) count differs from 480")
            self.failed += 1
        self.attempted += 1
        # untraced and traced repetitions alternate, so both medians see the
        # same drift of the machine's speed
        per_rep, untraced, traced, durations = [], [], [], []
        while self.more(durations, 1):
            t0 = time.monotonic()
            base = self.rep(2 * len(durations), trace=False)
            res = base and self.rep(2 * len(durations) + 1, trace=True)
            durations.append(time.monotonic() - t0)
            if res is None:
                break
            untraced.append(base["wall_s"])
            per_rep.append(layer_metrics(res["trace"], res["measured_wall_s"],
                                         self.args.workload))
            traced.append(res["wall_s"])
        if not per_rep:
            raise HarnessError("no traced repetition completed")
        self.reps = len(per_rep)
        metrics = {
            name: statistics.median(r[name][0] for r in per_rep)
            for name in per_rep[0]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1
        )
        metrics["parallel.speedup_2w"] = speed["w1_s"] / speed["w2_s"]
        units = {name: unit for name, (_, unit) in per_rep[0].items()}
        units.update({"trace.overhead_frac": "ratio", "parallel.speedup_2w": "ratio"})
        return {name: (value, units[name]) for name, value in metrics.items()}


def machine() -> dict:
    info = {"python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count()}
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run the smoke-test job lists (see smoke.py)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "jetsums" / "__init__.py").is_file():
        print(f"error: no jetsums sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = Run(args)
        if args.trace:
            metrics = run.measure_traced()
        else:
            m = run.measure()
            metrics = {name: (m[name], unit) for name, unit in END_TO_END.items()}
    except (HarnessError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in run.failures:
        print(f"FAILED {line}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reps={run.reps} elapsed_s={run.elapsed():.1f} {json.dumps(machine())}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if run.measured_wall_s is not None:
        print(f"measured_wall_s {run.measured_wall_s:.6g} s")
    print(f"failed_frac {_ratio(run.failed, run.attempted):.6g} ratio")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
