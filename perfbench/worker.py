"""One benchmark process: set up, run one workload's job list, report.

Usage: python3 worker.py '<json spec>'

The spec's "mode" is one of
  inputs   draw the seeded inputs of a workload (the scan cubic);
  setup    set up and exit, for set-up time samples;
  rep      set up, run the job list once and check every answer;
  speedup  time the conic(5) scan with one worker and with two.
The last line of standard output is a JSON object with the result.  The
set-up mark ``ready`` is read from the system-wide monotonic clock, so the
harness can subtract the moment it spawned this process.  ``refs`` holds
the times of a fixed computation (``reference_s``) run when set-up ends and
after every job, from which the harness tells how fast the machine ran.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def reference_s() -> dict[str, float]:
    """Seconds taken by two fixed computations that no change to the package
    can affect, each the median of three runs: interpreter-bound integer and
    dict work with small-array numpy calls in between, and in-place numpy
    arithmetic alone."""
    import numpy as np

    arr = np.arange(1 << 15, dtype=np.int64)
    out = np.empty_like(arr)
    python, numpy = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(60_000):
            acc += i * i % 7
            table[i % 97] = table.get(i % 97, 0) + acc
            if i % 4000 == 0:
                acc += int((arr[:64] * acc % 5).sum())
        t1 = time.perf_counter()
        for k in range(100):
            np.multiply(arr, arr, out=out)
            out += k
            np.remainder(out, 5, out=out)
            acc += int(out.sum())
        python.append(t1 - t0)
        numpy.append(time.perf_counter() - t1)
    return {"python": sorted(python)[1], "numpy": sorted(numpy)[1]}


def _inputs(spec: dict) -> dict:
    if spec["workload"] != "scan":
        return {}
    from jetsums import cli
    from workloads import CUBIC_DRAW_SEEDS, CUBIC_MONOMIALS

    draw = CUBIC_DRAW_SEEDS[spec["seed"] % len(CUBIC_DRAW_SEEDS)]
    F = cli.random_smooth_form(5, 2, 3, draw)
    if len(F.monomials) != CUBIC_MONOMIALS:
        sys.exit(f"random_smooth_form(5, 2, 3, {draw}) has {len(F.monomials)} "
                 f"monomials, not {CUBIC_MONOMIALS}")
    return {"cubic_monomials": sorted([list(ex), c] for ex, c in F.monomials.items())}


def _speedup() -> dict:
    from jetsums import counting, forms

    F = forms.conic_form(5)
    out = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        raw = counting.count_solutions(F, 2, 0, workers=workers).raw_count
        out[f"w{workers}_s"] = time.perf_counter() - t0
        out[f"w{workers}_ok"] = raw == 480
    return out


def _rep(spec: dict, forms_built: dict, refs: list[dict]) -> dict:
    from workloads import ORACLE, jobs

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["rep"])
        tracer.install()
    results, wall = [], 0.0
    for key, thunk in jobs(spec["workload"], spec["tiny"], spec["seed"]):
        t0 = time.perf_counter()
        try:
            value = thunk(forms_built)
            ok = value == ORACLE[key]
        except Exception as exc:  # every failure mode of a job is counted
            value, ok = f"{type(exc).__name__}: {exc}", False
        wall += time.perf_counter() - t0
        results.append({"job": key, "ok": ok, "value": repr(value)})
        refs.append(reference_s())
    out = {
        "wall_s": wall,
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(spec["span_file"])
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    if mode == "inputs":
        out = _inputs(spec)
    elif mode == "speedup":
        out = _speedup()
    else:
        import jetsums  # noqa: F401
        from workloads import build_forms

        forms_built = build_forms(spec["workload"], spec["inputs"])
        out = {"ready": time.monotonic()}
        reference_s()  # the first run pays one-time costs
        out["refs"] = [reference_s()]
        if mode == "rep":
            out.update(_rep(spec, forms_built, out["refs"]))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
