"""Workload job lists and the oracle table.

A workload is a list of jobs that one fresh interpreter runs back to back.
Each job calls the package and returns a plain value that is compared with
the exact answer in ``ORACLE``.  The workload seed reaches only two inputs:
the smooth cubic of ``scan`` (drawn once per run with
``cli.random_smooth_form`` and handed to the workers as monomials) and the
Weyl functional sample of ``arcs``.

Nothing here imports jetsums at module level: the harness process imports
this file only for the workload names, the workers do the rest.
"""

from __future__ import annotations

WORKLOADS = ("scan", "fibers", "arcs", "certify")

# Reference computation each workload's times are scaled by (see
# worker.reference_s and run.speed_factor): the scan's kernels are
# numpy-bound, the other workloads mostly interpreter-bound.  Over ten seeds
# the interpreter-bound reference cut the run-to-run spread of fibers from
# 0.20 to 0.06 but widened that of scan from 0.12 to 0.19, which the numpy
# reference cut to 0.07 (perfbench/design.json).
REFERENCE_OF = {"scan": "numpy", "fibers": "python", "arcs": "python",
                "certify": "python"}

# Draw seeds s for which cli.random_smooth_form(5, 2, 3, s) has eight of the
# ten cubic monomials; the workload seed picks one.  Form evaluation costs
# the same for every monomial, so the scan's cost stays the same across
# workload seeds while the cubic itself changes.
CUBIC_DRAW_SEEDS = (8, 14, 17, 19, 23, 26, 27, 39, 43, 44, 46, 52, 53, 56, 57, 64)
CUBIC_MONOMIALS = 8

# Every Weyl functional of weyl_alpha_sample(max_degree=2, extra=40) is in the
# oracle's count; the timed sweep checks every WEYL_STRIDE-th of them so that
# one repetition stays a few seconds long.
WEYL_SAMPLE = 665
WEYL_STRIDE = 12
WEYL_CHECKED = -(-WEYL_SAMPLE // WEYL_STRIDE)

# Expected exact answers.  A job fails when its value differs from this
# entry, when it raises (BudgetExceeded and NotImplementedError included) or
# when its worker runs out of time.
ORACLE = {
    # scan: 5^9 degree-zero rows each
    "scan.conic5_e2": 480,
    # a genus-one curve admits no generating degree-2 map, whatever the seed
    "scan.cubic5_e2": 0,
    # fibers: conic(3), e = 2
    "fibers.major_m1_singles": ("equal", 9),
    # pair case: the m = 1 pairs identity at e = 1 (factor exponent
    # 2 (n+1)(e+1) = 12), then the pair orthogonality at e = 2, m = 0, whose
    # right side is 3^10 times the 3888 tangent pairs
    "fibers.major_e1_m1_pairs": ("equal", 12),
    "fibers.pair_orthogonality_m0": ("equal", 3**10 * 3888),
    "fibers.major_m2_singles": ("equal", 9),
    "fibers.count_m2": 314928,
    "fibers.tangent_pairs_m1": 25509168,
    # arcs: maximal minimal-divisor degree of the two tables, then the sweep
    "arcs.divisor_table_5_4": 3,
    "arcs.divisor_table_3_6": 4,
    "arcs.weyl_fermat5_e1_m1": {
        "sample": WEYL_SAMPLE, "checked": WEYL_CHECKED,
        "holds": WEYL_CHECKED, "fails": 0, "undecided": 0,
    },
    # certify: exit code and max_bound of each CLI sweep
    "certify.canonical_3_1": (0, "3248/57"),
    "certify.canonical_2_1": (0, "104/15"),
    "certify.terminal_2_1": (0, "35/3"),
    # 3984/37 is also the maximum over 220:229, attained at e = 224
    "certify.terminal_3_1_e220_224": (0, "3984/37"),
    # tiny inputs of the smoke mode
    "tiny.scan.conic3_e2": 48,
    "tiny.fibers.tangent_pairs_m0": 3888,
    "tiny.fibers.major_e1_m1_pairs": ("equal", 12),
    "tiny.arcs.divisor_table_3_4": 3,
    "tiny.arcs.weyl_one": {
        "sample": WEYL_SAMPLE, "checked": 1, "holds": 1, "fails": 0, "undecided": 0,
    },
    "tiny.certify.canonical_2_1": (0, "104/15"),
}


def _certify(argv):
    import contextlib
    import io
    import json

    from jetsums import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["bounds", "--action", "certify", *argv, "--no-timestamp"])
    return code, json.loads(buf.getvalue())["max_bound"]


def _weyl(F, seed: int, stride: int, limit: int | None = None):
    from jetsums import expsums

    alphas = expsums.weyl_alpha_sample(F, 1, 1, max_degree=2, extra=40, seed=seed)
    chosen = alphas[::stride][:limit]
    verdicts = [expsums.check_weyl(F, 1, 1, a, precision_cap=256).verdict
                for a in chosen]
    return {
        "sample": len(alphas), "checked": len(chosen),
        "holds": verdicts.count("holds"), "fails": verdicts.count("fails"),
        "undecided": verdicts.count("undecided"),
    }


def _identity(F, e, m, pairs=False):
    from jetsums import expsums

    rep = expsums.check_major_identity(F, e, m, pairs=pairs)
    return rep.verdict, rep.params["factor_exponent"]


def _pair_orthogonality(F, e, m):
    from jetsums import expsums

    rep = expsums.check_orthogonality(F, e, m, pairs=True)
    return rep.verdict, rep.rhs


def build_forms(workload: str, inputs: dict) -> dict:
    """Form construction, the last step of a worker's set-up."""
    from jetsums import forms

    if workload == "scan":
        mons = [(tuple(ex), c) for ex, c in inputs["cubic_monomials"]]
        return {"conic5": forms.conic_form(5), "conic3": forms.conic_form(3),
                "cubic": forms.make_form(5, 2, 3, mons, name="random-cubic")}
    if workload == "fibers":
        return {"conic3": forms.conic_form(3)}
    if workload == "arcs":
        return {"fermat5": forms.fermat_form(5, 1, 3)}
    return {}


def jobs(workload: str, tiny: bool, seed: int):
    """(oracle key, thunk taking the built forms) in run order."""
    from jetsums import counting, expsums

    def maxdeg(p, de):
        return lambda f: int(expsums.divisor_table(p, de).degree.max())

    if tiny:
        table = {
            "scan": [("tiny.scan.conic3_e2",
                      lambda f: counting.count_solutions(f["conic3"], 2, 0).raw_count)],
            "fibers": [("tiny.fibers.tangent_pairs_m0",
                        lambda f: counting.count_tangent_pairs(f["conic3"], 2, 0).raw_count),
                       ("tiny.fibers.major_e1_m1_pairs",
                        lambda f: _identity(f["conic3"], 1, 1, pairs=True))],
            "arcs": [("tiny.arcs.divisor_table_3_4", maxdeg(3, 4)),
                     ("tiny.arcs.weyl_one",
                      lambda f: _weyl(f["fermat5"], seed, WEYL_STRIDE, 1))],
            "certify": [("tiny.certify.canonical_2_1",
                         lambda f: _certify(["--mode", "canonical", "--d", "2", "--g", "1"]))],
        }
        return table[workload]
    table = {
        "scan": [
            ("scan.conic5_e2",
             lambda f: counting.count_solutions(f["conic5"], 2, 0).raw_count),
            ("scan.cubic5_e2",
             lambda f: counting.count_solutions(f["cubic"], 2, 0).raw_count),
        ],
        "fibers": [
            ("fibers.major_m1_singles", lambda f: _identity(f["conic3"], 2, 1)),
            ("fibers.major_e1_m1_pairs",
             lambda f: _identity(f["conic3"], 1, 1, pairs=True)),
            ("fibers.pair_orthogonality_m0",
             lambda f: _pair_orthogonality(f["conic3"], 2, 0)),
            ("fibers.major_m2_singles", lambda f: _identity(f["conic3"], 2, 2)),
            ("fibers.count_m2",
             lambda f: counting.count_solutions(f["conic3"], 2, 2).raw_count),
            ("fibers.tangent_pairs_m1",
             lambda f: counting.count_tangent_pairs(f["conic3"], 2, 1).raw_count),
        ],
        "arcs": [
            ("arcs.divisor_table_5_4", maxdeg(5, 4)),
            ("arcs.divisor_table_3_6", maxdeg(3, 6)),
            ("arcs.weyl_fermat5_e1_m1",
             lambda f: _weyl(f["fermat5"], seed, WEYL_STRIDE)),
        ],
        "certify": [
            ("certify.canonical_3_1",
             lambda f: _certify(["--mode", "canonical", "--d", "3", "--g", "1"])),
            ("certify.canonical_2_1",
             lambda f: _certify(["--mode", "canonical", "--d", "2", "--g", "1"])),
            ("certify.terminal_2_1",
             lambda f: _certify(["--mode", "terminal", "--d", "2", "--g", "1"])),
            ("certify.terminal_3_1_e220_224",
             lambda f: _certify(["--mode", "terminal", "--d", "3", "--g", "1",
                                 "--e-span", "220:224"])),
        ],
    }
    return table[workload]
