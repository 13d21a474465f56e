import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jetsums.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_conic(capsys, tmp_path):
    out_path = tmp_path / "count.json"
    code, out, _ = run_cli(
        ["count", "--q", "3", "--form", "conic", "--e", "2", "--m", "0",
         "--no-timestamp", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["raw_count"] == "48"
    assert payload["normalized"] == "16/27"
    assert json.loads(out_path.read_text()) == payload


def test_count_budget_exceeded(capsys):
    code, out, err = run_cli(
        ["count", "--q", "7", "--form", "fermat", "--n", "4", "--d", "3",
         "--e", "3", "--m", "2", "--no-timestamp"],
        capsys,
    )
    assert code == 2
    assert "budget exceeded" in err and "operations" in err


def test_count_tangent_pairs(capsys):
    code, out, _ = run_cli(
        ["count", "--q", "3", "--form", "conic", "--e", "2", "--m", "0",
         "--target", "m1m", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["raw_count"] == "3888"


def test_trend_csv(capsys, tmp_path):
    out_path = tmp_path / "trend.csv"
    code, out, _ = run_cli(
        ["count", "--form", "conic", "--e", "2", "--m", "0",
         "--target", "lw-trend", "--primes", "3,5", "--out", str(out_path),
         "--no-timestamp"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prime,raw_count,normalized_num,normalized_den,exponent"
    assert lines[1] == "3,48,16,27,4"
    assert lines[2] == "5,480,96,125,4"


def test_bounds_certify_pass(capsys):
    code, out, _ = run_cli(
        ["bounds", "--action", "certify", "--mode", "canonical", "--d", "2",
         "--g", "1", "--n-plus-1", "7", "--e-span", "17:36", "--m-span", "1:10",
         "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_bounds_certify_fail_exit_code(capsys):
    code, out, _ = run_cli(
        ["bounds", "--action", "certify", "--mode", "canonical", "--d", "2",
         "--g", "1", "--n-plus-1", "6", "--e-span", "17:20", "--m-span", "1:3",
         "--no-timestamp"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_bounds_eval(capsys):
    code, out, _ = run_cli(
        ["bounds", "--action", "eval", "--mode", "canonical", "--d", "3",
         "--g", "0", "--e", "4", "--m", "1", "--D", "6", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == "50/3" and payload["shrink_exponent"] == 2


def test_bounds_paper_identities(capsys):
    code, out, _ = run_cli(
        ["bounds", "--action", "paper-identities", "--g-max", "6",
         "--d-max", "5", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_bounds_paper_identities_over_no_case_exit_2(capsys):
    # with no genus >= 1 and no degree >= 4 in range every check is empty,
    # and the report once passed having checked nothing
    code, out, err = run_cli(
        ["bounds", "--action", "paper-identities", "--g-max", "0",
         "--d-max", "0", "--no-timestamp"],
        capsys,
    )
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_circle_major_identity(capsys):
    code, out, _ = run_cli(
        ["circle", "--q", "3", "--form", "conic", "--e", "2", "--m", "1",
         "--check", "major-identity", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"


def test_circle_weyl_smoke(capsys):
    code, out, _ = run_cli(
        ["circle", "--q", "3", "--form", "conic", "--e", "2", "--m", "1",
         "--check", "weyl", "--max-degree", "0", "--samples", "5",
         "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_smooth_subcommand(capsys):
    code, out, _ = run_cli(
        ["smooth", "--q", "3", "--form", "conic", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] and payload["singular_witness"] is None


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "form": "conic", "e": 2, "m": 0}))
    code, out, _ = run_cli(
        ["--config", str(cfg), "count", "--no-timestamp"], capsys
    )
    assert code == 0
    assert json.loads(out)["raw_count"] == "48"
    # explicit flags win over the config
    code, out, _ = run_cli(
        ["--config", str(cfg), "count", "--e", "1", "--no-timestamp"], capsys
    )
    assert json.loads(out)["raw_count"] == "0"


@pytest.mark.parametrize("flags", [
    ["--form", "conic", "--out", "{missing}/x.json"],
    ["--form-file", "{missing}.txt"],
], ids=["out-dir", "form-file"])
def test_missing_paths_exit_2(flags, capsys, tmp_path):
    # both ended in a FileNotFoundError traceback with exit 1, the code of a
    # failed identity
    missing = tmp_path / "missing"
    args = ["count", "--q", "3", "--e", "1", "--m", "0", "--no-timestamp"]
    code, out, err = run_cli(args + [f.format(missing=missing) for f in flags], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("check", ["n-counts", "shrink"])
def test_primes_whose_products_overflow_exit_2(check, capsys):
    # p = 2^31 - 1 ended in an _ArrayMemoryError traceback with exit 1: sums
    # of its residue products can wrap int64, and its inverse table is 16 GiB
    args = ["circle", "--q", "2147483647", "--form", "conic", "--e", "1", "--m", "1",
            "--k", "1", "--samples", "1", "--check", check, "--no-timestamp"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: need p < 2^20") and "Traceback" not in err


@pytest.mark.parametrize("q", [137, 1000003])
@pytest.mark.parametrize("check", ["n-counts", "shrink"])
def test_primes_below_the_limit_are_admitted(q, check, capsys):
    args = ["circle", "--q", str(q), "--form", "conic", "--e", "1", "--m", "1",
            "--k", "1", "--samples", "1", "--check", check, "--no-timestamp"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and json.loads(out)["verdict"] == "holds"


def test_config_error_exit(capsys):
    code, _, err = run_cli(
        ["count", "--q", "3", "--e", "2", "--no-timestamp"], capsys
    )
    assert code == 2 and "error" in err


@pytest.mark.parametrize("config,message", [
    ({"q": 3, "form": "conic", "m": 0.5}, "config value 0.5 is not valid for --m"),
    ([{"q": 3}], "config must be a JSON object, got list"),
    ({"q": 3, "form": "conic", "e": 2, "target": "bogus"},
     'config value "bogus" is not valid for --target'),
    ({"q": 3, "form": "conic", "e": [2]}, "config value [2] is not valid for --e"),
    ({"q": 3, "form": "conic", "e": 2, "force": "yes"},
     'config value "yes" is not valid for --force'),
    ({"q": 3, "form": "conic", "e": None}, "config value null is not valid for --e"),
], ids=["float-m", "top-level-list", "bad-choice", "list-e", "switch-string", "null-e"])
def test_config_values_take_their_flags_checks(config, message, capsys, tmp_path):
    # a config value goes through its flag's type and choices: each bad one
    # is a configuration error (exit 2), never a traceback or a silent default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(["--config", str(cfg), "count", "--no-timestamp"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_config_strings_parse_as_on_the_command_line(capsys, tmp_path):
    # {"e": "2"} is what --e 2 gives the parser
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": "3", "form": "conic", "e": "2", "target": "mm"}))
    code, out, _ = run_cli(["--config", str(cfg), "count", "--no-timestamp"], capsys)
    assert code == 0
    assert out == run_cli(["count", "--q", "3", "--form", "conic", "--e", "2",
                           "--no-timestamp"], capsys)[1]


def test_reports_byte_identical_without_timestamp(capsys):
    args = ["count", "--q", "3", "--form", "conic", "--e", "2", "--m", "0",
            "--no-timestamp"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_bounds_certify_golden_output(capsys):
    """--no-timestamp output is byte-stable, case_counts key order included."""
    golden = Path(__file__).parent / "data" / "certify_terminal_d2_g1_e25-40_m1-8.json"
    code, out, _ = run_cli(
        ["bounds", "--action", "certify", "--mode", "terminal", "--d", "2",
         "--g", "1", "--e-span", "25:40", "--m-span", "1:8", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("golden,args,exit_code", [
    ("certify_canonical_d3_g1_default_m1-50.json",
     ["--mode", "canonical", "--d", "3", "--g", "1"], 0),
    ("certify_terminal_d2_g1_e25-40_m1-8_n10.json",
     ["--mode", "terminal", "--d", "2", "--g", "1", "--e-span", "25:40",
      "--m-span", "1:8", "--n-plus-1", "10"], 1),
    ("certify_canonical_d2_g1_e17-30_m1-5_n6.json",
     ["--mode", "canonical", "--d", "2", "--g", "1", "--e-span", "17:30",
      "--m-span", "1:5", "--n-plus-1", "6"], 1),
])
def test_bounds_certify_golden_sweeps(golden, args, exit_code, capsys):
    """A default-span sweep and two failing ones are byte-stable: the
    witness, the counts and the order of the failures, each jet order
    listing its precondition failures before its inequality failures."""
    golden = Path(__file__).parent / "data" / golden
    code, out, _ = run_cli(
        ["bounds", "--action", "certify", *args, "--no-timestamp"], capsys
    )
    assert code == exit_code
    assert out == golden.read_text()


@pytest.mark.parametrize("args", [
    ["--mode", "terminal", "--d", "40", "--g", "0", "--e-span", "200:201",
     "--m-span", "1:4"],
    ["--mode", "canonical", "--d", "48", "--g", "0", "--e-span", "3:5",
     "--m-span", "1:4"],
    ["--mode", "terminal", "--d", "40", "--g", "0", "--e-span", "34:34",
     "--m-span", "1:1"],
], ids=["terminal-wraps", "canonical-n-plus-1-past-int64", "terminal-just-past"])
def test_bounds_certify_int64_overflow_exits_2(args, capsys):
    # the first once reported false inequality failures (n+1 times a
    # denominator wrapped negative) and the second ended in an OverflowError
    # traceback, both with exit 1
    start = time.time()
    code, out, err = run_cli(
        ["bounds", "--action", "certify", *args, "--no-timestamp"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "int64 limit 2^63" in err
    assert time.time() - start < 1


def test_bounds_certify_refuses_jet_order_below_one(capsys):
    # this once exited 1 with verdict "fail" and 644 of 1,060 points skipped
    code, out, err = run_cli(
        ["bounds", "--action", "certify", "--mode", "terminal", "--d", "2",
         "--g", "1", "--e-span", "25:26", "--m-span=-3:1"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "jet orders must be >= 1" in err


def test_bounds_certify_just_inside_int64(capsys):
    from fractions import Fraction

    from jetsums.bounds import pair_bound

    # n+1 = 66926448149004288 times the bound 136 on |2 * denominator| stays
    # below 2^63; one more degree (the test above) is refused
    code, out, _ = run_cli(
        ["bounds", "--action", "certify", "--mode", "terminal", "--d", "40",
         "--g", "0", "--e-span", "33:33", "--m-span", "1:1", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "pass" and cert["n_plus_1"] * 136 < 2**63
    w = cert["witness"]
    exact = pair_bound(40, 0, w["e"], w["m"], w["D_alpha"], w["D_beta"]).value
    assert Fraction(cert["max_bound"]) == exact < cert["n_plus_1"]


def test_lw_trend_passes_workers_to_the_shards(monkeypatch, capsys):
    from jetsums import parallel

    calls = []
    real = parallel.map_reduce

    def spy(fn, shards, reduce_fn, initial, workers=None):
        calls.append((len(shards), workers))
        return real(fn, shards, reduce_fn, initial, workers=1)

    monkeypatch.setattr(parallel, "map_reduce", spy)
    code, out, _ = run_cli(
        ["count", "--form", "conic", "--target", "lw-trend", "--primes", "5",
         "--e", "2", "--m", "0", "--workers", "2", "--no-timestamp"],
        capsys,
    )
    assert code == 0 and out.splitlines()[1].startswith("5,480,")
    assert calls == [(2, 2)]


def test_circle_weyl_golden_output(capsys):
    """The Weyl sweep samples every functional of minimal degree <= 2 from
    the divisor table, so its report pins the table end to end."""
    golden = Path(__file__).parent / "data" / "weyl_conic_q3_e2_m1_s20.json"
    code, out, _ = run_cli(
        ["circle", "--q", "3", "--form", "conic", "--e", "2", "--m", "1",
         "--check", "weyl", "--samples", "20", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert out == golden.read_text()


def test_circle_weyl_d3_golden_output(capsys):
    """The d = 3 sweep: its tightness is a ratio against the bound, so the
    report pins the multilinear counts N of every sampled functional."""
    golden = Path(__file__).parent / "data" / "weyl_fermat_q5_e1_m1_d3_s5.json"
    code, out, _ = run_cli(
        ["circle", "--q", "5", "--form", "fermat", "--n", "1", "--d", "3",
         "--e", "1", "--m", "1", "--check", "weyl", "--max-degree", "1",
         "--samples", "5", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert out == golden.read_text()


GOLDEN_CIRCLE = [
    ("major_conic_q3_e2_m1.json",
     ["--form", "conic", "--e", "2", "--m", "1", "--check", "major-identity"], 0),
    ("major_pairs_conic_q3_e1_m1.json",
     ["--form", "conic", "--e", "1", "--m", "1", "--check", "major-identity", "--pairs"], 0),
    ("major_conic_q3_e2_m2.json",
     ["--form", "conic", "--e", "2", "--m", "2", "--check", "major-identity"], 0),
    ("orthogonality_pairs_conic_q3_e2_m0.json",
     ["--form", "conic", "--e", "2", "--m", "0", "--check", "orthogonality", "--pairs"], 0),
    ("t_vanishing_conic_q3_e2.json",
     ["--form", "conic", "--e", "2", "--m", "0", "--check", "t-vanishing"], 0),
    # x0*x1's gradient maps are not all onto, so T fails to vanish: exit 1
    ("t_vanishing_x0x1_q3_e1.json",
     ["--form-file", str(DATA / "x0x1.form"), "--e", "1", "--m", "0",
      "--check", "t-vanishing"], 1),
    ("orthogonality_pairs_conic_q3_e2_m2.json",
     ["--form", "conic", "--e", "2", "--m", "2", "--check", "orthogonality", "--pairs"], 0),
]


# ids name a case by its golden file and argument index alone
@pytest.mark.parametrize("golden,args,exit_code", GOLDEN_CIRCLE,
                         ids=[f"{g}-args{i}" for i, (g, _, _) in enumerate(GOLDEN_CIRCLE)])
def test_circle_identity_golden_output(golden, args, exit_code, capsys):
    """Both sides of the major-arc identity and of pair orthogonality, and
    the auxiliary-sum vanishing report, are pinned exactly, across the jet
    orders the slice engine and the full dual sum evaluate."""
    code, out, _ = run_cli(["circle", "--q", "3", *args, "--no-timestamp"], capsys)
    assert code == exit_code
    assert out == (DATA / golden).read_text()


def test_bounds_certify_budget_exceeded():
    # charged 69,410,050 search cells; the default budget admits this sweep
    proc = subprocess.run(
        [sys.executable, "-m", "jetsums.cli", "bounds", "--action", "certify",
         "--mode", "terminal", "--d", "5", "--g", "1", "--budget", "10000000",
         "--no-timestamp"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("budget exceeded: ")
    assert proc.stdout == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jetsums.cli", "count", "--q", "3", "--form",
         "conic", "--e", "1", "--m", "0", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["raw_count"] == "0"


def test_random_form_generation(capsys):
    code, out, _ = run_cli(
        ["smooth", "--q", "5", "--random-form", "--n", "1", "--d", "2",
         "--seed", "3", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["certified"]


def test_unsupported_configuration_exits_2():
    # exit 1 means a checked identity failed; the vectorized generation test
    # of the full scan covers degree bounds e <= 2, so e = 3 is a
    # configuration the tool cannot run
    proc = subprocess.run(
        [sys.executable, "-m", "jetsums.cli", "circle", "--check", "orthogonality",
         "--q", "3", "--form", "conic", "--e", "3", "--m", "0", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("unsupported: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_count_golden_output(capsys):
    """--no-timestamp count reports are byte-stable; the m = 0 count runs
    through the coefficient-layer lift, the m = 4 count through the onto
    base points' closed form."""
    for golden, q, m in (("count_conic_q5_e2_m0.json", "5", "0"),
                         ("count_conic_q3_e2_m4.json", "3", "4")):
        code, out, _ = run_cli(
            ["count", "--q", q, "--form", "conic", "--e", "2", "--m", m, "--no-timestamp"],
            capsys,
        )
        assert code == 0
        assert out == (DATA / golden).read_text()


def test_trend_golden_output(capsys):
    golden = Path(__file__).parent / "data" / "trend_conic_e2_m0_p3-7.csv"
    code, out, _ = run_cli(
        ["count", "--form", "conic", "--e", "2", "--m", "0", "--target",
         "lw-trend", "--primes", "3,5,7", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert out == golden.read_text()


def test_count_degree_bound_3_unsupported():
    # the generation mask covers e <= 2; the lift refuses e = 3 before any
    # candidate reaches its last stage
    proc = subprocess.run(
        [sys.executable, "-m", "jetsums.cli", "count", "--q", "3", "--form",
         "conic", "--e", "3", "--m", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("unsupported: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


COUNT_M0 = ["count", "--q", "3", "--form", "conic", "--e", "2", "--m", "0"]


@pytest.mark.parametrize("argv,env", [
    (["count", "--q", "3", "--form", "conic", "--e", "2", "--m", "-1"], None),
    (["count", "--q", "3", "--form", "conic", "--e", "-1", "--m", "0"], None),
    (["circle", "--check", "orthogonality", "--q", "3", "--form", "conic",
      "--e", "1", "--m", "-1"], None),
    (["circle", "--check", "major-identity", "--q", "3", "--form", "conic",
      "--e", "-1", "--m", "1"], None),
    ([*COUNT_M0, "--budget", "0"], None),
    (["circle", "--check", "shrink", "--q", "3", "--form", "conic", "--e", "1",
      "--k", "-1", "--samples", "2"], None),
    (["circle", "--check", "shrink", "--q", "3", "--form", "conic", "--e", "1",
      "--samples", "-1"], None),
    (["count", "--form", "conic", "--target", "lw-trend", "--primes", "3,5"], None),
    (["circle", "--check", "shrink", "--q", "3", "--form", "conic", "--e", "1",
      "--samples", "0"], None),
    (["circle", "--check", "n-counts", "--q", "3", "--form", "conic", "--e", "1",
      "--samples", "0"], None),
    (["circle", "--check", "t-vanishing", "--q", "3", "--form", "conic", "--e", "1",
      "--samples", "0"], None),
    (["circle", "--check", "weyl", "--q", "3", "--form", "conic", "--e", "1",
      "--m", "1", "--max-degree", "-1", "--samples", "0"], None),
    ([*COUNT_M0, "--workers", "0"], None),
    (COUNT_M0, "abc"),
    (COUNT_M0, "0"),
    (COUNT_M0, "-3"),
    (["bounds", "--action", "certify", "--mode", "canonical", "--d", "2", "--g", "1",
      "--n-plus-1", "0"], None),
    (["bounds", "--action", "certify", "--mode", "canonical", "--d", "2", "--g", "1",
      "--n-plus-1", "-3"], None),
    (["circle", "--check", "weyl", "--q", "3", "--form", "conic", "--e", "1", "--m", "1",
      "--max-degree", "0", "--samples", "3", "--pairs"], None),
    (["circle", "--check", "shrink", "--q", "3", "--form", "conic", "--e", "1",
      "--pairs"], None),
    (["circle", "--check", "t-vanishing", "--q", "3", "--form", "conic", "--e", "1",
      "--pairs"], None),
    (["circle", "--check", "n-counts", "--q", "3", "--form", "conic", "--e", "1",
      "--pairs"], None),
], ids=["m-negative", "e-negative", "orthogonality-m", "major-e", "budget-zero",
        "shrink-k-negative", "shrink-samples-negative", "lw-trend-no-e",
        "shrink-samples-zero", "n-counts-samples-zero", "t-vanishing-samples-zero",
        "weyl-no-functionals", "workers-zero", "workers-env-abc", "workers-env-zero",
        "workers-env-negative", "certify-n-plus-1-zero", "certify-n-plus-1-negative",
        "weyl-pairs", "shrink-pairs", "t-vanishing-pairs", "n-counts-pairs"])
def test_out_of_range_inputs_exit_2(argv, env, capsys, monkeypatch):
    # each of these once answered (a count with m = -1, a sweep over -1 or
    # 0 samples reported "holds", a count with 0 workers, from --workers or
    # JETSUMS_WORKERS, ran on one), ran at the default budget (--budget 0)
    # or ended in a traceback (exit 1 for --k -1 and for lw-trend without --e)
    if env is not None:
        monkeypatch.setenv("JETSUMS_WORKERS", env)
    code, out, err = run_cli([*argv, "--no-timestamp"], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: --" if env is None else "error: JETSUMS_WORKERS")
    if "--n-plus-1" in argv:  # the flag as typed, once a verdict "fail" and exit 1
        assert err.startswith(f"error: --n-plus-1 must be >= 2, got {argv[-1]}")
    if "--pairs" in argv:  # these checks have no pair form; they ran the singles
        assert err.startswith("error: --pairs applies only to orthogonality and major-identity")


def test_weyl_precision_cap_below_64_bits_exits_2(capsys):
    # this command once ran at 64 bits and exited 0
    argv = ["circle", "--check", "weyl", "--q", "3", "--form", "conic", "--e", "1",
            "--m", "1", "--samples", "3", "--no-timestamp"]
    code, out, err = run_cli([*argv, "--precision-cap", "10"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: precision cap must be >= 64 bits, got 10")
    code, out, _ = run_cli([*argv, "--precision-cap", "64"], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "holds"


def test_weyl_without_samples_checks_the_exhaustive_functionals(capsys):
    # --samples 0 is refused only where nothing else is checked: at
    # --max-degree 0 the sweep still covers every degree-0 functional
    code, out, _ = run_cli(
        ["circle", "--check", "weyl", "--q", "3", "--form", "conic", "--e", "1",
         "--m", "1", "--max-degree", "0", "--samples", "0", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["alphas"] > 0 and payload["verdict"] == "holds"


def test_pair_scan_beyond_forced_budget_exits_2(tmp_path, capsys):
    # x0*x1 over F_3 at e = 1, m = 2: the pairs above its 192 base maps that
    # are not onto are charged 192 * 3^12 * (18 * 9^2), above 1e11
    form = tmp_path / "x0x1.txt"
    form.write_text("1 1 0 1\n")
    code, out, err = run_cli(
        ["circle", "--check", "orthogonality", "--pairs", "--q", "3",
         "--form-file", str(form), "--e", "1", "--m", "2", "--force",
         "--no-timestamp"],
        capsys,
    )
    assert code == 2
    assert out == "" and "non-surjective pair annihilator scan" in err


def test_explicit_slice_walks_beyond_budget_exit_2_at_once(tmp_path, capsys):
    # the major identity's slice walk on the same form: its 96 base maps are
    # not onto, each charged 3^4 middle-layer walks of 3^6 top tuples, about
    # 8.3e9 at the default budget, before the first walk (it once ran on)
    form = tmp_path / "x0x1.txt"
    form.write_text("1 1 0 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(
        ["circle", "--check", "major-identity", "--pairs", "--q", "3",
         "--form-file", str(form), "--e", "1", "--m", "2", "--no-timestamp"],
        capsys,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and "explicit slice fiber" in err
