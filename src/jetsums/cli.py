"""Command-line front end.

Subcommands:

* ``count``  -- exact solution / tangent-pair counts, or a trend table
  across primes (CSV).
* ``circle`` -- the exponential-sum checks: orthogonality, major-identity,
  weyl, shrink, t-vanishing, n-counts.
* ``bounds`` -- certify sweeps, the calibration identities, or a one-point
  evaluation of the bound quantities.
* ``smooth`` -- the gradient-vanishing search over extension fields.

Exit codes: 0 pass, 1 a checked identity or certificate failed, 2 budget or
configuration errors.  All flags are long-form; a JSON config file can
supply defaults, explicit flags win.
"""

from __future__ import annotations

import argparse
import datetime
import json
import random
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import counting, expsums, forms
from .sections import DEFAULT_BUDGET, BudgetExceeded

FORCED_BUDGET = 10**11


class ConfigError(Exception):
    pass


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top parser and each command's parser by name."""
    top = argparse.ArgumentParser(prog="jetsums", description=__doc__)
    top.add_argument("--config", help="JSON file with default option values")
    sub = top.add_subparsers(dest="command", required=True)

    def budget_options(p):
        p.add_argument("--budget", type=int, default=None,
                       help="ring-operation ceiling (default 1e9)")
        p.add_argument("--force", action="store_true",
                       help="raise the budget ceiling to 1e11")

    def common(p):
        p.add_argument("--q", type=int, help="prime field size")
        p.add_argument("--form", help="built-in form name (conic, fermat)")
        p.add_argument("--form-file", help="path to a monomial form file")
        p.add_argument("--random-form", action="store_true",
                       help="seeded random smooth form")
        p.add_argument("--n", type=int, help="ambient projective dimension")
        p.add_argument("--d", type=int, help="form degree")
        p.add_argument("--e", type=int, help="section degree bound")
        p.add_argument("--m", type=int, default=0, help="jet order")
        p.add_argument("--seed", type=int, default=0)
        budget_options(p)
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field for byte-stable output")

    pc = sub.add_parser("count", help="exact point counts")
    common(pc)
    pc.add_argument("--target", choices=["mm", "m1m", "lw-trend"], default="mm")
    pc.add_argument("--primes", help="comma-separated primes for lw-trend")
    pc.add_argument("--workers", type=int, default=None,
                    help="worker count of the m = 0 solution count (env JETSUMS_WORKERS)")

    pgc = sub.add_parser("circle", help="exponential-sum checks")
    common(pgc)
    pgc.add_argument("--check", required=True,
                     choices=["orthogonality", "major-identity", "weyl",
                              "shrink", "t-vanishing", "n-counts"])
    pgc.add_argument("--pairs", action="store_true")
    pgc.add_argument("--samples", type=int, default=100)
    pgc.add_argument("--max-degree", type=int, default=2,
                     help="exhaust functionals up to this minimal degree")
    pgc.add_argument("--precision-cap", type=int, default=256)
    pgc.add_argument("--k", type=int, default=0, help="jet order for n/shrink")
    pgc.add_argument("--s", type=int, default=0, help="degree shrink")

    pb = sub.add_parser("bounds", help="exact rational certification")
    pb.add_argument("--action", choices=["certify", "paper-identities", "eval"],
                    default="certify")
    pb.add_argument("--mode", choices=["canonical", "terminal"],
                    default="canonical")
    pb.add_argument("--d", type=int)
    pb.add_argument("--g", type=int)
    pb.add_argument("--e", type=int)
    pb.add_argument("--m", type=int, default=1)
    pb.add_argument("--D", type=int)
    pb.add_argument("--D-beta", type=int)
    pb.add_argument("--e-span", help="lo:hi (default threshold+1 .. +100)")
    pb.add_argument("--m-span", default="1:50", help="lo:hi jet orders, with lo >= 1")
    pb.add_argument("--n-plus-1", type=int)
    budget_options(pb)
    pb.add_argument("--g-max", type=int, default=50)
    pb.add_argument("--d-max", type=int, default=10)
    pb.add_argument("--out")
    pb.add_argument("--no-timestamp", action="store_true")

    ps = sub.add_parser("smooth", help="smoothness search")
    common(ps)
    ps.add_argument("--k-max", type=int, default=None)

    return top, sub.choices


def _apply_config(args: argparse.Namespace, argv: list[str],
                  command: argparse.ArgumentParser) -> argparse.Namespace:
    """Config file supplies defaults; anything set on the command line wins.
    Keys naming no flag of the command are ignored."""
    if not args.config:
        return args
    try:
        defaults = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(defaults, dict):
        raise ConfigError(f"config must be a JSON object, got {type(defaults).__name__}")
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv
                if a.startswith("--")}
    flags = {a.dest: a for a in command._actions if a.option_strings}
    for key, val in defaults.items():
        attr = key.replace("-", "_")
        if attr in flags and attr not in explicit:
            setattr(args, attr, _config_value(flags[attr], val))
    return args


def _config_value(flag: argparse.Action, val):
    """A config value as the command line would give it: true or false for a
    switch, else a JSON string or number through the flag's type and
    choices."""
    if flag.nargs == 0:
        if isinstance(val, bool):
            return val
    elif isinstance(val, (str, int, float)) and not isinstance(val, bool):
        try:
            out = (flag.type or str)(str(val))
        except ValueError:
            pass
        else:
            if flag.choices is None or out in flag.choices:
                return out
    raise ConfigError(f"config value {json.dumps(val)} is not valid for {flag.option_strings[0]}")


def _budget(args) -> int:
    if args.force:
        return FORCED_BUDGET
    return args.budget if getattr(args, "budget", None) is not None else DEFAULT_BUDGET


def _check_ranges(args) -> None:
    """Refuse a negative degree bound, jet order, n/shrink jet order or
    sample count, a budget or worker count below 1, and a variable count
    below 2."""
    for name, low in (("e", 0), ("m", 0), ("k", 0), ("samples", 0), ("budget", 1),
                      ("workers", 1), ("n_plus_1", 2)):
        val = getattr(args, name, None)
        if val is not None and val < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}, got {val}")


def _load_form(args, p: int) -> forms.SymmetricForm:
    sources = [bool(args.form), bool(args.form_file), bool(args.random_form)]
    if sum(sources) != 1:
        raise ConfigError("give exactly one of --form, --form-file, --random-form")
    if args.form:
        return forms.named_form(args.form, p, args.n, args.d)
    if args.form_file:
        return forms.parse_form_file(Path(args.form_file).read_text(), p,
                                     name=Path(args.form_file).stem)
    if args.n is None or args.d is None:
        raise ConfigError("--random-form needs --n and --d")
    return random_smooth_form(p, args.n, args.d, args.seed)


def random_smooth_form(p: int, n: int, d: int, seed: int) -> forms.SymmetricForm:
    """Dense random form, redrawn (at most 32 draws) until the smoothness
    search at its cap finds no witness."""
    rng = random.Random(seed)
    import itertools

    exps = [
        tuple(c)
        for c in itertools.product(range(d + 1), repeat=n + 1)
        if sum(c) == d
    ]
    for _ in range(32):
        mons = [(ex, rng.randrange(p)) for ex in exps]
        if all(c == 0 for _, c in mons):
            continue
        F = forms.make_form(p, n, d, mons, name=f"random-{seed}")
        rep = forms.smoothness_check(F)
        if rep.smooth_so_far and rep.certified:
            return F
    raise ConfigError("no smooth form found in 32 draws")


def _emit(payload: dict, args) -> None:
    if not getattr(args, "no_timestamp", False):
        payload["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
    text = json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    print(text)


def _emit_csv(rows: list[dict], args) -> None:
    header = "prime,raw_count,normalized_num,normalized_den,exponent"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['prime']},{r['raw_count']},{r['normalized_num']},"
            f"{r['normalized_den']},{r['exponent']}"
        )
    text = "\n".join(lines)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    print(text)


def _cmd_count(args) -> int:
    budget = _budget(args)
    if args.target == "lw-trend":
        primes = [int(x) for x in (args.primes or "").split(",") if x]
        if not primes:
            raise ConfigError("lw-trend needs --primes p1,p2,...")

        def family(p):
            la = argparse.Namespace(**vars(args))
            la.q = p
            return _load_form(la, p)

        records = counting.lw_trend(family, _require(args, "e"), args.m, primes,
                                    budget, workers=args.workers)
        rows = [
            {
                "prime": rec.params["p"],
                "raw_count": rec.raw_count,
                "normalized_num": rec.normalized.numerator,
                "normalized_den": rec.normalized.denominator,
                "exponent": rec.exponent,
            }
            for rec in records
        ]
        _emit_csv(rows, args)
        return 0
    p = _require(args, "q")
    F = _load_form(args, p)
    if args.target == "m1m":
        rec = counting.count_tangent_pairs(F, _require(args, "e"), args.m, budget)
    else:
        rec = counting.count_solutions(
            F, _require(args, "e"), args.m, budget, workers=args.workers
        )
    _emit(rec.to_json(), args)
    return 0


def _require(args, name):
    val = getattr(args, name, None)
    if val is None:
        raise ConfigError(f"--{name.replace('_', '-')} is required here")
    return val


def _cmd_circle(args) -> int:
    budget = _budget(args)
    p = _require(args, "q")
    F = _load_form(args, p)
    e = _require(args, "e")
    if args.check in ("t-vanishing", "shrink", "n-counts") and args.samples == 0:
        # a sweep over no samples checks nothing
        raise ConfigError(f"--samples must be >= 1 for --check {args.check}")
    if args.pairs and args.check not in ("orthogonality", "major-identity"):
        # the other checks have no pair form, and would run the singles
        raise ConfigError("--pairs applies only to orthogonality and major-identity")
    if args.check == "orthogonality":
        rep = expsums.check_orthogonality(F, e, args.m, args.pairs, budget)
    elif args.check == "major-identity":
        rep = expsums.check_major_identity(F, e, args.m, args.pairs, budget)
    elif args.check == "t-vanishing":
        rep = expsums.t_vanishing_report(F, e, args.samples, args.seed, budget)
    elif args.check == "weyl":
        alphas = expsums.weyl_alpha_sample(
            F, e, args.m, args.max_degree, args.samples, args.seed, budget
        )
        if not alphas:
            raise ConfigError(
                f"--samples {args.samples} with --max-degree {args.max_degree} "
                "leaves no functional to check"
            )
        reports = [expsums.check_weyl(F, e, args.m, a, precision_cap=args.precision_cap,
                                      budget=budget) for a in alphas]
        verdicts = [r.verdict for r in reports]
        failed, undecided = verdicts.count("fails"), verdicts.count("undecided")
        rep = expsums.Report(
            "weyl-sweep",
            {"p": p, "e": e, "m": args.m, "form": F.name,
             "alphas": len(alphas), "seed": args.seed},
            {"failed": failed, "undecided": undecided},
            {"expected_failed": 0},
            "holds" if failed == 0 and undecided == 0 else "fails",
            max((r.tightness for r in reports if r.tightness is not None), default=None),
        )
    elif args.check == "shrink":
        rng = random.Random(args.seed)
        de = F.d * e
        fails = 0
        for _ in range(args.samples):
            a = expsums.dual_from_code(p, de, args.k, rng.randrange(p ** ((de + 1) * (args.k + 1))))
            r = expsums.check_shrink(F, e, a, args.k, args.s, budget)
            fails += r.verdict != "holds"
        rep = expsums.Report(
            "shrink-sweep",
            {"p": p, "e": e, "k": args.k, "s": args.s, "samples": args.samples,
             "seed": args.seed, "form": F.name},
            {"failed": fails}, {"expected_failed": 0},
            "holds" if fails == 0 else "fails",
        )
    else:  # n-counts: report the factorization identity across jet orders
        rng = random.Random(args.seed)
        de = F.d * e
        kk = max(1, args.k)
        bad = 0
        for _ in range(args.samples):
            a = expsums.dual_from_code(
                p, de, kk, rng.randrange(p ** ((de + 1) * (kk + 1)))
            )
            lhs = expsums.n_count(F, e, a, kk, kk, args.s, budget)
            rhs = p ** (
                (F.n + 1) * (F.d - 1) * (e - args.s + 1)
            ) * expsums.n_count(F, e, a, kk - 1, kk, args.s, budget)
            bad += lhs != rhs
        rep = expsums.Report(
            "n-count-factorization",
            {"p": p, "e": e, "k": kk, "s": args.s, "samples": args.samples,
             "seed": args.seed, "form": F.name},
            {"violations": bad}, {"expected": 0},
            "holds" if bad == 0 else "fails",
        )
    _emit(rep.to_json(), args)
    return 0 if rep.passed else 1


def _parse_span(text: str | None):
    if not text:
        return None
    lo, hi = text.split(":")
    return int(lo), int(hi)


def _cmd_bounds(args) -> int:
    if args.action == "paper-identities":
        items = bounds_mod.calibration_report(args.g_max, args.d_max)
        ok = bounds_mod.calibration_passed(items)
        _emit({"check": "calibration", "items": items,
               "verdict": "pass" if ok else "fail"}, args)
        return 0 if ok else 1
    d = _require(args, "d")
    g = _require(args, "g")
    if args.action == "eval":
        e = _require(args, "e")
        out = {
            "d": d, "g": g, "e": e, "m": args.m,
            "genus_slack": str(bounds_mod.genus_slack(g)),
            "degree_floor": str(bounds_mod.degree_floor(args.mode, d, g)),
            "variable_bound": str(bounds_mod.variable_threshold(args.mode, d, g, e)),
        }
        if args.D is not None:
            out["shrink_exponent"] = bounds_mod.shrink_exponent(d, g, e, args.D)
            if args.D_beta is not None:
                pc = bounds_mod.pair_bound(d, g, e, args.m, args.D, args.D_beta)
            else:
                pc = bounds_mod.single_bound(d, g, e, args.m, args.D)
            out["bound"] = str(pc.value) if pc.value is not None else None
            out["preconditions_ok"] = pc.ok_preconditions
            out["notes"] = list(pc.notes)
        _emit(out, args)
        return 0
    cert = bounds_mod.certify(
        args.mode, d, g,
        _parse_span(args.e_span),
        _parse_span(args.m_span) or (1, 50),
        args.n_plus_1,
        _budget(args),
    )
    _emit(cert.to_json(), args)
    return 0 if cert.passed else 1


def _cmd_smooth(args) -> int:
    budget = _budget(args)
    p = _require(args, "q")
    F = _load_form(args, p)
    rep = forms.smoothness_check(F, args.k_max, budget)
    _emit(
        {
            "check": "smoothness",
            "params": {"p": p, "n": F.n, "d": F.d, "form": F.name},
            "verified_up_to": rep.verified_up_to,
            "certified": rep.certified,
            "singular_witness": rep.singular_witness,
            "searched_points": rep.searched_points,
        },
        args,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, argv, commands[args.command])
        _check_ranges(args)
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "circle":
            return _cmd_circle(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "smooth":
            return _cmd_smooth(args)
        raise ConfigError(f"unknown command {args.command}")
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        # OSError: a form file that cannot be read or an --out path that
        # cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotImplementedError as exc:
        # exit 1 is reserved for a checked identity that failed
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except expsums.IdentityViolation as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
