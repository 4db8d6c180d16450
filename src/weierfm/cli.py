"""Command-line surface.

One subcommand per library operation:

  transform    truncated character of the transform of O_X(mΘ) ⊗ p*N
  slope        slope of a truncated character against ω = tΘ + s·p*h
  dual         character of the derived dual
  commute      dual-vs-transform commutativity check for one kernel
  ss-duality   spectral-sequence run + closed-form verdict for a scenario
  certify      judge a single destabilizer candidate
  scan         full stability pipeline for O_X(mΘ) (grid search; m > 0
               goes through the recorded dual reduction)

``--json`` switches any command from aligned tables to a machine-readable
document whose rationals are exact ``p/q`` strings.

Exit codes: 0 success; 1 malformed input (unknown preset, bad rationals,
bad flags); 2 hypothesis violation (operation precondition fails: slope
of a rank-0 character, stability over a base with nontrivial canonical
class, infeasible scenario, m = 0 pipeline); 3 internal invariant breach,
which is always a bug.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import serialize
from .duality import SheafScenario, solve_scenario
from .errors import (
    HypothesisViolationError,
    InfeasibleScenarioError,
    InternalCheckError,
    ModelMismatchError,
    UndefinedSlopeError,
)
from .fm import (
    KernelChoice,
    LineBundleX,
    Polarization,
    TruncatedChar,
    WitType,
    commutativity_check,
    dual_char,
    slope,
    transform_char,
)
from .presets import PRESETS, get_preset
from .rationals import (
    format_rational,
    parse_rational,
    parse_rational_vector,
)
from .ring import DivisorClassX, SurfaceModel
from .stability import (
    DestabilizerCandidate,
    EnumerationBounds,
    certify,
    transform_stability,
)

_INPUT_ERROR = 1
_HYPOTHESIS_ERROR = 2
_INTERNAL_ERROR = 3


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_vector(text: str) -> tuple[Fraction, ...]:
    try:
        return parse_rational_vector(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _wit(text: str) -> WitType:
    mapping = {"0": WitType.WIT0, "1": WitType.WIT1,
               "WIT0": WitType.WIT0, "WIT1": WitType.WIT1}
    try:
        return mapping[text]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"wit must be one of 0, 1, WIT0, WIT1 (got {text!r})"
        ) from None


def _kernel(text: str) -> KernelChoice:
    try:
        return KernelChoice(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"kernel must be 'paper' or 'alternate' (got {text!r})"
        ) from None


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--preset",
        default="k3_quartic",
        help=f"surface preset: {', '.join(sorted(PRESETS))} (default k3_quartic)",
    )
    sub.add_argument(
        "--model-file",
        default=None,
        help="path to a SurfaceModel JSON document (overrides --preset)",
    )


def _add_pol_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-t", type=_rational, required=True, help="Θ coefficient of ω")
    sub.add_argument("-s", type=_rational, required=True, help="p*h coefficient of ω")
    sub.add_argument(
        "--h",
        type=_rational_vector,
        default=None,
        help="ample class on the base (comma-separated; preset default otherwise)",
    )


def _resolve_model(args) -> tuple[SurfaceModel, tuple[Fraction, ...] | None, str]:
    if args.model_file:
        with open(args.model_file, "r", encoding="utf-8") as fh:
            model = serialize.surface_model_from_json(json.load(fh))
        return model, None, args.model_file
    preset = get_preset(args.preset)
    return preset.model, preset.ample, preset.name


def _resolve_polarization(args, model, default_h) -> Polarization:
    h = args.h if args.h is not None else default_h
    if h is None:
        raise ValueError("--h is required when the model comes from a file")
    return Polarization(model, args.t, args.s, h)


def _char_from_flags(args, model) -> TruncatedChar:
    delta = (
        args.ch1_delta if args.ch1_delta is not None else model.zero_vector()
    )
    return TruncatedChar(args.ch0, DivisorClassX(model, args.ch1_theta, delta))


def _print_json(payload) -> None:
    print(json.dumps(payload, ensure_ascii=False, indent=2))


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


# -- command handlers --------------------------------------------------------


def _cmd_transform(args) -> int:
    model, _, source = _resolve_model(args)
    lb = LineBundleX(model, args.m, args.twist)
    result = transform_char(lb)
    if args.json:
        _print_json(serialize.to_jsonable(result))
    else:
        _print_table(
            [
                ("model", source),
                ("line bundle", lb.render()),
                ("ch0", format_rational(result.char.ch0)),
                ("ch1", result.char.ch1.render()),
                ("WIT type", result.wit.value),
                ("locally free", "yes" if result.locally_free else "no"),
            ]
        )
    return 0


def _cmd_slope(args) -> int:
    model, default_h, _ = _resolve_model(args)
    pol = _resolve_polarization(args, model, default_h)
    value = slope(_char_from_flags(args, model), pol)
    if args.json:
        _print_json({"slope": format_rational(value)})
    else:
        print(format_rational(value))
    return 0


def _cmd_dual(args) -> int:
    model, _, _ = _resolve_model(args)
    dual = dual_char(_char_from_flags(args, model))
    if args.json:
        _print_json(serialize.to_jsonable(dual))
    else:
        _print_table(
            [("ch0", format_rational(dual.ch0)), ("ch1", dual.ch1.render())]
        )
    return 0


def _cmd_commute(args) -> int:
    model, _, _ = _resolve_model(args)
    lb = LineBundleX(model, args.m, args.twist)
    commutes = commutativity_check(lb, args.kernel)
    if args.json:
        _print_json(
            {
                "line_bundle": serialize.to_jsonable(lb),
                "kernel": args.kernel.value,
                "commutes": commutes,
            }
        )
    else:
        _print_table(
            [
                ("line bundle", lb.render()),
                ("kernel", args.kernel.value),
                ("commutes", "yes" if commutes else "no"),
            ]
        )
    return 0


def _cmd_ss_duality(args) -> int:
    scenario = SheafScenario(n=args.n, c=args.c, wit=args.wit, dim_shift=args.dim_shift)
    solution = solve_scenario(scenario)
    if args.json:
        _print_json(serialize.to_jsonable(solution))
        return 0
    shift = f"{scenario.dim_shift:+d}"
    _print_table(
        [
            (
                "scenario",
                f"n={scenario.n} c={scenario.c} {scenario.wit.value} dim_shift={shift}",
            ),
            ("conclusion", solution.conclusion.kind.value),
            ("statement", solution.conclusion.statement),
            (
                "degeneration",
                f"left page {solution.left_page}, right page {solution.right_page}",
            ),
        ]
    )
    print("relations:")
    for relation in solution.relations:
        print(f"  {relation.render()}")
    return 0


def _cmd_certify(args) -> int:
    model, default_h, _ = _resolve_model(args)
    pol = _resolve_polarization(args, model, default_h)
    delta = args.delta if args.delta is not None else model.zero_vector()
    cand = DestabilizerCandidate(r=args.rank, a=args.a, delta=delta, e=args.e)
    report = certify(args.n, pol, cand)
    if args.json:
        _print_json(serialize.to_jsonable(report))
        return 0
    rows = [
        ("candidate", f"r={cand.r} a={cand.a} delta=[{', '.join(map(str, cand.delta))}] e={cand.e}"),
        ("verdict", report.verdict.value),
        ("candidate slope", format_rational(report.candidate_slope)),
        ("target slope", format_rational(report.target_slope)),
        ("fiber degree", format_rational(report.fiber_deg)),
        ("proxy", f"a≥0: {'yes' if report.proxy.a_nonneg else 'no'}, delta·H = {report.proxy.pairing}"),
    ]
    _print_table(rows)
    print("trace:")
    for step in report.trace:
        flag = "ok" if step.satisfied else "FAILS"
        print(f"  {step.name}: {step.value} (want {step.requirement}) {flag}")
    for reason in report.inadmissible_reasons:
        print(f"  inadmissible: {reason}")
    return 0


def _cmd_scan(args) -> int:
    model, default_h, _ = _resolve_model(args)
    pol = _resolve_polarization(args, model, default_h)
    bounds = EnumerationBounds(a_max=args.a_max, delta_max=args.delta_max)
    lb = LineBundleX(model, args.m, args.twist)
    report = transform_stability(lb, pol, bounds)
    if args.json:
        payload = serialize.to_jsonable(report)
        if args.full_reports:
            payload["reports"] = [
                serialize.to_jsonable(r) for r in report.scan.reports
            ]
        _print_json(payload)
        return 0
    counts = report.scan.verdict_counts()
    rows = [
        ("line bundle", lb.render()),
        ("transform ch0", format_rational(report.transform.char.ch0)),
        ("transform ch1", report.transform.char.ch1.render()),
        ("WIT type", report.transform.wit.value),
        ("transform slope", format_rational(report.transform_slope)),
        ("search rank", str(report.search_rank)),
        ("target slope", format_rational(report.target_slope)),
        ("candidates", str(report.scan.candidate_count)),
        ("certified", str(counts["Certified"])),
        ("inadmissible", str(counts["Inadmissible"])),
        ("violations", str(counts["Violation"])),
        ("any violation", "yes" if report.scan.any_violation else "no"),
        ("stable", "yes" if report.stable else "no"),
    ]
    _print_table(rows)
    print("reduction:")
    for line in report.reduction:
        print(f"  - {line}")
    return 0


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads ``-1/2`` and ``-1,3`` as values, as argparse itself reads ``-1``.

    No option string here starts with a digit, so every token that does is
    a value.  Subcommand parsers inherit the class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weierfm",
        description="Exact transform calculus on Weierstrass elliptic threefolds",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("transform", help="character of the transform of O_X(mΘ)⊗p*N")
    _add_model_flags(p)
    p.add_argument("-m", type=int, required=True, help="multiple of the section Θ")
    p.add_argument("--twist", type=_rational_vector, default=None, help="c1 of N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = subs.add_parser("slope", help="slope of a truncated character")
    _add_model_flags(p)
    _add_pol_flags(p)
    p.add_argument("--ch0", type=_rational, required=True)
    p.add_argument("--ch1-theta", type=_rational, default=Fraction(0))
    p.add_argument("--ch1-delta", type=_rational_vector, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_slope)

    p = subs.add_parser("dual", help="character of the derived dual")
    _add_model_flags(p)
    p.add_argument("--ch0", type=_rational, required=True)
    p.add_argument("--ch1-theta", type=_rational, default=Fraction(0))
    p.add_argument("--ch1-delta", type=_rational_vector, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dual)

    p = subs.add_parser("commute", help="dual-transform commutativity check")
    _add_model_flags(p)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--twist", type=_rational_vector, default=None)
    p.add_argument("--kernel", type=_kernel, default=KernelChoice.PAPER)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_commute)

    p = subs.add_parser("ss-duality", help="run the duality bookkeeping engine")
    p.add_argument("-n", type=int, default=3, help="dimension of X (default 3)")
    p.add_argument("-c", type=int, required=True, help="codimension of E")
    p.add_argument("--wit", type=_wit, required=True, help="0/WIT0 or 1/WIT1")
    p.add_argument(
        "--dim-shift", type=int, required=True, help="transform dim minus sheaf dim"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ss_duality)

    p = subs.add_parser("certify", help="judge one destabilizer candidate")
    _add_model_flags(p)
    _add_pol_flags(p)
    p.add_argument("-n", type=int, required=True, help="rank of the searched transform")
    p.add_argument("-r", "--rank", type=int, required=True, help="candidate rank")
    p.add_argument("--a", type=_rational, required=True, help="Θ coefficient")
    p.add_argument("--delta", type=_rational_vector, default=None)
    p.add_argument("--e", type=int, choices=(0, 1), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("scan", help="full stability pipeline for O_X(mΘ)")
    _add_model_flags(p)
    _add_pol_flags(p)
    p.add_argument("-m", type=int, required=True, help="nonzero multiple of Θ")
    p.add_argument("--twist", type=_rational_vector, default=None)
    p.add_argument("--a-max", type=_rational, default=Fraction(6))
    p.add_argument("--delta-max", type=_rational, default=Fraction(6))
    p.add_argument("--full-reports", action="store_true",
                   help="with --json, include every per-candidate report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else _INPUT_ERROR
    try:
        return args.func(args)
    except (HypothesisViolationError, UndefinedSlopeError, InfeasibleScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _HYPOTHESIS_ERROR
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return _INTERNAL_ERROR
    except (ValueError, TypeError, ModelMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
