"""Command-line surface.

One subcommand per library operation:

  transform    truncated character of the transform of O_X(mΘ) ⊗ p*N
  slope        slope of a truncated character against ω = tΘ + s·p*h
  dual         character of the derived dual
  commute      dual-vs-transform commutativity check for one kernel
  ss-duality   spectral-sequence run for a scenario and the engine's conclusion
  certify      judge a single destabilizer candidate
  scan         full stability pipeline for O_X(mΘ) (grid search; m > 0
               goes through the recorded dual reduction)

``--json`` switches any command from aligned tables to a machine-readable
document whose rationals are exact ``p/q`` strings.

Every command loads ``ring`` and ``fm`` (the parser needs them); each
handler imports the rest of what it runs, when it runs, and builds only
the output asked for, the JSON document or the text lines:

  slope, transform, dual, commute    nothing more
  ss-duality                         ``duality``
  certify, scan                      ``stability``, and for ``scan -m``
                                     above 0 also ``duality``

``--json`` adds ``serialize``, which writes the document (but not for
``slope``, whose document is one rational), and so does ``--model-file``,
which it reads; ``serialize`` itself loads nothing beyond ``ring``.  No
command loads ``dataclasses`` (see :mod:`weierfm.rationals`).

Exit codes: 0 success; 1 malformed input (unknown preset, bad rationals,
bad flags, a scenario dimension above the cap, a scan grid above
MAX_SCAN_CANDIDATES candidates, a result too long to print: an exact value
with more digits than Python's integer-to-string limit, such as s²H² for
an ``-s`` of 2 200 digits, computed but refused with Python's own
message); 2 hypothesis violation
(operation precondition fails: slope of a rank-0 character, stability
over a base with nontrivial canonical class or over a lattice that no
such surface has, a threefold whose omega class differs from the
canonical class, infeasible scenario, m = 0 pipeline); 3 internal
invariant breach, which is always a bug.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

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
from .verdicts import WitType

_INPUT_ERROR = 1
_HYPOTHESIS_ERROR = 2
_INTERNAL_ERROR = 3


def _arg(parse, what: str | None = None):
    """An argparse ``type=`` adapter: a failed ``parse`` is reported as
    ``what`` and the offending text, or as the parse error's own text."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            message = str(exc) if what is None else f"{what} (got {text!r})"
            raise argparse.ArgumentTypeError(message) from None

    return convert


def _parse_int(text: str) -> int:
    """The rationals' ASCII grammar without a denominator (``int`` would
    also read ``1_0`` and other scripts' digits)."""
    if "/" in text:
        raise ValueError(text)
    return int(parse_rational(text))


_int = _arg(_parse_int, "expected an integer in ASCII digits")
_rational = _arg(parse_rational)
_rational_vector = _arg(parse_rational_vector)
_wit = _arg(lambda text: WitType({"0": "WIT0", "1": "WIT1"}.get(text, text)),
            "wit must be one of 0, 1, WIT0, WIT1")
_kernel = _arg(KernelChoice, "kernel must be 'paper' or 'alternate'")


def _resolve_model(args) -> tuple[SurfaceModel, tuple[Fraction, ...] | None, str]:
    if args.model_file:
        from . import serialize

        with open(args.model_file, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.model_file}: JSON nested too deeply") from None
        return serialize.surface_model_from_json(doc), None, args.model_file
    preset = get_preset(args.preset)
    return preset.model, preset.ample, preset.name


def _resolve_polarization(args) -> Polarization:
    model, default_h, _ = _resolve_model(args)
    h = args.h if args.h is not None else default_h
    if h is None:
        raise ValueError("--h is required when the model comes from a file")
    return Polarization(model, args.t, args.s, h)


def _char_from_flags(args, model) -> TruncatedChar:
    delta = (
        args.ch1_delta if args.ch1_delta is not None else model.zero_vector()
    )
    return TruncatedChar(args.ch0, DivisorClassX(model, args.ch1_theta, delta))


def _table(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(key) for key, _ in rows)
    return [f"{key.ljust(width)}  {value}" for key, value in rows]


# -- command handlers --------------------------------------------------------
# Each returns the --json document with --json and the text lines otherwise,
# building only the one asked for, and imports the layers it runs beyond ring
# and fm, so that a call loads only those: serialize only for a JSON document.


def _jsonable(obj) -> dict:
    from .serialize import to_jsonable

    return to_jsonable(obj)


def _cmd_transform(args) -> dict | list[str]:
    model, _, source = _resolve_model(args)
    lb = LineBundleX(model, args.m, args.twist)
    result = transform_char(lb)
    if args.json:
        return _jsonable(result)
    return _table(
        [
            ("model", source),
            ("line bundle", lb.render()),
            ("ch0", format_rational(result.char.ch0)),
            ("ch1", result.char.ch1.render()),
            ("WIT type", result.wit.value),
            ("locally free", "yes" if result.locally_free else "no"),
        ]
    )


def _cmd_slope(args) -> dict | list[str]:
    pol = _resolve_polarization(args)
    value = format_rational(slope(_char_from_flags(args, pol.model), pol))
    return {"slope": value} if args.json else [value]


def _cmd_dual(args) -> dict | list[str]:
    model, _, _ = _resolve_model(args)
    dual = dual_char(_char_from_flags(args, model))
    if args.json:
        return _jsonable(dual)
    return _table([("ch0", format_rational(dual.ch0)), ("ch1", dual.ch1.render())])


def _cmd_commute(args) -> dict | list[str]:
    model, _, _ = _resolve_model(args)
    lb = LineBundleX(model, args.m, args.twist)
    commutes = commutativity_check(lb, args.kernel)
    if args.json:
        return {"line_bundle": _jsonable(lb), "kernel": args.kernel.value, "commutes": commutes}
    return _table(
        [
            ("line bundle", lb.render()),
            ("kernel", args.kernel.value),
            ("commutes", "yes" if commutes else "no"),
        ]
    )


def _cmd_ss_duality(args) -> dict | list[str]:
    from .duality import SheafScenario, solve_scenario

    scenario = SheafScenario(n=args.n, c=args.c, wit=args.wit, dim_shift=args.dim_shift)
    solution = solve_scenario(scenario)
    if args.json:
        return _jsonable(solution)
    shift = f"{scenario.dim_shift:+d}"
    lines = _table(
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
    lines.append("relations:")
    lines += [f"  {relation.render()}" for relation in solution.relations]
    return lines


def _cmd_certify(args) -> dict | list[str]:
    from .stability import DestabilizerCandidate, certify

    pol = _resolve_polarization(args)
    delta = args.delta if args.delta is not None else pol.model.zero_vector()
    cand = DestabilizerCandidate(r=args.rank, a=args.a, delta=delta, e=args.e)
    report = certify(args.n, pol, cand)
    if args.json:
        return _jsonable(report)
    lines = _table(
        [
            ("candidate", f"r={cand.r} a={cand.a} delta=[{', '.join(map(str, cand.delta))}] e={cand.e}"),
            ("verdict", report.verdict.value),
            ("candidate slope", format_rational(report.candidate_slope)),
            ("target slope", format_rational(report.target_slope)),
            ("fiber degree", format_rational(report.fiber_deg)),
            ("proxy", f"a≥0: {'yes' if report.proxy.a_nonneg else 'no'}, delta·H = {report.proxy.pairing}"),
        ]
    )
    lines.append("trace:")
    for step in report.trace:
        flag = "ok" if step.satisfied else "FAILS"
        lines.append(f"  {step.name}: {step.value} (want {step.requirement}) {flag}")
    lines += [f"  inadmissible: {reason}" for reason in report.inadmissible_reasons]
    return lines


def _cmd_scan(args) -> dict | list[str]:
    from .stability import EnumerationBounds, transform_stability

    pol = _resolve_polarization(args)
    bounds = EnumerationBounds(a_max=args.a_max, delta_max=args.delta_max)
    lb = LineBundleX(pol.model, args.m, args.twist)
    report = transform_stability(lb, pol, bounds)
    if args.json:
        payload = _jsonable(report)
        if args.full_reports:  # the table never shows the reports
            payload["reports"] = [_jsonable(r) for r in report.scan.reports]
        return payload
    counts = report.scan.verdict_counts()
    lines = _table(
        [
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
    )
    lines.append("reduction:")
    lines += [f"  - {line}" for line in report.reduction]
    return lines


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

    # Flag groups shared by several subcommands, passed as argparse parents.
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument(
        "--preset",
        default="k3_quartic",
        help=f"surface preset: {', '.join(sorted(PRESETS))} (default k3_quartic)",
    )
    model.add_argument(
        "--model-file",
        default=None,
        help="path to a SurfaceModel JSON document (overrides --preset)",
    )
    pol = argparse.ArgumentParser(add_help=False)
    pol.add_argument("-t", type=_rational, required=True, help="Θ coefficient of ω")
    pol.add_argument("-s", type=_rational, required=True, help="p*h coefficient of ω")
    pol.add_argument(
        "--h",
        type=_rational_vector,
        default=None,
        help="ample class on the base (comma-separated; preset default otherwise)",
    )
    bundle = argparse.ArgumentParser(add_help=False)
    bundle.add_argument("-m", type=_int, required=True, help="multiple of the section Θ")
    bundle.add_argument("--twist", type=_rational_vector, default=None, help="c1 of N")
    char = argparse.ArgumentParser(add_help=False)
    char.add_argument("--ch0", type=_rational, required=True)
    char.add_argument("--ch1-theta", type=_rational, default=Fraction(0))
    char.add_argument("--ch1-delta", type=_rational_vector, default=None)

    commands = (
        ("transform", "character of the transform of O_X(mΘ)⊗p*N", _cmd_transform,
         [model, bundle]),
        ("slope", "slope of a truncated character", _cmd_slope, [model, pol, char]),
        ("dual", "character of the derived dual", _cmd_dual, [model, char]),
        ("commute", "dual-transform commutativity check", _cmd_commute, [model, bundle]),
        ("ss-duality", "run the duality bookkeeping engine", _cmd_ss_duality, []),
        ("certify", "judge one destabilizer candidate", _cmd_certify, [model, pol]),
        ("scan", "full stability pipeline for O_X(mΘ)", _cmd_scan, [model, pol, bundle]),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, help_text, handler, groups in commands:
        sub[name] = subs.add_parser(name, help=help_text, parents=groups)
        sub[name].set_defaults(func=handler)

    sub["commute"].add_argument("--kernel", type=_kernel, default=KernelChoice.PAPER)

    p = sub["ss-duality"]
    p.add_argument("-n", type=_int, default=3, help="dimension of X (default 3)")
    p.add_argument("-c", type=_int, required=True, help="codimension of E")
    p.add_argument("--wit", type=_wit, required=True, help="0/WIT0 or 1/WIT1")
    p.add_argument(
        "--dim-shift", type=_int, required=True, help="transform dim minus sheaf dim"
    )

    p = sub["certify"]
    p.add_argument("-n", type=_int, required=True, help="rank of the searched transform")
    p.add_argument("-r", "--rank", type=_int, required=True, help="candidate rank")
    p.add_argument("--a", type=_rational, required=True, help="Θ coefficient")
    p.add_argument("--delta", type=_rational_vector, default=None)
    p.add_argument("--e", type=_int, choices=(0, 1), required=True)

    p = sub["scan"]
    p.add_argument("--a-max", type=_rational, default=Fraction(6))
    p.add_argument("--delta-max", type=_rational, default=Fraction(6))
    p.add_argument("--full-reports", action="store_true",
                   help="with --json, include every per-candidate report")

    # Last, so that every usage line lists --json after the command's own flags.
    for p in sub.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else _INPUT_ERROR
    try:
        out = args.func(args)
        print(json.dumps(out, ensure_ascii=False, indent=2) if args.json else "\n".join(out))
    except (HypothesisViolationError, UndefinedSlopeError, InfeasibleScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _HYPOTHESIS_ERROR
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return _INTERNAL_ERROR
    except (ValueError, TypeError, ModelMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_ERROR
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
