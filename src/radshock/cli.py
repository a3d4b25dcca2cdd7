"""Command-line front end.

Subcommands: classify, scan, profile, verify, causality.  Exit codes:
0 success (including honest non-convergence verdicts), 1 verification
failure, 2 usage/domain error, 3 I/O error, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter

from . import classification as cls
from .equilibria import _pair, check_omega
from .errors import DomainError, RadshockError
from .model import causality_check
from .scan import EMITTERS, ScanConfig, run_scan
from .shooting import SYSTEMS, ShootOptions, profile_to_csv, shoot
from .verify import DEFAULT_SAMPLES, format_report, run_identity_suite


def parse_grid(text: str) -> tuple[int, int]:
    """argparse type for an "NxM" grid: eps count x q count."""
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 200x200, got {text!r}") from exc


def _shoot_options(args) -> ShootOptions:
    return ShootOptions(rel_tol=args.rtol, abs_tol=args.atol)


def cmd_classify(args) -> int:
    # Human-facing report: 12 significant digits.  The 17-digit contract
    # applies to the CSV/JSON data emitters.  One gate, then the bodies: the
    # separatrices printed are the ones that labelled the point.
    eps, q = check_omega(args.eps, args.q)
    q1, q2 = cls._separatrices(eps)
    label = cls.CODE_LABELS[cls._labels(eps, q, q1, q2)[0]]
    pair = _pair(q)
    lam = cls.local_spectrum(pair.psi_plus, eps)
    print(f"region: {label.value}")
    print(f"eps: {args.eps:.12g}  q_tilde: {args.q:.12g}")
    print(f"v_minus_sq: {pair.v_minus_sq:.12g}  v_plus_sq: {pair.v_plus_sq:.12g}")
    print(f"psi_minus: ({pair.psi_minus.psi0:.12g}, {pair.psi_minus.psi1:.12g})")
    print(f"psi_plus:  ({pair.psi_plus.psi0:.12g}, {pair.psi_plus.psi1:.12g})")
    print(f"eigenvalues at psi_plus: {lam[0]:.12g} {lam[1]:.12g}")
    print(f"separatrix q1(eps): {q1:.12g}")
    if q2 < math.inf:
        print(f"separatrix q2(eps): {q2:.12g}")
    return 0


def cmd_scan(args) -> int:
    eps_count, q_count = args.grid
    config = ScanConfig(
        eps_lo=args.eps_min,
        eps_hi=args.eps_max,
        eps_count=eps_count,
        q_lo=args.q_min,
        q_hi=args.q_max,
        q_count=q_count,
        shoot=args.shoot,
    )
    # Each format once, in the order given; all are written from one scan.
    formats = list(dict.fromkeys(args.format))
    if args.out is not None and len(formats) > 1:
        raise DomainError(f"--out names one file, but {len(formats)} formats were asked "
                          "for; drop --out to write scan.<format> for each")
    result = run_scan(config, _shoot_options(args))
    outs = [args.out or f"scan.{fmt}" for fmt in formats]
    for fmt, out in zip(formats, outs):
        text = EMITTERS[fmt](result)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    # A dict keeps first-seen order; Counter's own repr orders by count.
    counts = dict(Counter(result.records.region))
    print(f"wrote {', '.join(outs)}: {len(result.records)} records, regions {counts}")
    return 0


def cmd_profile(args) -> int:
    result = shoot(args.eps, args.q, _shoot_options(args))
    out = args.out or "profile.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(profile_to_csv(result))
    rep = result.oscillation
    print(f"verdict: {result.verdict.value}")
    print(f"oscillatory: {'true' if rep.oscillatory else 'false'}")
    for system, comps in rep.systems.items():
        parts = [
            f"{name}: extrema={c.extrema} sign_changes={c.sign_changes}"
            for name, c in zip(SYSTEMS[system], comps)
        ]
        flag = "true" if rep.oscillatory_by_system[system] else "false"
        print(f"system {system}: {'; '.join(parts)}; oscillatory={flag}")
    print(f"samples: {result.times.size}  trajectory: {out}")
    return 0


def cmd_verify(args) -> int:
    checks = run_identity_suite(samples=args.samples)
    print(format_report(checks))
    return 0 if all(c.passed for c in checks) else 1


def cmd_causality(args) -> int:
    verdict = causality_check(args.eta, args.mu, args.nu)
    if verdict.epsilon is None:
        print(verdict.klass.value)
    else:
        print(f"{verdict.klass.value}  eps: {verdict.epsilon:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radshock",
        description="Phase-plane classification and shock-profile shooting "
        "for the sharply-causal radiation-fluid model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shoot_flags = argparse.ArgumentParser(add_help=False)
    shoot_flags.add_argument("--rtol", type=float, default=ShootOptions.rel_tol)
    shoot_flags.add_argument("--atol", type=float, default=ShootOptions.abs_tol)

    p = sub.add_parser("classify", help="classify one (eps, q_tilde) point")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="sweep the parameter square", parents=[shoot_flags])
    grid = (ScanConfig.eps_count, ScanConfig.q_count)
    p.add_argument("--grid", type=parse_grid, default=grid, metavar="NxM",
                   help=f"eps count x q count (default {grid[0]}x{grid[1]})")
    p.add_argument("--format", nargs="+", choices=EMITTERS, default=["csv"],
                   help="one or more formats, all written from one scan (default csv)")
    p.add_argument("--out", default=None,
                   help="output path of a single format (default scan.<format>)")
    p.add_argument("--shoot", action="store_true", help="also shoot a profile per cell")
    p.add_argument("--eps-min", type=float, default=ScanConfig.eps_lo)
    p.add_argument("--eps-max", type=float, default=ScanConfig.eps_hi)
    p.add_argument("--q-min", type=float, default=ScanConfig.q_lo)
    p.add_argument("--q-max", type=float, default=ScanConfig.q_hi)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("profile", help="shoot one heteroclinic profile", parents=[shoot_flags])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--out", default=None, help="trajectory CSV path (default profile.csv)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="run the closed-form identity suite")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("causality", help="classify transport coefficients")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.set_defaults(func=cmd_causality)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RadshockError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, ImportError, MemoryError) as exc:
        # A stray numpy/scipy failure (LinAlgError is a ValueError) from the
        # numerical layers, a shot's missing compiled scipy module, or a grid
        # or sample count too large to allocate is an internal failure too; a
        # traceback's exit 1 would read as a failed verification.
        detail = str(exc).partition("\n")[0]
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
