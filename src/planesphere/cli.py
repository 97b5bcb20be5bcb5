"""Command-line front end: configuration, dispatch, and serialization.

Every successful run writes one JSON or CSV report embedding the fully
resolved configuration, so a report is reproducible from its own header.
Field order and float formatting are fixed; identical configs produce
byte-identical JSON.

Exit codes: 0 success, 1 numerical failure (machine-readable error object
on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .asymptotics import (
    beta_bundle,
    e_pfa,
    energy_asymptotic,
    trace_Mr_leading,
    trace_Mr_ntlo,
)
from .core import Geometry, Polarization
from .mie import TruncationError
from .reflection import KernelKind
from .solver import NonContractiveKernelError, QuadratureConfig, energy

HBAR_C_JOULE_METER = 1.054571817e-34 * 2.99792458e8


class UsageError(ValueError):
    """Config validation failure that should map to exit status 2."""


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _flatten(report: dict | list, prefix: str = "") -> dict:
    flat = {}
    items = report.items() if isinstance(report, dict) else enumerate(report)
    for key, value in items:
        name = f"{prefix}{key}"
        if isinstance(value, (dict, list)):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def emit_csv(reports: list[dict]) -> str:
    """Delimited serialization: one row per report, stable column order.

    Columns follow the key order of the first report: nested dicts become
    dot-joined column names and list items are indexed (samples.0.ratio_to_pfa,
    table_percentages.0), so every cell is a number or a plain label.  Floats
    carry 17 significant digits so that reading a cell back is exact.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if not reports:
        writer.writerow([])
        return buffer.getvalue()
    flat_reports = [_flatten(r) for r in reports]
    columns = list(flat_reports[0].keys())
    for flat in flat_reports[1:]:
        if list(flat.keys()) != columns:
            raise UsageError("csv output requires a homogeneous report list")
    writer.writerow(columns)
    for flat in flat_reports:
        writer.writerow([_format_value(flat[c]) for c in columns])
    return buffer.getvalue()


def emit_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _write_report(report, args, plt) -> None:
    if args.format == "json":
        payload = emit_json(report if isinstance(report, dict) else {"reports": report})
    else:
        reports = report if isinstance(report, list) else [report]
        payload = emit_csv(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if plt is not None:
        _render_plot(report, args, plt)


def _plot_backend(args):
    """matplotlib.pyplot for --plot, checked before the command does any work."""
    if not args.out:
        raise UsageError("--plot requires --out (the figure is written alongside it)")
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise UsageError(
            "--plot requires matplotlib (install the 'plots' extra)"
        ) from exc
    return plt


def _render_plot(report, args, plt) -> None:
    """Optional figure next to the delimited output (needs the plots extra)."""
    base, _ = os.path.splitext(args.out)
    fig, ax = plt.subplots(figsize=(5.0, 3.4))
    if isinstance(report, dict) and "samples" in report:
        x = [1.0 / s["aspect_ratio"] for s in report["samples"]]
        y = [s["ratio_to_pfa"] for s in report["samples"]]
        ax.plot(x, y, "o-")
        ax.set_xlabel("L/R")
        ax.set_ylabel("E / E_PFA")
    elif isinstance(report, list):
        x = [row["u"] for row in report]
        for key in ("leading_TE", "leading_TM", "ntlo_per_pol"):
            ax.semilogy(x, [abs(row[key]) for row in report], label=key)
        ax.set_xlabel("u")
        ax.legend()
    else:
        ax.bar(["E", "E_PFA"], [report["energy_hbar_c_over_L"],
                                report["energy_hbar_c_over_L"] / report["ratio_to_pfa"]])
        ax.set_ylabel("energy [hbar c / L]")
    fig.tight_layout()
    fig.savefig(base + ".png", dpi=150)
    plt.close(fig)


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------

def _geometry(args) -> Geometry:
    if args.R is None or args.L is None:
        raise UsageError("this command requires --R and --L")
    try:
        return Geometry(R=args.R, L=args.L)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _quadrature(args, geometry: Geometry) -> QuadratureConfig:
    base = QuadratureConfig.auto(geometry)
    try:
        return QuadratureConfig(
            n_radial=base.n_radial if args.n_radial is None else args.n_radial,
            n_azimuthal=base.n_azimuthal if args.n_azimuthal is None else args.n_azimuthal,
            n_xi=base.n_xi if args.n_xi is None else args.n_xi,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _common(report: dict, args, geometry: Geometry | None) -> dict:
    header = {"command": args.command, "energy_unit": "hbar*c/L"}
    if geometry is not None:
        header["R"] = geometry.R
        header["L"] = geometry.L
        header["aspect_ratio"] = geometry.aspect_ratio
    merged = {**header, **report}
    if (geometry is not None and args.length_unit_m is not None
            and "energy_hbar_c_over_L" in merged):
        scale = HBAR_C_JOULE_METER / (geometry.L * args.length_unit_m)
        merged["energy_joule"] = merged["energy_hbar_c_over_L"] * scale
    return merged


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_energy(args) -> dict:
    geometry = _geometry(args)
    config = _quadrature(args, geometry)
    kind = KernelKind(args.kernel)
    report = energy(geometry, kind, config=config, threads=args.threads)
    out = report.to_dict()
    out["threads"] = args.threads
    return _common(out, args, geometry)


def _cmd_pfa(args) -> dict:
    geometry = _geometry(args)
    report = {
        "energy_hbar_c_over_L": e_pfa(geometry),
        "ratio_to_pfa": 1.0,
        "energy_ntlo_hbar_c_over_L": energy_asymptotic(geometry),
    }
    return _common(report, args, geometry)


def _cmd_beta(args) -> dict:
    bundle = beta_bundle()
    floats = {name: getattr(bundle, name) for name in (
        "beta1", "beta_go", "beta_d", "beta_d_te", "beta_d_tm",
        "beta_te", "beta_tm", "beta_dd", "beta_nn",
    )}
    exact = {
        name: {"rational": str(rat), "coeff_over_pi2": str(pi2)}
        for name, (rat, pi2) in bundle.exact.items()
    }
    report = {
        "float": floats,
        "exact": exact,
        "table_percentages": list(bundle.table_percentages),
    }
    return _common(report, args, None)


def _cmd_beta_fit(args) -> dict:
    from .oracles import beta_fit

    if not args.ratios:
        raise UsageError("beta-fit requires --ratios (comma-separated R/L values)")
    if len(set(args.ratios)) < (2 if args.model == "linear" else 3):
        raise UsageError("need at least 2 (linear) or 3 (quadratic) distinct ratios")
    kind = KernelKind(args.kernel)
    samples = []
    for rho in args.ratios:
        geometry = Geometry(R=rho, L=1.0)
        config = _quadrature(args, geometry)
        rep = energy(geometry, kind, config=config, threads=args.threads)
        samples.append({
            "aspect_ratio": rho,
            "energy_hbar_c_over_L": rep.energy,
            "ratio_to_pfa": rep.ratio_to_pfa,
            "n_radial": config.n_radial,
            "n_azimuthal": config.n_azimuthal,
            "n_xi": config.n_xi,
        })
    estimate, stderr = beta_fit(
        [(s["aspect_ratio"], s["ratio_to_pfa"]) for s in samples], model=args.model
    )
    report = {
        "kernel": kind.value,
        "model": args.model,
        "threads": args.threads,
        "beta_estimate": estimate,
        "beta_stderr": stderr,
        "samples": samples,
    }
    return _common(report, args, None)


def _cmd_trace_terms(args) -> list[dict]:
    if not args.u:
        raise UsageError("trace-terms requires --u (comma-separated u = 2 xi L r values)")
    rows = []
    for u in args.u:
        for r in range(1, args.r_max + 1):
            lead_te = trace_Mr_leading(r, u, Polarization.TE)
            lead_tm = trace_Mr_leading(r, u, Polarization.TM)
            rows.append({
                "u": u,
                "r": r,
                "leading_TE": lead_te[0] + lead_te[1],
                "leading_TM": lead_tm[0] + lead_tm[1],
                "ntlo_per_pol": trace_Mr_ntlo(r, u),
            })
    return rows


def _cmd_verify(args) -> dict:
    from . import oracles
    from .asymptotics import appendix_D

    checks = {}

    def record(name: str, residual: float, tol: float) -> None:
        checks[name] = {
            "residual": residual,
            "tolerance": tol,
            "pass": bool(residual < tol),
        }

    bundle = beta_bundle()
    record("beta1_exact", abs(bundle.beta1 - (1.0 / 3.0 - 20.0 / math.pi**2)), 1e-15)
    record(
        "table_percentages",
        0.0 if bundle.table_percentages == (74.8, 15.0, 5.1, 5.1) else 1.0,
        0.5,
    )

    worst = 0.0
    for r in (2, 3, 4, 5):
        for (xi, ks) in ((0.7, 1.3), (1.5, 2.0)):
            num = oracles.numeric_F1(r, xi, ks)
            ref = appendix_D(r, xi, ks)
            for attr in ("d1", "d2", "d3_over_g", "f1_over_g"):
                scale = max(abs(getattr(ref, attr)), 1e-12)
                worst = max(worst, abs(getattr(num, attr) - getattr(ref, attr)) / scale)
    record("appendix_closed_forms", worst, 1e-5)

    res = oracles.vanishing_residuals(3, 0.7, 1.3)
    record("g_i_vanishes", res["g_i_scaled"], 1e-7)
    record("f_ijjbar_vanishes", res["f_ijjbar_scaled"], 1e-7)
    record("hessian_counter_diagonal", oracles.hessian_counter_diagonal(3, 0.7, 1.3), 1e-6)
    record(
        "polarization_mixing_cancellation",
        oracles.polarization_mixing_cancellation(2, 0.7, 1.3),
        1e-7,
    )
    dpq = oracles.d_pq_classes(3, 0.7, 1.3)
    record("d_pq_classes", max(dpq.values()), 1e-5)

    from .solver import trace_Mr_numeric

    geometry = Geometry(R=5.0, L=1.0)
    cfg = QuadratureConfig(n_radial=64, n_azimuthal=64, n_xi=8)
    brute = oracles.brute_force_trace(1, 1.0, geometry, n_k=140)
    solved = trace_Mr_numeric(1, 1.0, geometry, KernelKind.EXACT_MIE, cfg)
    record("trace_r1_exact_vs_brute", abs(solved / brute - 1.0), 1e-5)

    report = {
        "pass": all(c["pass"] for c in checks.values()),
        "checks": checks,
    }
    return _common(report, args, None)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _finite_positive_list(text: str) -> list[float]:
    return [_finite_positive(tok) for tok in text.split(",") if tok]


# every flag is declared once; each command lists only the flags it reads
_FLAGS = {
    "--R": dict(type=float, help="sphere radius"),
    "--L": dict(type=float, help="surface-to-surface gap (same unit as R)"),
    "--kernel": dict(choices=[k.value for k in KernelKind], default="exact-mie"),
    "--n-radial": dict(type=int, default=None),
    "--n-azimuthal": dict(type=int, default=None),
    "--n-xi": dict(type=int, default=None),
    "--threads": dict(type=_at_least_one, default=1,
                      help="worker processes over the frequency nodes (default 1); "
                           "BLAS runs on one thread in each"),
    "--length-unit-m": dict(type=_finite_positive, default=None,
                            help="meters per input length unit (finite, > 0), "
                                 "adds energy_joule"),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--out": dict(type=str, default=None),
    "--plot": dict(action="store_true",
                   help="also render a figure next to --out (needs matplotlib)"),
    "--ratios": dict(type=_finite_positive_list, default=None,
                     help="comma-separated R/L values (finite, > 0)"),
    "--model": dict(choices=["linear", "quadratic"], default="quadratic"),
    "--u": dict(type=_finite_positive_list, default=None,
                help="comma-separated u = 2 xi L r values (finite, > 0)"),
    "--r-max": dict(type=_at_least_one, default=5, help="largest round-trip count r"),
}
_SOLVER = ("--kernel", "--n-radial", "--n-azimuthal", "--n-xi", "--threads")
_OUTPUT = ("--format", "--out")

# name -> (handler, help, flags)
_COMMANDS = {
    "energy": (_cmd_energy, "full scattering-formula energy with the chosen kernel",
               ("--R", "--L", *_SOLVER, "--length-unit-m", *_OUTPUT, "--plot")),
    "pfa": (_cmd_pfa, "proximity-force (and NTLO-corrected) asymptotic energy",
            ("--R", "--L", "--length-unit-m", *_OUTPUT, "--plot")),
    "beta": (_cmd_beta, "exact beta coefficients and the contribution table", _OUTPUT),
    "beta-fit": (_cmd_beta_fit, "fit beta from energies at several aspect ratios",
                 (*_SOLVER, *_OUTPUT, "--plot", "--ratios", "--model")),
    "trace-terms": (_cmd_trace_terms, "leading/NTLO per-round-trip traces for given u values",
                    (*_OUTPUT, "--plot", "--u", "--r-max")),
    "verify": (_cmd_verify, "run the oracle suite and report pass/fail residuals", _OUTPUT),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planesphere",
        description="Casimir energy of a perfectly reflecting sphere facing a plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        plt = _plot_backend(args) if getattr(args, "plot", False) else None
        report = _COMMANDS[args.command][0](args)
        _write_report(report, args, plt)
    except UsageError as exc:
        parser.exit(2, f"error: {exc}\n")
    except (NonContractiveKernelError, TruncationError, ValueError,
            ArithmeticError) as exc:
        sys.stderr.write(emit_json({
            "error": type(exc).__name__,
            "message": str(exc),
        }))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
