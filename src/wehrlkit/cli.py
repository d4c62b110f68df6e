"""Command-line front end: sweeps, bipartite witnesses, covariance reports.

Every subcommand writes either CSV (fixed column order, %.12g floats) or
a JSON object with sorted keys, so repeated runs are byte identical for
the same settings, including the parallelism degree.  Diagnostics go to
stderr.  Exit codes: 0 on success, 2 when the quadrature engine cannot
reach tolerance or a per-row bound check fails (the offending grid point
is named on stderr), 3 on bad arguments or unreadable inputs.

Settings resolve in three layers: an explicit flag wins, then the
--config JSON file, then the ``QuadratureSpec`` default, the same for
every command (parallelism additionally reads WEHRLKIT_PARALLELISM
between config and default).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .entropies import (
    entanglement_witness,
    quantum_mutual_information_noon,
    quantum_mutual_information_tmss,
    wehrl_mutual_information,
)
from .errors import LambdaOutOfRange, ToleranceNotReached, ToolkitError, grid_point
from .eur import (
    bbm_lhs_asymptotic,
    eur_sweep_fock,
    eur_sweep_mixture,
    eur_sweep_thermal,
    mixture_crossover,
    wl_lhs_stirling,
)
from .gaussian import (
    CovarianceModel,
    ModePartition,
    check_squeezing,
    gaussian_witness,
    ppt_minimum,
    von_neumann_gaussian,
    wehrl_gaussian_joint,
    wehrl_gaussian_local,
)
from .husimi import NoonMarginalHusimi
from .quadrature import QuadratureSpec, entropy_functional
from .states import GaussianState, NoonState, TwoModeSqueezedState, state_to_dict

_EUR_COLUMNS = (
    "grid_param",
    "wl_lhs",
    "bbm_lhs",
    "fl_lhs",
    "bound",
    "wl_deficit",
    "bbm_deficit",
    "fl_deficit",
    "cross_check_delta",
)

_ASYMPTOTIC_COLUMNS = ("wl_lhs_asymptotic", "bbm_lhs_asymptotic")

@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation."""

    command: str
    fmt: str
    output: str | None
    spec: QuadratureSpec


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with status 3 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _bounded_int(low: int, high: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be between {low} and {high}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


# Parser and allowed values of every setting a flag can give.  A --config
# key goes through the same entry (WEHRLKIT_PARALLELISM through
# "parallelism"), so all three sources pass the same checks and bounds.
_SETTINGS = {
    "format": (str, ("csv", "json")),
    "output": (str, None),
    "abs_tol": (_positive_float, None),
    "rel_tol": (_positive_float, None),
    "radial_nodes": (_bounded_int(16, 100_000), None),
    "max_escalations": (_bounded_int(0, 8), None),
    "parallelism": (_bounded_int(1, 64), None),
}


def _parse_setting(key: str, value, source: str):
    """A config or environment value through the parser of its flag."""
    parse, choices = _SETTINGS[key]
    try:
        parsed = parse(str(value))
    except argparse.ArgumentTypeError as exc:
        raise ToolkitError(f"{source}: {key}: {exc}")
    if choices is not None and parsed not in choices:
        raise ToolkitError(
            f"{source}: {key}: {parsed!r} is not one of {', '.join(choices)}"
        )
    return parsed


def _lambda_grid(text: str):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(check_squeezing(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{piece!r} is not a number")
        except LambdaOutOfRange as exc:
            raise argparse.ArgumentTypeError(str(exc))
    if not out:
        raise argparse.ArgumentTypeError("grid is empty")
    return out


def _add_common_args(sub):
    def flag(target, key, **kwargs):
        parse, choices = _SETTINGS[key]
        target.add_argument("--" + key.replace("_", "-"), type=parse,
                            choices=choices, default=None, **kwargs)

    flag(sub, "format")
    flag(sub, "output", metavar="FILE",
         help="write the table there instead of stdout")
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="JSON file of default settings; explicit flags win")
    group = sub.add_argument_group("quadrature")
    for key in ("abs_tol", "rel_tol", "radial_nodes", "max_escalations"):
        flag(group, key)
    flag(group, "parallelism",
         help="worker threads for independent chunks; results do not depend on this")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ToolkitError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ToolkitError(f"{path} is not valid JSON: {exc}")


def _load_config(path: str) -> dict:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ToolkitError(f"{path} must hold a JSON object")
    unknown = set(payload) - set(_SETTINGS)
    if unknown:
        raise ToolkitError(f"unknown config keys: {', '.join(sorted(unknown))}")
    # JSON null leaves a setting unset.
    return {key: _parse_setting(key, value, path)
            for key, value in payload.items() if value is not None}


def _run_config(args) -> RunConfig:
    # Later layers win: environment, then the config file, then explicit
    # flags; QuadratureSpec fills in the rest.
    settings = {}
    env_par = os.environ.get("WEHRLKIT_PARALLELISM")
    if env_par:
        settings["parallelism"] = _parse_setting("parallelism", env_par,
                                                 "WEHRLKIT_PARALLELISM")
    if args.config:
        settings.update(_load_config(args.config))
    settings.update((key, getattr(args, key)) for key in _SETTINGS
                    if getattr(args, key) is not None)
    fmt = settings.pop("format", "csv")
    output = settings.pop("output", None)
    spec = QuadratureSpec(**settings)
    return RunConfig(command=args.command, fmt=fmt, output=output, spec=spec)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not modify it.

    Parsing leaves a parser unchanged, and building one costs about 2 ms,
    mostly the terminal-size query argparse makes on every ``add_argument``.
    """
    parser = _Parser(
        prog="wehrlkit",
        description="Phase-space entropy sweeps, uncertainty sums, and "
        "bipartite mutual-information witnesses.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eur-fock", help="uncertainty sums over number states")
    p.add_argument("--n-max", type=_bounded_int(0, 50), default=10)
    p.add_argument("--asymptotics", action="store_true",
                   help="append large-n asymptote columns")
    _add_common_args(p)

    p = subs.add_parser("eur-mixture",
                        help="uncertainty sums along q|0><0| + (1-q)|1><1|")
    p.add_argument("--steps", type=_bounded_int(2, 2001), default=51)
    _add_common_args(p)

    p = subs.add_parser("eur-thermal", help="uncertainty sums over thermal states")
    p.add_argument("--beta-min", type=_positive_float, default=0.05)
    p.add_argument("--beta-max", type=_positive_float, default=20.0)
    p.add_argument("--points", type=_bounded_int(2, 2001), default=60)
    _add_common_args(p)

    p = subs.add_parser("bipartite-tmss",
                        help="mutual-information witness for two-mode squeezing")
    p.add_argument("--lambda-grid", type=_lambda_grid,
                   default=[0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
    _add_common_args(p)

    p = subs.add_parser("bipartite-noon",
                        help="mutual-information witness for two-mode "
                        "excitation superpositions")
    p.add_argument("--n-max", type=_bounded_int(0, 50), default=5)
    _add_common_args(p)

    p = subs.add_parser("gaussian",
                        help="entropy and witness report for a covariance "
                        "matrix read from JSON")
    p.add_argument("--cov", required=True, metavar="FILE",
                   help='JSON file: either a matrix or {"v": ..., '
                   '"modes_a": ..., "modes_b": ...}')
    p.add_argument("--partition", default=None, metavar="NA,NB",
                   help="override the A,B mode split")
    _add_common_args(p)

    return parser


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_out(run: RunConfig, text: str):
    if run.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(run.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ToolkitError(f"cannot write {run.output}: {exc}")


def _write_json(run: RunConfig, payload):
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ToolkitError(f"result has no JSON form: {exc}")
    _write_out(run, text + "\n")


def _emit(run: RunConfig, columns, rows, extras=None):
    if run.fmt == "json":
        payload = {"command": run.command, "rows": rows}
        if extras:
            payload.update(extras)
        _write_json(run, payload)
        return
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in columns))
    _write_out(run, "\n".join(lines) + "\n")


def _eur_row(param, report) -> dict:
    return {
        "grid_param": param,
        "state": state_to_dict(report.state),
        "wl_lhs": report.wl_lhs,
        "bbm_lhs": report.bbm_lhs,
        "fl_lhs": report.fl_lhs,
        "bound": report.bound,
        "wl_deficit": report.wl_deficit,
        "bbm_deficit": report.bbm_deficit,
        "fl_deficit": report.fl_deficit,
        "cross_check_delta": report.cross_check_delta,
    }


def cmd_eur_fock(args, run: RunConfig) -> int:
    columns = _EUR_COLUMNS + (_ASYMPTOTIC_COLUMNS if args.asymptotics else ())
    rows = []
    for n, report in eur_sweep_fock(args.n_max, run.spec):
        row = _eur_row(n, report)
        if args.asymptotics:
            row["wl_lhs_asymptotic"] = wl_lhs_stirling(n) if n >= 1 else None
            row["bbm_lhs_asymptotic"] = bbm_lhs_asymptotic(n) if n >= 1 else None
        rows.append(row)
    _emit(run, columns, rows)
    return 0


def cmd_eur_mixture(args, run: RunConfig) -> int:
    rows = [_eur_row(q, report) for q, report in eur_sweep_mixture(args.steps, run.spec)]
    crossover = mixture_crossover(run.spec)
    if crossover is None:
        sys.stderr.write("no ordering crossover inside the sampled bracket\n")
    else:
        sys.stderr.write(
            f"homodyne and phase-space sums cross at q = {crossover:.6g}\n"
        )
    _emit(run, _EUR_COLUMNS, rows, extras={"crossover_q": crossover})
    return 0


def cmd_eur_thermal(args, run: RunConfig) -> int:
    if args.beta_min >= args.beta_max:
        raise ToolkitError("--beta-min must be below --beta-max")
    sweep = eur_sweep_thermal(args.beta_min, args.beta_max, args.points, run.spec)
    _emit(run, _EUR_COLUMNS, [_eur_row(b, report) for b, report in sweep])
    return 0


def cmd_bipartite_tmss(args, run: RunConfig) -> int:
    columns = (
        "lam",
        "mutual_information",
        "mutual_quadrature",
        "cross_check_delta",
        "quadrature_error",
        "conditional_entropy",
        "quantum_mutual_information",
        "entangled",
    )
    rows = []
    for lam in args.lambda_grid:
        state = TwoModeSqueezedState(lam)
        conditional, mutual = gaussian_witness(state.cov)
        verdict = entanglement_witness(state)
        with grid_point(f"lambda={lam:.6g}"):
            cross = wehrl_mutual_information(state, run.spec)
        qmi = quantum_mutual_information_tmss(lam)
        if mutual > qmi + verdict.tolerance:
            sys.stderr.write(
                f"lambda={lam:.6g}: mutual information {mutual:.9g} exceeds "
                f"the quantum mutual information {qmi:.9g}\n"
            )
            return 2
        rows.append({
            "lam": lam,
            "mutual_information": mutual,
            "mutual_quadrature": cross.value,
            "cross_check_delta": abs(mutual - cross.value),
            "quadrature_error": cross.error_estimate,
            "conditional_entropy": conditional,
            "quantum_mutual_information": qmi,
            "entangled": verdict.entangled,
        })
    _emit(run, columns, rows)
    return 0


def cmd_bipartite_noon(args, run: RunConfig) -> int:
    columns = (
        "n",
        "marginal_entropy",
        "mutual_information",
        "conditional_entropy",
        "quadrature_error",
        "quantum_mutual_information",
        "entangled",
    )
    rows = []
    for n in range(args.n_max + 1):
        with grid_point(f"n={n}"):
            marginal = entropy_functional(NoonMarginalHusimi(n), run.spec)
            verdict = entanglement_witness(NoonState(n), run.spec)
        rows.append({
            "n": n,
            "marginal_entropy": marginal.value,
            "mutual_information": verdict.mutual_information,
            "conditional_entropy": marginal.value - verdict.mutual_information,
            "quadrature_error": marginal.error_estimate + verdict.error_estimate,
            "quantum_mutual_information": quantum_mutual_information_noon(n),
            "entangled": verdict.entangled,
        })
    _emit(run, columns, rows)
    return 0


def _load_covariance(path: str, partition_text) -> CovarianceModel:
    payload = _read_json(path)
    n_a, n_b = 0, 0
    if isinstance(payload, dict):
        n_a = payload.get("modes_a", 0)
        n_b = payload.get("modes_b", 0)
        # JSON integers only: int() would read 1.9 as 1 and true as 1.
        if type(n_a) is not int or type(n_b) is not int:
            raise ToolkitError(f"{path}: modes_a and modes_b must be integers")
        if "v" not in payload:
            raise ToolkitError(f'{path}: covariance object has no "v" key')
        payload = payload["v"]
    try:
        matrix = np.asarray(payload, dtype=float)
    except (TypeError, ValueError):
        raise ToolkitError(f"{path}: covariance entries must be numbers")
    # Checked here, before any eigenvalue routine sees the matrix.
    if not np.all(np.isfinite(matrix)):
        raise ToolkitError(f"{path}: covariance entries must be finite")
    if partition_text is not None:
        try:
            n_a, n_b = (int(piece) for piece in partition_text.split(","))
        except ValueError:
            raise ToolkitError("--partition expects two integers NA,NB")
    elif n_a == 0 and n_b == 0:
        if matrix.ndim != 2 or matrix.shape[0] % 2:
            raise ToolkitError("covariance must be square with even size")
        n_a, n_b = matrix.shape[0] // 2, 0
    try:
        partition = ModePartition(n_a, n_b)
    except ValueError as exc:
        raise ToolkitError(f"mode split {n_a},{n_b}: {exc}")
    return CovarianceModel.from_v(matrix, partition)


def cmd_gaussian(args, run: RunConfig) -> int:
    cov = _load_covariance(args.cov, args.partition)
    det_c = float(np.linalg.det(cov.c))
    # An overflow to inf is refused by _write_json; it needs no warning first.
    with np.errstate(over="ignore"):
        det_v_plus_half = float(np.linalg.det(cov.v + 0.5 * np.eye(cov.dim)))
    report = {
        "modes_a": cov.partition.n_a,
        "modes_b": cov.partition.n_b,
        "symplectic_eigenvalues": [float(v) for v in cov.spectrum],
        "pure": cov.pure,
        "von_neumann_entropy": von_neumann_gaussian(cov),
        "wehrl_joint": wehrl_gaussian_joint(cov),
        "det_c": det_c,
        "det_v_plus_half": det_v_plus_half,
        "det_c_at_most_one": bool(det_c <= 1.0 + 1e-10),
    }
    if cov.partition.bipartite:
        conditional, mutual = gaussian_witness(cov)
        report["wehrl_local_a"] = wehrl_gaussian_local(cov, keep="a")
        report["wehrl_local_b"] = wehrl_gaussian_local(cov, keep="b")
        report["conditional_entropy"] = conditional
        report["mutual_information"] = mutual
        if report["pure"]:
            report["entangled"] = entanglement_witness(GaussianState(cov)).entangled
        if cov.partition.n_a == 1 and cov.partition.n_b == 1:
            nu_min, ppt_holds = ppt_minimum(cov.v, cov.partition)
            report["ppt_min_symplectic"] = nu_min
            report["ppt_verdict"] = "no-violation" if ppt_holds else "entangled"
    _write_json(run, report)
    return 0


_COMMANDS = {
    "eur-fock": cmd_eur_fock,
    "eur-mixture": cmd_eur_mixture,
    "eur-thermal": cmd_eur_thermal,
    "bipartite-tmss": cmd_bipartite_tmss,
    "bipartite-noon": cmd_bipartite_noon,
    "gaussian": cmd_gaussian,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _run_config(args)
        return _COMMANDS[args.command](args, run)
    except ToleranceNotReached as exc:
        sys.stderr.write(f"quadrature did not converge: {exc}\n")
        return 2
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
