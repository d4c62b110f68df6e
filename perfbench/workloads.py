"""The three workloads: seeded inputs, the timed operations, and their checks.

``build(name, seed, workdir)`` returns a ``Workload``: a list of
operations, each a zero-argument callable timed on its own, and a
``check`` that compares their results with the independent values of
``oracles``; ``check`` receives None for an operation that failed and
skips its comparisons.  Operations look every wehrlkit name up through
its module when they run, so the spans that ``spans.install`` puts in
place are seen.  Inputs depend only on the seed; the malformed command
lines of ``cli-sweeps`` are fixed and fail the same way on every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles
import wehrlkit.cli as wk_cli
import wehrlkit.entropies as wk_entropies
import wehrlkit.gaussian as wk_gaussian
import wehrlkit.husimi as wk_husimi
import wehrlkit.quadrature as wk_quadrature
import wehrlkit.states as wk_states

LN_E_PI = 1.0 + oracles.LN_PI
DEFICIT_FLOOR = -1e-6


@dataclass
class Op:
    """One timed operation.

    A CLI call names the file it writes in ``output`` and succeeds on exit
    code 0; a malformed command line succeeds only by exiting 3 with a
    message; a library row succeeds when it returns.
    """

    label: str
    run: Callable[[], object]
    malformed: bool = False
    output: str | None = None

    def succeeded(self, result) -> bool:
        """Whether a call that returned ``result`` did its job."""
        if self.malformed:
            code, err = result
            return code == 3 and bool(err.strip())
        if self.output is not None:
            return result[0] == 0
        return True


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[list], list[str]]
    inputs: dict = field(default_factory=dict)


class Checks:
    """Collects failed comparisons as messages."""

    def __init__(self):
        self.failures: list[str] = []

    def close(self, what: str, got: float, want: float, tol: float):
        if not (abs(got - want) <= tol):
            self.failures.append(f"{what}: got {got!r}, expected {want!r} within {tol:.1e}")

    def true(self, what: str, cond: bool):
        if not cond:
            self.failures.append(what)


def _tol(spec, value: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(value))


# ---------------------------------------------------------------------------
# gaussian-mi
# ---------------------------------------------------------------------------


def _gaussian_mi(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    spec = wk_quadrature.QuadratureSpec(parallelism=1)
    lams = [float(x) for x in rng.uniform(0.0, 0.95, size=2)]
    pure = oracles.covariance([0.5, 0.5], oracles.random_symplectic(rng, 2, 0.6))
    nus = sorted(float(x) for x in rng.uniform(0.55, 2.0, size=2))
    mixed = oracles.covariance(nus, oracles.random_symplectic(rng, 2, 0.6))

    def tmss_row(lam):
        def run():
            cov = wk_gaussian.tmss_covariance(lam)
            witness = wk_gaussian.gaussian_witness(cov)
            mi = wk_entropies.wehrl_mutual_information(wk_states.TwoModeSqueezedState(lam), spec)
            return witness, mi
        return run

    def cov_row(v):
        def run():
            cov = wk_gaussian.CovarianceModel.from_v(v, wk_gaussian.ModePartition(1, 1))
            witness = wk_gaussian.gaussian_witness(cov)
            mi = wk_entropies.wehrl_mutual_information(wk_states.GaussianState(cov), spec)
            return witness, mi
        return run

    ops = [Op(f"tmss lambda={lam:.6f}", tmss_row(lam)) for lam in lams]
    ops.append(Op("random pure covariance", cov_row(pure)))
    ops.append(Op("random mixed covariance", cov_row(mixed)))

    def check(results):
        c = Checks()
        for lam, res in zip(lams, results[:2]):
            if res is None:
                continue
            (conditional, mutual), mi = res
            exact = oracles.tmss_mutual_information(lam)
            qmi = oracles.tmss_quantum_mutual_information(lam)
            c.close(f"tmss {lam}: quadrature MI", mi.value, exact, _tol(spec, exact))
            c.true(f"tmss {lam}: quadrature MI {mi.value!r} above quantum MI {qmi!r}",
                   mi.value <= qmi + _tol(spec, qmi))
            c.close(f"tmss {lam}: closed-form MI", mutual, exact, 1e-10)
            c.close(f"tmss {lam}: conditional entropy", conditional, 1.0, 1e-10)
        for label, v, res in (("pure", pure, results[2]), ("mixed", mixed, results[3])):
            if res is None:
                continue
            (conditional, mutual), mi = res
            exact = oracles.gaussian_mutual_information(v, 1)
            c.close(f"{label} covariance: quadrature MI", mi.value, exact, _tol(spec, exact))
            c.close(f"{label} covariance: closed-form MI", mutual, exact, 1e-9)
            c.close(f"{label} covariance: conditional entropy", conditional,
                    oracles.gaussian_conditional_entropy(v, 1), 1e-9)
        return c.failures

    return Workload(ops, check, {"lambdas": lams, "mixed_nu": nus})


# ---------------------------------------------------------------------------
# noon-table
# ---------------------------------------------------------------------------

NOON_N_MAX = 10
NOON_TOL = 1e-6


def _noon_table(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    order = [int(n) for n in rng.permutation(NOON_N_MAX + 1)]
    spec = wk_quadrature.QuadratureSpec(abs_tol=NOON_TOL, rel_tol=NOON_TOL, parallelism=1)

    def row(n):
        def run():
            marginal = wk_quadrature.entropy_functional(wk_husimi.NoonMarginalHusimi(n), spec)
            joint = wk_entropies.wehrl_quadrature(wk_states.NoonState(n), spec)
            mutual = wk_entropies.wehrl_mutual_information(wk_states.NoonState(n), spec)
            return marginal, joint, mutual
        return run

    ops = [Op(f"noon n={n}", row(n)) for n in order]

    def check(results):
        c = Checks()
        by_n = dict(zip(order, results))
        mi = {}
        for n in range(NOON_N_MAX + 1):
            if by_n[n] is None:
                continue
            marginal, joint, mutual = by_n[n]
            m, j, i = marginal.value, joint.value, mutual.value
            mi[n] = i
            c.close(f"n={n}: marginal entropy", m, oracles.noon_marginal_entropy(n), NOON_TOL)
            c.true(f"n={n}: joint entropy {j!r} below 2", j >= 2.0 - NOON_TOL)
            c.true(f"n={n}: joint {j!r} below marginal + 1 = {m + 1.0!r}",
                   j >= m + 1.0 - 2 * NOON_TOL)
            c.true(f"n={n}: MI {i!r} outside [0, 2 ln 2]",
                   -NOON_TOL <= i <= 2.0 * math.log(2.0) + NOON_TOL)
            # Each of the three integrals may miss by its tolerance on top
            # of its two-level estimate (the radial cutoff is not part of
            # the estimate), hence the 3 * tol slack.
            slack = (mutual.error_estimate + joint.error_estimate
                     + 2.0 * marginal.error_estimate + 3.0 * NOON_TOL)
            c.close(f"n={n}: MI against 2 S(A) - S(AB)", i, 2.0 * m - j, slack)
        if by_n[0] is not None:
            c.close("n=0: joint entropy", by_n[0][1].value, 2.0, NOON_TOL)
            c.close("n=0: MI", mi[0], 0.0, NOON_TOL)
        joint_1 = 2.0 + oracles.EULER_GAMMA
        if by_n[1] is not None:
            c.close("n=1: joint entropy", by_n[1][1].value, joint_1, NOON_TOL)
            c.close("n=1: MI", mi[1], 2.0 * oracles.noon_marginal_entropy(1) - joint_1,
                    2.0 * NOON_TOL)
        for n in range(2, NOON_N_MAX):
            if n in mi and n + 1 in mi:
                c.true(f"MI does not rise from n={n} ({mi[n]!r}) to n={n + 1} ({mi[n + 1]!r})",
                       mi[n + 1] > mi[n])
        return c.failures

    return Workload(ops, check, {"order": order})


# ---------------------------------------------------------------------------
# cli-sweeps
# ---------------------------------------------------------------------------

FOCK_N_MAX = 50
MIXTURE_STEPS = 101
THERMAL_POINTS = 400


def _cli_call(argv, env_parallelism=None):
    """Run ``wehrlkit.cli.main`` in process; returns (exit code, stderr text).

    The worker starts without ``WEHRLKIT_PARALLELISM``; it is set only for
    the duration of a call that asks for it.  A usage error leaves argparse
    through ``SystemExit``, whose code is the exit code.
    """
    def run():
        err = io.StringIO()
        if env_parallelism is not None:
            os.environ["WEHRLKIT_PARALLELISM"] = env_parallelism
        try:
            with contextlib.redirect_stderr(err):
                try:
                    code = wk_cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.environ.pop("WEHRLKIT_PARALLELISM", None)
        return code, err.getvalue()
    return run


def _write_json(path: str, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _cli_sweeps(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])

    def path(name):
        return os.path.join(workdir, name)

    fock_sample = sorted(int(n) for n in rng.choice(FOCK_N_MAX + 1, size=3, replace=False))
    p1 = int(rng.integers(100, THERMAL_POINTS - 99))
    thermal = [
        {"beta_min": float(rng.uniform(0.02, 0.3)), "beta_max": float(rng.uniform(2.0, 10.0)),
         "points": p1, "format": "json"},
        {"beta_min": float(rng.uniform(0.3, 2.0)), "beta_max": float(rng.uniform(10.0, 40.0)),
         "points": THERMAL_POINTS - p1, "format": "csv"},
    ]
    covs = []
    for label, modes, nu_range in (("pure-1", (1, 1), None), ("pure-2", (1, 1), None),
                                   ("mixed-1", (1, 1), (0.55, 2.0)),
                                   ("mixed-2", (1, 1), (0.55, 2.0)),
                                   ("mixed-2+1", (2, 1), (0.55, 2.0)),
                                   ("bare-2", (2, 0), (0.55, 2.0))):
        n_modes = sum(modes)
        if nu_range is None:
            nus = [0.5] * n_modes
        else:
            nus = sorted(float(x) for x in rng.uniform(*nu_range, size=n_modes))
        v = oracles.covariance(nus, oracles.random_symplectic(rng, n_modes, 0.6))
        name = f"cov-{label}.json"
        if modes[1] == 0:
            _write_json(path(name), v.tolist())
        else:
            _write_json(path(name), {"v": v.tolist(), "modes_a": modes[0], "modes_b": modes[1]})
        covs.append({"label": label, "file": name, "modes": modes, "nus": nus, "v": v})

    # Fixed inputs of the malformed command lines.
    _write_json(path("vacuum.json"), {"v": (0.5 * np.eye(4)).tolist(), "modes_a": 1, "modes_b": 1})
    _write_json(path("config-bad.json"), {"radial_nodes": "abc"})
    with open(path("cov-text.json"), "w", encoding="utf-8") as handle:
        handle.write('[["x", 0.0], [0.0, 0.5]]')
    with open(path("cov-nan.json"), "w", encoding="utf-8") as handle:
        handle.write("[[NaN, 0.0], [0.0, 0.5]]")

    # Each CLI call with the check of its output file and stderr text;
    # malformed calls have no output to check.
    calls = []

    def add(label, argv, out, check_output):
        calls.append((Op(label, _cli_call(argv + ["--output", out]), output=out), check_output))

    add("eur-fock", ["eur-fock", "--n-max", str(FOCK_N_MAX), "--asymptotics", "--format", "json"],
        path("fock.json"), lambda c, out, err: _check_fock(c, out, fock_sample))
    add("eur-mixture", ["eur-mixture", "--steps", str(MIXTURE_STEPS), "--format", "json"],
        path("mixture.json"), _check_mixture)
    for k, t in enumerate(thermal):
        add(f"eur-thermal {k}",
            ["eur-thermal", "--beta-min", repr(t["beta_min"]), "--beta-max", repr(t["beta_max"]),
             "--points", str(t["points"]), "--format", t["format"]],
            path(f"thermal-{k}.{t['format']}"),
            lambda c, out, err, t=t: _check_thermal(c, out, t))
    for cov in covs:
        add(f"gaussian {cov['label']}", ["gaussian", "--cov", path(cov["file"])],
            path(f"report-{cov['label']}.json"),
            lambda c, out, err, cov=cov: _check_gaussian(c, out, cov))
    vacuum = path("vacuum.json")
    malformed = [
        ("WEHRLKIT_PARALLELISM=abc", ["gaussian", "--cov", vacuum], "abc"),
        ("config radial_nodes=abc", ["eur-fock", "--n-max", "2", "--config",
                                     path("config-bad.json")], None),
        ("covariance with text", ["gaussian", "--cov", path("cov-text.json")], None),
        ("covariance with NaN", ["gaussian", "--cov", path("cov-nan.json")], None),
        ("--partition a,b", ["gaussian", "--cov", vacuum, "--partition", "a,b"], None),
        ("--partition 0,2", ["gaussian", "--cov", vacuum, "--partition", "0,2"], None),
    ]
    for label, argv, env in malformed:
        calls.append((Op(f"malformed: {label}", _cli_call(argv, env), malformed=True), None))
    ops = [op for op, _ in calls]

    def check(results):
        c = Checks()
        for (op, check_output), res in zip(calls, results):
            if check_output is not None and res is not None:
                check_output(c, op.output, res[1])
        return c.failures

    return Workload(ops, check, {"fock_sample": fock_sample, "thermal": thermal,
                                 "covariances": [cov["nus"] for cov in covs]})


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_deficits(c: Checks, what: str, row: dict):
    for key in ("wl_deficit", "bbm_deficit", "fl_deficit"):
        c.true(f"{what}: {key} {row[key]!r} below {DEFICIT_FLOOR}", row[key] >= DEFICIT_FLOOR)
    c.close(f"{what}: bound", row["bound"], LN_E_PI, 1e-12)


def _check_fock(c: Checks, path: str, sample):
    rows = _load_json(path)["rows"]
    c.true(f"eur-fock: {len(rows)} rows", len(rows) == FOCK_N_MAX + 1)
    for n, row in enumerate(rows):
        what = f"eur-fock n={n}"
        c.true(f"{what}: grid_param {row['grid_param']!r}", row["grid_param"] == n)
        c.close(f"{what}: wl_lhs", row["wl_lhs"], oracles.fock_wl_lhs(n), 1e-9)
        c.true(f"{what}: cross_check_delta {row['cross_check_delta']!r}",
               row["cross_check_delta"] < 1e-7)
        _check_deficits(c, what, row)
        if n >= 1:
            c.close(f"{what}: wl asymptote", row["wl_lhs_asymptotic"],
                    0.5 * (1.0 + math.log(2.0 * math.pi * n)) + oracles.LN_PI, 1e-12)
            c.close(f"{what}: bbm asymptote", row["bbm_lhs_asymptotic"],
                    math.log(2.0 * math.pi ** 2 * n) - 2.0, 1e-12)
    for n in sample:
        c.close(f"eur-fock n={n}: bbm_lhs", rows[n]["bbm_lhs"], oracles.fock_bbm_lhs(n), 1e-7)


def _check_mixture(c: Checks, path: str, stderr: str):
    payload = _load_json(path)
    rows = payload["rows"]
    c.true(f"eur-mixture: {len(rows)} rows", len(rows) == MIXTURE_STEPS)
    for i, row in enumerate(rows):
        q = i / (MIXTURE_STEPS - 1)
        what = f"eur-mixture q={q:.4g}"
        c.close(f"{what}: grid_param", row["grid_param"], q, 1e-15)
        _check_deficits(c, what, row)
        mixedness = -sum(w * math.log(w) for w in (q, 1.0 - q) if w > 0.0)
        c.close(f"{what}: fl_lhs - bbm_lhs", row["fl_lhs"] - row["bbm_lhs"],
                1.0 - math.log(2.0) - mixedness, 1e-9)
    c.close("eur-mixture q=0: wl_lhs", rows[0]["wl_lhs"], oracles.fock_wl_lhs(1), 1e-7)
    c.close("eur-mixture q=0: bbm_lhs", rows[0]["bbm_lhs"], oracles.fock_bbm_lhs(1), 1e-7)
    c.close("eur-mixture q=1: wl_lhs", rows[-1]["wl_lhs"], LN_E_PI, 1e-7)
    c.close("eur-mixture q=1: bbm_lhs", rows[-1]["bbm_lhs"], LN_E_PI, 1e-7)
    cross = payload.get("crossover_q")
    c.true(f"eur-mixture: crossover_q {cross!r} not inside the grid",
           cross is not None and rows[0]["grid_param"] < cross < rows[-1]["grid_param"])
    if cross is not None:
        below = [r for r in rows if r["grid_param"] < cross][-1]
        above = [r for r in rows if r["grid_param"] > cross][0]
        gap_below = below["bbm_lhs"] - below["wl_lhs"]
        gap_above = above["bbm_lhs"] - above["wl_lhs"]
        c.true(f"eur-mixture: bbm - wl keeps its sign across q={cross!r} "
               f"({gap_below!r}, {gap_above!r})", gap_below * gap_above < 0.0)
        c.true("eur-mixture: crossover missing from stderr", f"{cross:.6g}" in stderr)


def _check_thermal(c: Checks, path: str, t: dict):
    if t["format"] == "json":
        rows = _load_json(path)["rows"]
    else:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(handle)]
    points = t["points"]
    c.true(f"eur-thermal: {len(rows)} rows, expected {points}", len(rows) == points)
    ratio = (t["beta_max"] / t["beta_min"]) ** (1.0 / (points - 1))
    for i, row in enumerate(rows):
        b = t["beta_min"] * ratio ** i
        what = f"eur-thermal b={b:.6g}"
        c.close(f"{what}: grid_param", row["grid_param"], b, 1e-10 * b)
        want = oracles.thermal_lhs(b)
        for key in ("wl_lhs", "bbm_lhs", "fl_lhs"):
            c.close(f"{what}: {key}", row[key], want[key], 1e-9 * max(1.0, abs(want[key])))
        c.true(f"{what}: cross_check_delta {row['cross_check_delta']!r}",
               row["cross_check_delta"] < 1e-7)
        _check_deficits(c, what, row)


def _check_gaussian(c: Checks, path: str, cov: dict):
    report = _load_json(path)
    what = f"gaussian {cov['label']}"
    v, nus, (n_a, n_b) = cov["v"], cov["nus"], cov["modes"]
    got = sorted(report["symplectic_eigenvalues"])
    c.true(f"{what}: {len(got)} symplectic eigenvalues", len(got) == len(nus))
    for k, (g, nu) in enumerate(zip(got, nus)):
        c.close(f"{what}: symplectic eigenvalue {k}", g, nu, 1e-8)
    c.close(f"{what}: det C det(V + 1/2)", report["det_c"] * report["det_v_plus_half"], 1.0, 1e-9)
    c.true(f"{what}: pure flag {report['pure']!r}", report["pure"] == all(nu == 0.5 for nu in nus))
    c.close(f"{what}: von Neumann entropy", report["von_neumann_entropy"],
            oracles.gaussian_von_neumann(nus), 1e-7)
    c.close(f"{what}: Wehrl entropy", report["wehrl_joint"], oracles.gaussian_wehrl_joint(v), 1e-9)
    c.true(f"{what}: modes {report['modes_a']},{report['modes_b']}",
           (report["modes_a"], report["modes_b"]) == (n_a, n_b))
    if n_b:
        c.close(f"{what}: mutual information", report["mutual_information"],
                oracles.gaussian_mutual_information(v, n_a), 1e-9)
        c.close(f"{what}: conditional entropy", report["conditional_entropy"],
                oracles.gaussian_conditional_entropy(v, n_a), 1e-9)
    if (n_a, n_b) == (1, 1):
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        moduli = np.abs(np.linalg.eigvals(oracles.omega(2) @ flip @ v @ flip))
        c.close(f"{what}: partial-transpose minimum", report["ppt_min_symplectic"],
                float(np.min(moduli)), 1e-8)


# ---------------------------------------------------------------------------


def identity_check(workdir: str, lam: float) -> list[str]:
    """``bipartite-tmss`` must write the same bytes at parallelism 1 and 2."""
    blobs = []
    failures = []
    for par in (1, 2):
        out = os.path.join(workdir, f"tmss-p{par}.csv")
        code, err = _cli_call(["bipartite-tmss", "--lambda-grid", f"{lam:.6f}",
                               "--parallelism", str(par), "--output", out])()
        if code != 0:
            failures.append(f"bipartite-tmss at parallelism {par} exited {code}: {err.strip()}")
            return failures
        with open(out, "rb") as handle:
            blobs.append(handle.read())
    if blobs[0] != blobs[1]:
        failures.append("bipartite-tmss output differs between parallelism 1 and 2")
    row = next(csv.DictReader(io.StringIO(blobs[0].decode("utf-8"))))
    exact = oracles.tmss_mutual_information(float(row["lam"]))
    if not abs(float(row["mutual_quadrature"]) - exact) <= max(1e-8, 1e-8 * exact):
        failures.append(f"bipartite-tmss: quadrature MI {row['mutual_quadrature']} != {exact!r}")
    return failures


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "gaussian-mi":
        return _gaussian_mi(seed, workdir)
    if name == "noon-table":
        return _noon_table(seed, workdir)
    if name == "cli-sweeps":
        return _cli_sweeps(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
