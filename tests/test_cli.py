"""End-to-end checks of the command-line interface, via subprocess or ``main``."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import wehrlkit
from wehrlkit import (
    GaussianState,
    ModePartition,
    NormalFormParams,
    NotPure,
    QuadratureSpec,
    entanglement_witness,
    gaussian_witness,
    random_admissible_covariance,
    simon_pure_separability,
    tmss_covariance,
)
from wehrlkit.cli import _SETTINGS, _load_config, _run_config, build_parser, main

# The CLI subprocesses import the same wehrlkit as the tests.
_SRC = os.path.dirname(os.path.dirname(wehrlkit.__file__))

BOUND = 1.0 + math.log(math.pi)

EUR_HEADER = [
    "grid_param", "wl_lhs", "bbm_lhs", "fl_lhs", "bound",
    "wl_deficit", "bbm_deficit", "fl_deficit", "cross_check_delta",
]


def run_python(*argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_cli(*argv, env_extra=None):
    return run_python("-m", "wehrlkit.cli", *argv, env_extra=env_extra)


def parse_csv(text: str):
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    return rows[0], rows[1:]


def test_eur_fock_csv_header_and_values():
    proc = run_cli("eur-fock", "--n-max", "2")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == EUR_HEADER
    assert len(rows) == 3
    for row in rows:
        assert float(row[4]) == pytest.approx(BOUND, abs=1e-10)
        assert float(row[8]) < 1e-7
    assert float(rows[1][1]) == pytest.approx(2.7219455507509327, abs=1e-8)
    assert float(rows[2][2]) == pytest.approx(2.997218465771197, abs=1e-8)


def test_eur_fock_asymptotic_columns():
    proc = run_cli("eur-fock", "--n-max", "2", "--asymptotics")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == EUR_HEADER + ["wl_lhs_asymptotic", "bbm_lhs_asymptotic"]
    # no asymptote is defined at n = 0; the cells stay empty
    assert rows[0][9] == "" and rows[0][10] == ""
    wl_gap = abs(float(rows[2][9]) - float(rows[2][1]))
    assert wl_gap < 0.1
    # the homodyne asymptote is a leading-log form and sits far below at n = 2
    assert float(rows[2][10]) < float(rows[2][2]) - 1.0


def test_eur_fock_json_payload():
    proc = run_cli("eur-fock", "--n-max", "1", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "eur-fock"
    assert [r["state"] for r in payload["rows"]] == [
        {"kind": "fock", "n": 0},
        {"kind": "fock", "n": 1},
    ]
    assert payload["rows"][0]["wl_deficit"] == pytest.approx(0.0, abs=1e-9)


def test_byte_identical_across_parallelism():
    base = run_cli("eur-fock", "--n-max", "4", "--parallelism", "2")
    other = run_cli("eur-fock", "--n-max", "4", "--parallelism", "4")
    via_env = run_cli("eur-fock", "--n-max", "4",
                      env_extra={"WEHRLKIT_PARALLELISM": "3"})
    assert base.returncode == other.returncode == via_env.returncode == 0
    assert base.stdout == other.stdout == via_env.stdout


def test_multi_d_path_byte_identical_across_parallelism():
    # the "noon" triangle maps no chunks over the thread pool, so this pins
    # only that the flag moves no byte; test_quadrature starts the pool
    serial = run_cli("bipartite-noon", "--n-max", "10", "--parallelism", "1")
    threaded = run_cli("bipartite-noon", "--n-max", "10", "--parallelism", "2")
    assert serial.returncode == threaded.returncode == 0
    assert serial.stdout == threaded.stdout
    # only the product state N = 0 goes unflagged, and its mutual
    # information, rounding noise, is reported as 0
    header, rows = parse_csv(serial.stdout)
    mutual, flag = header.index("mutual_information"), header.index("entangled")
    assert [r[flag] for r in rows] == ["false"] + ["true"] * 10
    assert rows[0][mutual] == "0"


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "table.csv"
    proc = run_cli("eur-fock", "--n-max", "1", "--output", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    direct = run_cli("eur-fock", "--n-max", "1")
    assert target.read_text() == direct.stdout


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_exits_3(tmp_path, where):
    target = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    proc = run_cli("bipartite-tmss", "--output", str(target))
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in proc.stderr


def test_config_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({
        "abs_tol": 1e-15, "rel_tol": 1e-15, "max_escalations": 0,
        "format": "json",
    }))
    # the config alone demands an unreachable tolerance
    tight = run_cli("bipartite-noon", "--n-max", "1", "--config", str(config))
    assert tight.returncode == 2
    assert "did not converge" in tight.stderr
    assert "n=1" in tight.stderr
    # explicit flags override the config tolerances; format still comes
    # from the config because no flag names it
    loose = run_cli("bipartite-noon", "--n-max", "1", "--config", str(config),
                    "--abs-tol", "1e-6", "--rel-tol", "1e-6",
                    "--max-escalations", "3")
    assert loose.returncode == 0
    payload = json.loads(loose.stdout)
    assert payload["command"] == "bipartite-noon"


def test_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"frmt": "csv"}))
    proc = run_cli("eur-fock", "--n-max", "0", "--config", str(config))
    assert proc.returncode == 3
    assert "unknown config keys: frmt" in proc.stderr


def test_config_unreadable_rejected(tmp_path):
    proc = run_cli("eur-fock", "--n-max", "0",
                   "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 3
    assert "cannot read" in proc.stderr


def test_eur_mixture_endpoints_and_crossover():
    proc = run_cli("eur-mixture", "--steps", "3", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    grid = [row["grid_param"] for row in payload["rows"]]
    assert grid == [0.0, 0.5, 1.0]
    # q = 0 is the pure one-excitation state, q = 1 the ground state
    assert payload["rows"][0]["wl_lhs"] == pytest.approx(2.7219455507509327, abs=1e-7)
    assert payload["rows"][-1]["wl_lhs"] == pytest.approx(BOUND, abs=1e-7)
    assert payload["crossover_q"] == pytest.approx(0.023161669, abs=1e-6)
    assert "cross at q" in proc.stderr


def test_cli_start_up_leaves_scipy_optimize_unloaded():
    # the crossover is solved in eur.py: scipy.optimize alone added about
    # 0.15 s to every start-up
    proc = run_python("-c", "import sys, wehrlkit.cli; print('scipy.optimize' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_start_up_loads_no_scipy():
    # the library needs numpy only: scipy.special and scipy.linalg doubled
    # the start-up time and peak memory of every command
    proc = run_python("-c", "import sys, wehrlkit.cli; "
                      "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eur_thermal_grid_and_closed_forms():
    proc = run_cli("eur-thermal", "--beta-min", "0.5", "--beta-max", "2.0",
                   "--points", "3")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == EUR_HEADER
    grid = [float(r[0]) for r in rows]
    assert grid == pytest.approx([0.5, 1.0, 2.0], rel=1e-9)
    b = 1.0
    wl_want = 1.0 + b / 2 + math.log((math.pi / 2) / math.sinh(b / 2))
    bbm_want = 1.0 + math.log(math.pi) - math.log(math.tanh(b / 2))
    assert float(rows[1][1]) == pytest.approx(wl_want, abs=1e-8)
    assert float(rows[1][2]) == pytest.approx(bbm_want, abs=1e-8)


def test_eur_thermal_far_past_the_expm1_overflow(capsys):
    # e^b - 1 overflows a float above beta omega ~ 709.78
    assert main(["eur-thermal", "--beta-min", "1", "--beta-max", "800", "--points", "3"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 3
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_eur_thermal_rejects_inverted_range():
    proc = run_cli("eur-thermal", "--beta-min", "2.0", "--beta-max", "1.0")
    assert proc.returncode == 3
    assert "beta-min" in proc.stderr


def test_bipartite_tmss_table():
    proc = run_cli("bipartite-tmss", "--lambda-grid", "0,0.5")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header[:2] == ["lam", "mutual_information"]
    separable, squeezed = rows
    assert float(separable[1]) == pytest.approx(0.0, abs=1e-12)
    assert separable[-1] == "false"
    assert float(squeezed[1]) == pytest.approx(-math.log(0.75), abs=1e-10)
    assert float(squeezed[3]) < 1e-9  # closed form and quadrature agree
    assert float(squeezed[5]) == pytest.approx(1.0, abs=1e-10)
    assert float(squeezed[1]) < float(squeezed[6])  # below the quantum MI
    assert squeezed[-1] == "true"


def test_closed_form_witness_is_computed_once_per_row(tmp_path, capsys, monkeypatch):
    calls = []
    real = gaussian_witness

    def counting(cov):
        calls.append(cov)
        return real(cov)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("wehrlkit")
                and getattr(module, "gaussian_witness", None) is real):
            monkeypatch.setattr(module, "gaussian_witness", counting)
    assert main(["bipartite-tmss", "--lambda-grid", "0,0.5"]) == 0
    assert len(calls) == 2
    capsys.readouterr()
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"v": tmss_covariance(0.5).v.tolist(),
                                "modes_a": 1, "modes_b": 1}))
    assert main(["gaussian", "--cov", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["entangled"] is True
    assert len(calls) == 3


def test_the_witness_shares_the_closed_form_log_determinants(monkeypatch):
    logdets = []
    real = wehrlkit.gaussian._logdet
    monkeypatch.setattr(wehrlkit.gaussian, "_logdet",
                        lambda m, label: logdets.append(label) or real(m, label))
    cov = tmss_covariance(0.5)
    _, mutual = gaussian_witness(cov)
    assert entanglement_witness(GaussianState(cov)).mutual_information == mutual
    assert sorted(logdets) == ["C", "C_A", "C_B"]


def test_bipartite_noon_table():
    proc = run_cli("bipartite-noon", "--n-max", "2")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header[0] == "n" and header[2] == "mutual_information"
    mutual = [float(r[2]) for r in rows]
    assert mutual[0] == pytest.approx(0.0, abs=1e-7)
    assert mutual[1] == pytest.approx(0.2127313334453252, abs=1e-6)
    assert mutual[2] == pytest.approx(0.2044341906231108, abs=1e-6)
    flags = [r[-1] for r in rows]
    assert flags == ["false", "true", "true"]
    # the identity holds to 1e-12 before the CSV rounds to 12 digits
    rows = json.loads(run_cli("bipartite-noon", "--n-max", "2", "--format", "json").stdout)["rows"]
    for row in rows[1:]:
        assert row["conditional_entropy"] == pytest.approx(
            row["marginal_entropy"] - row["mutual_information"], abs=1e-12)
        assert row["quantum_mutual_information"] == pytest.approx(2 * math.log(2), abs=1e-12)
    # every column comes from the library calls at the spec defaults, bit for bit
    spec = QuadratureSpec()
    for row in rows:
        state = wehrlkit.NoonState(row["n"])
        conditional = wehrlkit.wehrl_conditional_entropy(state, spec)
        assert row["conditional_entropy"] == conditional.value
        assert row["quadrature_error"] == conditional.error_estimate
        assert row["entangled"] == wehrlkit.entanglement_witness(state, spec).entangled


def test_bipartite_noon_runs_up_to_fifty_excitations():
    proc = run_cli("bipartite-noon", "--n-max", "50", "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["rows"]
    assert [row["n"] for row in rows] == list(range(51))
    assert [row["entangled"] for row in rows] == [False] + [True] * 50
    too_many = run_cli("bipartite-noon", "--n-max", "51")
    assert too_many.returncode == 3
    assert "--n-max: must be between 0 and 50" in too_many.stderr


def test_unreachable_tolerance_exits_2():
    proc = run_cli("bipartite-noon", "--n-max", "1",
                   "--abs-tol", "1e-15", "--rel-tol", "1e-15",
                   "--max-escalations", "0")
    assert proc.returncode == 2
    assert "quadrature did not converge" in proc.stderr
    assert "n=1" in proc.stderr


def test_eur_sweep_tolerance_failure_names_grid_point():
    proc = run_cli("eur-fock", "--n-max", "2",
                   "--abs-tol", "1e-15", "--rel-tol", "1e-15",
                   "--max-escalations", "0")
    assert proc.returncode == 2
    assert "quadrature did not converge: n=1:" in proc.stderr


VACUUM_1_1 = json.dumps({"v": [[0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.5, 0],
                               [0, 0, 0, 0.5]], "modes_a": 1, "modes_b": 1})


@pytest.mark.parametrize("text,argv,env", [
    pytest.param(VACUUM_1_1, ["gaussian", "--cov", "{file}"],
                 {"WEHRLKIT_PARALLELISM": "abc"}, id="env-parallelism-text"),
    pytest.param('{"radial_nodes": "abc"}', ["eur-fock", "--n-max", "2", "--config", "{file}"],
                 None, id="config-radial-nodes-text"),
    pytest.param('[["x", 0.0], [0.0, 0.5]]', ["gaussian", "--cov", "{file}"],
                 None, id="covariance-text-entry"),
    pytest.param("[[NaN, 0.0], [0.0, 0.5]]", ["gaussian", "--cov", "{file}"],
                 None, id="covariance-nan-entry"),
    pytest.param(json.dumps({"v": json.loads(VACUUM_1_1)["v"], "modes_a": 1.9, "modes_b": True}),
                 ["gaussian", "--cov", "{file}"], None, id="covariance-non-integer-mode-counts"),
    pytest.param(VACUUM_1_1, ["gaussian", "--cov", "{file}", "--partition", "a,b"],
                 None, id="partition-text"),
    pytest.param(VACUUM_1_1, ["gaussian", "--cov", "{file}", "--partition", "0,2"],
                 None, id="partition-empty-a"),
    # an explicit split is always checked, even one that reads like "none given"
    pytest.param(VACUUM_1_1, ["gaussian", "--cov", "{file}", "--partition", "0,0"],
                 None, id="partition-zero-zero"),
    # config values keep the bounds of their flags; eur-fock's 1D runners
    # never start a thread pool, so the parallelism case starts none
    pytest.param('{"parallelism": 65}', ["eur-fock", "--n-max", "0", "--config", "{file}"],
                 None, id="config-parallelism-above-bound"),
    pytest.param('{"radial_nodes": 100001}', ["eur-fock", "--n-max", "0", "--config", "{file}"],
                 None, id="config-radial-nodes-above-bound"),
    # a setting the engine does not have is rejected, not ignored: no
    # runner samples an angle, and the densities' kind picks the runner,
    # so no strategy can be set, not even "auto"
    pytest.param('{"angular_nodes": 16}', ["eur-fock", "--n-max", "0", "--config", "{file}"],
                 None, id="config-angular-nodes"),
    pytest.param(None, ["eur-fock", "--n-max", "0", "--angular-nodes", "16"],
                 None, id="flag-angular-nodes"),
    # each runner solves its cutoff from the integrand's tail: none can be set
    pytest.param('{"radial_cutoff": 9.0}', ["eur-fock", "--n-max", "0", "--config", "{file}"],
                 None, id="config-radial-cutoff"),
    pytest.param(None, ["eur-fock", "--n-max", "0", "--radial-cutoff", "9"],
                 None, id="flag-radial-cutoff"),
    pytest.param(None, ["eur-fock", "--n-max", "0", "--strategy", "polar-2d"],
                 None, id="flag-strategy-polar-2d"),
    pytest.param(None, ["bipartite-tmss", "--lambda-grid", "0.3", "--strategy", "radial-1d"],
                 None, id="flag-strategy-radial-1d"),
    pytest.param(None, ["eur-fock", "--n-max", "0", "--strategy", "auto"],
                 None, id="flag-strategy-auto"),
    pytest.param('{"strategy": "auto"}', ["eur-fock", "--n-max", "0", "--config", "{file}"],
                 None, id="config-strategy-auto"),
    # the one cartesian integral a command runs is all-"gaussian", at two
    # nodes per axis whatever the node count, so the count is not a setting
    pytest.param('{"cartesian_nodes": 24}', ["eur-fock", "--n-max", "0", "--config", "{file}"],
                 None, id="config-cartesian-nodes"),
    pytest.param(None, ["bipartite-tmss", "--lambda-grid", "0.3", "--cartesian-nodes", "24"],
                 None, id="flag-cartesian-nodes"),
])
def test_malformed_input_exits_3_with_message(tmp_path, text, argv, env):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    proc = run_cli(*[str(path) if arg == "{file}" else arg for arg in argv], env_extra=env)
    assert proc.returncode == 3
    # argparse names a bad flag after the usage line; an input read from a
    # file or the environment fails with one "error: " line
    assert proc.stderr.startswith("error: " if text is not None else "usage: ")
    assert "error: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_quadrature_settings_match_the_spec_fields_one_to_one():
    # every CLI quadrature setting is a spec field of the same name, and
    # every spec field is a setting but the cartesian node count, which
    # no command's output depends on
    quadrature = [key for key in _SETTINGS if key not in ("format", "output")]
    fields = [f.name for f in dataclasses.fields(QuadratureSpec)]
    assert sorted(quadrature) == sorted(set(fields) - {"cartesian_nodes_per_dim"})


def test_readme_config_example_names_every_setting(tmp_path):
    # the JSON block under "Config file and precedence" lists each setting
    # once, and the loader accepts it
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md"),
              encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("### Config file and precedence", 1)[1]
    example = json.loads(section.split("```", 2)[1])
    assert set(example) == set(_SETTINGS)
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(example))
    _load_config(str(path))  # raises ToolkitError on a key or value it rejects


@pytest.mark.parametrize("argv", [
    ["eur-fock"], ["eur-mixture"], ["eur-thermal"], ["bipartite-tmss"], ["bipartite-noon"],
    ["gaussian", "--cov", "cov.json"],
])
def test_every_command_resolves_to_the_spec_defaults(monkeypatch, argv):
    # one source of defaults: no command carries a tolerance of its own
    monkeypatch.delenv("WEHRLKIT_PARALLELISM", raising=False)
    assert _run_config(build_parser().parse_args(argv)).spec == QuadratureSpec()


def test_covariance_without_v_names_the_missing_key(tmp_path):
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"modes_a": 1, "modes_b": 1}))
    proc = run_cli("gaussian", "--cov", str(path))
    assert proc.returncode == 3
    assert 'covariance object has no "v" key' in proc.stderr


def test_out_of_range_flag_exits_3():
    proc = run_cli("bipartite-noon", "--n-max", "99")
    assert proc.returncode == 3


def test_squeezing_beyond_the_bound_exits_3_naming_it():
    proc = run_cli("bipartite-tmss", "--lambda-grid", "0.9999")
    assert proc.returncode == 3
    assert "0.9999 outside [0, 0.998]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gaussian_report_for_two_mode_squeezing(tmp_path):
    lam = 0.6
    from wehrlkit import tmss_covariance

    cov_file = tmp_path / "cov.json"
    cov_file.write_text(json.dumps({
        "v": tmss_covariance(lam).v.tolist(), "modes_a": 1, "modes_b": 1,
    }))
    proc = run_cli("gaussian", "--cov", str(cov_file))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["pure"] is True
    assert report["entangled"] is True
    assert report["det_c"] == pytest.approx((1 - lam**2) ** 2, abs=1e-12)
    assert report["mutual_information"] == pytest.approx(
        -math.log1p(-lam * lam), abs=1e-12)
    assert report["conditional_entropy"] == pytest.approx(1.0, abs=1e-12)
    assert report["ppt_verdict"] == "entangled"
    assert report["ppt_min_symplectic"] == pytest.approx(
        0.5 * (1 - lam) / (1 + lam), abs=1e-10)
    assert report["det_c_at_most_one"] is True


def test_gaussian_plain_matrix_single_mode(tmp_path):
    cov_file = tmp_path / "vac.json"
    cov_file.write_text(json.dumps([[0.5, 0.0], [0.0, 0.5]]))
    proc = run_cli("gaussian", "--cov", str(cov_file))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["modes_a"] == 1 and report["modes_b"] == 0
    assert report["wehrl_joint"] == pytest.approx(1.0, abs=1e-12)
    assert "mutual_information" not in report


def test_gaussian_partition_override(tmp_path):
    cov_file = tmp_path / "prod.json"
    cov_file.write_text(json.dumps(
        [[0.7, 0, 0, 0], [0, 0.7, 0, 0], [0, 0, 1.1, 0], [0, 0, 0, 1.1]]))
    proc = run_cli("gaussian", "--cov", str(cov_file), "--partition", "1,1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["modes_b"] == 1
    assert report["mutual_information"] == pytest.approx(0.0, abs=1e-12)
    assert report["ppt_verdict"] == "no-violation"
    # a product of two thermal-like modes is mixed: no witness verdict
    assert report["pure"] is False
    assert "entangled" not in report


@pytest.mark.parametrize("matrix", [
    [[1e200, 0.0], [0.0, 1e200]],
    [[1e308, 0.0], [0.0, 1e308]],
    [[1e308, 1e308], [1e308, 1e308]],
], ids=["diagonal-1e200", "diagonal-1e308", "full-1e308"])
def test_gaussian_with_huge_finite_entries_exits_3(tmp_path, matrix):
    # symmetrizing must not overflow, and a report that overflows has no
    # JSON form (no Infinity or NaN tokens on stdout)
    cov_file = tmp_path / "huge.json"
    cov_file.write_text(json.dumps(matrix))
    proc = run_cli("gaussian", "--cov", str(cov_file))
    assert proc.returncode == 3
    # one line, and no RuntimeWarning from the overflow before it
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("scale", [1e16, 1e300, 1e308])
def test_gaussian_singular_matrix_at_any_scale_exits_3(tmp_path, capsys, scale):
    cov_file = tmp_path / "singular.json"
    cov_file.write_text(json.dumps([[scale, scale], [scale, scale]]))
    assert main(["gaussian", "--cov", str(cov_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "rounding floor" in captured.err
    assert captured.out == ""


def test_gaussian_von_neumann_entropy_of_a_huge_thermal_mode(tmp_path):
    cov_file = tmp_path / "hot.json"
    cov_file.write_text(json.dumps([[1e16, 0.0], [0.0, 1e16]]))
    proc = run_cli("gaussian", "--cov", str(cov_file))
    assert proc.returncode == 0
    # ln(nu) + 1 at nu = 1e16, where the two-logarithm form cancels to 0
    assert json.loads(proc.stdout)["von_neumann_entropy"] == pytest.approx(
        37.841361487904734, abs=1e-12)


@pytest.mark.parametrize("partition", [ModePartition(1, 1), ModePartition(2, 1)])
def test_gaussian_pure_flag_agrees_with_the_witness(tmp_path, capsys, partition):
    # spectra at 1/2, inside and outside the purity slack, and well mixed
    for seed, nu in enumerate((0.5, 0.5, 0.5 + 5e-8, 0.5 + 2e-7, 0.7, 1.5)):
        cov = random_admissible_covariance(np.random.default_rng(seed), partition,
                                           min_nu=nu, max_nu=nu)
        path = tmp_path / f"cov-{seed}.json"
        path.write_text(json.dumps({"v": cov.v.tolist(), "modes_a": partition.n_a,
                                    "modes_b": partition.n_b}))
        assert main(["gaussian", "--cov", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        try:
            entanglement_witness(GaussianState(cov))
            accepted = True
        except NotPure:
            accepted = False
        assert report["pure"] is accepted is (nu <= 0.5 + 1e-7), (seed, nu)
        assert ("entangled" in report) is accepted


@pytest.mark.parametrize("c", [5e-10, 5e-12])
def test_ppt_verdict_of_the_cli_matches_the_simon_test(tmp_path, capsys, c):
    # a barely squeezed pure normal form: the reflected minimum 1/2 - c
    # lies below the admissibility slack for c = 5e-10 and above it for 5e-12
    params = NormalFormParams(0.5, 0.5, c, -c)
    verdict = simon_pure_separability(params)
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"v": params.to_matrix().tolist(), "modes_a": 1, "modes_b": 1}))
    assert main(["gaussian", "--cov", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ppt_min_symplectic"] == verdict.min_reflected_symplectic
    assert report["ppt_min_symplectic"] == pytest.approx(0.5 - c, abs=1e-15)
    assert report["ppt_verdict"] == ("no-violation" if verdict.separable else "entangled")
    assert verdict.separable is (c < 1e-10)


def test_gaussian_inadmissible_matrix_exits_3(tmp_path):
    cov_file = tmp_path / "bad.json"
    cov_file.write_text(json.dumps((0.1 * __import__("numpy").eye(4)).tolist()))
    proc = run_cli("gaussian", "--cov", str(cov_file), "--partition", "1,1")
    assert proc.returncode == 3
    assert "below 1/2" in proc.stderr
