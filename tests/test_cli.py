import json

import numpy as np
import pytest

from opstable.cli import dump_config, load_config, main

GAUSS_CONFIG = {
    "regime": "pure_scaling",
    "dimension": 1,
    "mu": 2.0,
    "angular": {"kind": "pair", "phi_plus": 0.5, "phi_minus": 0.5},
    "sigma": [0.2],
    "alpha": 0.03,
    "rate": 0.05,
    "continuation": "real_part",
    "epsilon": 0.0,
    "quadrature": {"theta_cutoff": 1e7, "nodes_per_panel": 24,
                   "panel_growth": 1.6, "tolerance": 1e-10},
}


@pytest.fixture
def gauss_config_path(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(GAUSS_CONFIG))
    return str(path)


@pytest.fixture
def stable_config_path(tmp_path):
    cfg = dict(GAUSS_CONFIG, mu=1.7)
    path = tmp_path / "stable.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_round_trip(gauss_config_path):
    model, quad = load_config(gauss_config_path)
    dumped = dump_config(model, quad)
    model2, quad2 = load_config_from_dict(dumped)
    assert dump_config(model2, quad2) == dumped


def load_config_from_dict(data):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(data, fh)
        name = fh.name
    return load_config(name)


def test_unknown_keys_rejected(tmp_path):
    cfg = dict(GAUSS_CONFIG, volatility=0.3)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", str(path), "--spot", "100", "--strike", "100",
                 "--maturity", "1"]) == 2


def test_invalid_stability_bound_exits_2(tmp_path, capsys):
    cfg = dict(GAUSS_CONFIG, mu=2.5)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", str(path), "--spot", "100", "--strike", "100",
                 "--maturity", "1"]) == 2
    err = capsys.readouterr().err
    assert "D*mu" in err  # message names the failing invariant


def test_price_json_matches_closed_form(gauss_config_path, capsys):
    assert main(["price", gauss_config_path, "--spot", "100", "--strike", "100",
                 "--maturity", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from opstable import black_scholes_price
    want = black_scholes_price(100.0, 100.0, 0.05, 0.04, 1.0)
    assert payload["price"] == pytest.approx(want, rel=1e-9)


def test_price_csv_batch_monotone(gauss_config_path, capsys):
    strikes = ",".join(str(80 + 2 * i) for i in range(20))
    assert main(["price", gauss_config_path, "--spot", "100",
                 "--strikes", strikes, "--maturity", "0.5", "--out", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 21  # header + 20 rows
    prices = [float(row.split(",")[2]) for row in lines[1:]]
    assert all(a > b for a, b in zip(prices, prices[1:]))


def test_validate_gaussian_suite_passes(gauss_config_path, capsys):
    assert main(["validate", gauss_config_path, "--suite", "gaussian-limit"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["status"] == "pass" for r in rows)


def test_validate_self_similarity(stable_config_path, capsys):
    assert main(["validate", stable_config_path, "--suite", "self-similarity",
                 "--samples", "300"]) == 0


@pytest.fixture
def generic_config_path(tmp_path):
    c, s = float(np.cos(0.4)), float(np.sin(0.4))
    cfg = {
        "regime": "generic",
        "dimension": 2,
        "eigenvalues": [[0.6, 0.0], [0.8, 0.0]],
        "eigenvectors": [[[c, 0.0], [-s, 0.0]], [[s, 0.0], [c, 0.0]]],
        "angular": {"kind": "eigen_weights", "weights": [0.7, 0.5]},
        "sigma": [0.8, 0.6],
        "alpha": 0.0,
        "rate": 0.0,
        "continuation": "real_part",
        "epsilon": 0.0,
    }
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_self_similarity_generic_config(generic_config_path, capsys):
    assert main(["validate", generic_config_path, "--suite", "self-similarity",
                 "--samples", "300"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["status"] == "pass" for r in rows)
    assert all(r["tolerance"] == 1e-10 for r in rows)


def test_generic_config_round_trip(generic_config_path):
    model, quad = load_config(generic_config_path)
    dumped = dump_config(model, quad)
    model2, quad2 = load_config_from_dict(dumped)
    assert dump_config(model2, quad2) == dumped


@pytest.mark.parametrize("config", ["stable_config_path", "generic_config_path"])
def test_validate_all_skips_inapplicable_suites(config, request, capsys):
    # gaussian-limit does not apply to mu = 1.7, and neither it nor mc-cross
    # to the generic regime; they must skip, not fail
    assert main(["validate", request.getfixturevalue(config), "--suite", "all",
                 "--samples", "100", "--paths", "50000"]) == 0
    rows = json.loads(capsys.readouterr().out)
    statuses = {r["suite"]: r["status"] for r in rows}
    assert statuses["gaussian-limit"] == "skip"
    assert all(r["status"] in ("pass", "skip") for r in rows)


def test_validate_moments_suite(stable_config_path, capsys):
    assert main(["validate", stable_config_path, "--suite", "moments"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {r["check"] for r in rows}
    assert "even integer moment raises" in names


def test_moments_subcommand_reports_nonexistence(stable_config_path, capsys):
    assert main(["moments", stable_config_path, "--beta", "2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is False
    assert main(["moments", stable_config_path, "--beta", "0.8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is True
    assert np.isfinite(payload["value_re"])


def test_coeffs_tables(gauss_config_path, capsys):
    assert main(["coeffs", gauss_config_path, "--table", "a", "--k-max", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "k,n,a"
    rows = [line.split(",") for line in out[1:]]
    assert ["3", "2", "-3"] in rows
    assert main(["coeffs", gauss_config_path, "--table", "S", "--k-max", "3"]) == 0
    assert main(["coeffs", gauss_config_path, "--table", "E", "--k-max", "2",
                 "--cutoff", "30"]) == 0


def test_density_grid(stable_config_path, capsys):
    assert main(["density", stable_config_path, "--tau", "0.5",
                 "--xi-min", "-0.5", "--xi-max", "0.5", "--points", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12
    vals = [float(r.split(",")[1]) for r in lines[1:]]
    assert vals[5] == max(vals)  # peaked at the origin


def test_mc_subcommand(stable_config_path, capsys):
    assert main(["mc", stable_config_path, "--spot", "1.0", "--strike", "1.0",
                 "--maturity", "0.25", "--paths", "20000", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_paths"] == 20000
    assert payload["seed"] == 5
    assert payload["measure"] == "compensated"
    assert np.isfinite(payload["price"]) and np.isfinite(payload["stderr"])
    assert set(payload) == {"price", "stderr", "n_paths", "seed", "measure",
                            "stderr_unstable", "estimator"}


def test_mc_deterministic_given_seed(stable_config_path, capsys):
    args = ["mc", stable_config_path, "--spot", "1.0", "--strike", "1.0",
            "--maturity", "0.25", "--paths", "20000", "--seed", "5"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_dump_config_round_trip_cli(gauss_config_path, capsys, tmp_path):
    assert main(["dump-config", gauss_config_path]) == 0
    dumped = capsys.readouterr().out
    path = tmp_path / "roundtrip.json"
    path.write_text(dumped)
    assert main(["dump-config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(dumped)


def test_env_var_default_config(gauss_config_path, capsys, monkeypatch):
    # with the env var set the positional config becomes optional
    monkeypatch.setenv("OPSTABLE_CONFIG", gauss_config_path)
    assert main(["moments", "--beta", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is True


def test_missing_config_exits_2_after_env_default_is_unset(gauss_config_path, capsys,
                                                          monkeypatch):
    # the parser is built once per process; the env default is read per call
    monkeypatch.setenv("OPSTABLE_CONFIG", gauss_config_path)
    assert main(["moments", "--beta", "0.5"]) == 0
    capsys.readouterr()
    monkeypatch.delenv("OPSTABLE_CONFIG")
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--beta", "0.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "opstable moments: error: the following arguments are required: config" \
        in captured.err


def test_numerical_error_exits_3(tmp_path, capsys):
    # a tiny theta cutoff forces the quadrature into its accuracy guard
    cfg = dict(GAUSS_CONFIG, mu=1.7,
               quadrature={"theta_cutoff": 3.0, "nodes_per_panel": 24,
                           "panel_growth": 1.6, "tolerance": 1e-10})
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", str(path), "--spot", "100", "--strike", "100",
                 "--maturity", "1.0"]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_validate_failure_exits_1_for_numpy_bool(gauss_config_path, monkeypatch, capsys):
    from opstable import cli

    monkeypatch.setitem(cli._SUITES, "moments",
                        lambda model, quad, args: [("forced", 1.0, 0.0, np.False_)])
    assert main(["validate", gauss_config_path, "--suite", "moments"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["status"] == "fail"


def test_nan_spot_exits_2_without_output(gauss_config_path, capsys):
    assert main(["price", gauss_config_path, "--spot", "nan", "--strike", "100",
                 "--maturity", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config/domain error" in captured.err


def test_infinite_maturity_exits_2(stable_config_path, capsys):
    assert main(["price", stable_config_path, "--spot", "100", "--strike", "100",
                 "--maturity", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "maturity" in captured.err


def test_moments_subcommand_rejects_vanishing_generic_weight(generic_config_path, capsys):
    # the closed form would give exactly 0 for this sigma (see fractional_moment)
    assert main(["moments", generic_config_path, "--beta", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dominance weight" in captured.err


def test_validate_moments_skips_scaling_law_without_closed_form(generic_config_path, capsys):
    assert main(["validate", generic_config_path, "--suite", "moments"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["status"] == "skip"
    assert all(r["status"] == "pass" for r in rows[1:])


def test_mc_nan_spot_exits_2_without_output(stable_config_path, capsys):
    assert main(["mc", stable_config_path, "--spot", "nan", "--strike", "1",
                 "--maturity", "0.25", "--paths", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spot" in captured.err


@pytest.mark.parametrize("field, value", [("mu", "abc"), ("alpha", None), ("sigma", ["x"]),
                                          ("continuation", "sideways")])
def test_malformed_config_field_exits_2_naming_it(tmp_path, capsys, field, value):
    cfg = dict(GAUSS_CONFIG, **{field: value})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", str(path), "--spot", "100", "--strike", "100",
                 "--maturity", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{field}'" in captured.err


@pytest.mark.parametrize("field", ["alpha", "mu", "sigma"])
def test_missing_config_field_raises_validation_error(tmp_path, field):
    from opstable import ModelValidationError

    cfg = {k: v for k, v in GAUSS_CONFIG.items() if k != field}
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ModelValidationError, match=f"missing field '{field}'"):
        load_config(str(path))


def test_non_finite_json_result_exits_3_without_output(gauss_config_path, monkeypatch, capsys):
    from opstable import cli

    monkeypatch.setattr(cli.moments, "fractional_moment",
                        lambda model, beta, t: complex(float("nan"), 0.0))
    assert main(["moments", gauss_config_path, "--beta", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_validate_prints_a_non_finite_measurement_as_null(gauss_config_path, monkeypatch,
                                                          capsys):
    from opstable import cli

    monkeypatch.setitem(cli._SUITES, "moments",
                        lambda model, quad, args: [("forced", float("nan"), 0.0, False)])
    assert main(["validate", gauss_config_path, "--suite", "moments"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["measured"] is None
    assert rows[0]["status"] == "fail"


def test_mc_generic_config_names_the_pure_scaling_requirement(generic_config_path, capsys):
    assert main(["mc", generic_config_path, "--spot", "1", "--strike", "1",
                 "--maturity", "0.25", "--paths", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "compensator" in captured.err
    assert "analytic continuation" not in captured.err


def test_moments_on_an_8_entry_rotation_table(tmp_path, capsys):
    cfg = {"regime": "scaling_rotation", "dimension": 2, "mu": 0.8, "rotation_rate": 0.3,
           "angular": {"kind": "samples",
                       "values": [0.5, 0.6, 0.7, 0.6, 0.5, 0.6, 0.7, 0.6]},
           "sigma": [0.5, 0.4], "alpha": 0.0, "rate": 0.02}
    path = tmp_path / "rot8.json"
    path.write_text(json.dumps(cfg))
    assert main(["moments", str(path), "--beta", "0.5", "--time", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is True
    assert payload["value_re"] > 0


def _exit_code(argv) -> int:
    """main's return code, or the code argparse exits with on a bad argument."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, named", [
    (["density", "--tau", "0.5", "--xi-min", "-1", "--xi-max", "1", "--points", "-3"],
     "--points"),
    (["density", "--tau", "0.5", "--xi-min", "-1", "--xi-max", "1", "--points", "0"],
     "--points"),
    (["density", "--tau", "nan", "--xi-min", "-1", "--xi-max", "1"], "tau"),
    (["density", "--tau", "0.5", "--xi-min", "nan", "--xi-max", "1", "--points", "3"], "xi"),
    (["price", "--spot", "100", "--strikes", "90,abc", "--maturity", "0.5"], "--strikes"),
    (["price", "--spot", "100", "--strike", "90", "--maturities", "0.5,"], "--maturities"),
    (["moments", "--beta", "nan"], "beta"),
    (["moments", "--beta", "0.5", "--time", "inf"], "finite t"),
    (["validate", "--suite", "self-similarity", "--samples", "0"], "--samples"),
])
def test_bad_numeric_argument_exits_2_naming_it(stable_config_path, capsys, argv, named):
    assert _exit_code([argv[0], stable_config_path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
