import importlib.resources
import importlib.util
import json

import numpy as np
import pytest

from heavytail import EstimatorConfig, SimSetting, coefficient_matrix, ease
from heavytail.cli import main
from heavytail.formats import (dataset_from_csv, dataset_to_csv, matrix_from_dict,
                               read_json, scm_from_dict, scm_to_dict, write_json)
from heavytail.simulate import scenario_streams, simulate
from heavytail.graph import random_scm, GeneratorConfig

from conftest import make_chain

FIXTURE = importlib.resources.files("heavytail").joinpath("fixtures/swiss_finance_psi.json")


def run(*argv):
    return main([str(a) for a in argv])


def test_simulate_writes_files_and_is_byte_identical(tmp_path):
    out = tmp_path / "d.csv"
    truth = tmp_path / "t.json"
    argv = ("simulate", "--setting", "linear", "--p", 4, "--n", 500, "--alpha", 2.5,
            "--seed", 1, "--out", out, "--truth", truth)
    assert run(*argv) == 0
    first = out.read_bytes(), truth.read_bytes()
    data = dataset_from_csv(out)
    assert data.n == 500 and data.p == 4
    doc = read_json(truth)
    assert doc["meta"]["seed"] == 1 and doc["p"] == 4
    assert run(*argv) == 0
    assert (out.read_bytes(), truth.read_bytes()) == first


def test_simulate_degenerate_cdf_exits_2(tmp_path):
    code = run("simulate", "--setting", "nonlinear", "--p", 3, "--n", 1, "--alpha", 2.5,
               "--out", tmp_path / "d.csv", "--truth", tmp_path / "t.json")
    assert code == 2


def test_coefficients_on_independent_columns(tmp_path):
    rng = np.random.default_rng(0)
    from heavytail import Dataset

    data = Dataset(["u", "v"], rng.standard_t(2.5, size=(10**5, 2)))
    csv_path = tmp_path / "d.csv"
    dataset_to_csv(data, csv_path)
    out = tmp_path / "m.json"
    assert run("coefficients", "--data", csv_path, "--kind", "gamma", "--out", out) == 0
    matrix = matrix_from_dict(read_json(out))
    assert abs(matrix.values[0, 1] - 0.5) < 0.1
    assert abs(matrix.values[1, 0] - 0.5) < 0.1
    assert matrix.values[0, 0] != matrix.values[0, 0]  # NaN diagonal round-trips as null


def test_coefficients_k_too_large_exits_2(tmp_path):
    csv_path = tmp_path / "d.csv"
    from heavytail import Dataset

    dataset_to_csv(Dataset(["a", "b"], np.random.default_rng(1).random((20, 2))), csv_path)
    assert run("coefficients", "--data", csv_path, "--kind", "gamma",
               "--k", 20, "--out", tmp_path / "m.json") == 2


def test_discover_financial_fixture(tmp_path):
    out = tmp_path / "order.json"
    assert run("discover", "--matrix", FIXTURE, "--out", out) == 0
    doc = read_json(out)
    assert doc["pi_inverse"] == ["EURCHF", "NOVN", "ROG", "NESN"]


def test_discover_single_node_matrix(tmp_path):
    matrix_path = tmp_path / "m.json"
    write_json(matrix_path, {"kind": "gamma", "names": ["only"], "values": [[None]]})
    out = tmp_path / "order.json"
    assert run("discover", "--matrix", matrix_path, "--out", out) == 0
    assert read_json(out)["pi_inverse"] == ["only"]


def test_discover_non_finite_matrix_exits_2(tmp_path):
    matrix_path = tmp_path / "m.json"
    doc = read_json(FIXTURE)
    doc["values"][0][1] = 1e400  # becomes inf on load
    matrix_path.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    out = tmp_path / "order.json"
    assert run("discover", "--matrix", matrix_path, "--out", out) == 2


def test_discover_requires_exactly_one_source(tmp_path):
    assert run("discover", "--out", tmp_path / "o.json") == 2


def test_oracle_diamond(tmp_path, diamond_scm):
    scm_path = tmp_path / "scm.json"
    write_json(scm_path, scm_to_dict(diamond_scm))
    out = tmp_path / "m.json"
    assert run("oracle", "--scm", scm_path, "--kind", "gamma", "--out", out) == 0
    matrix = matrix_from_dict(read_json(out))
    assert matrix.values[3, 0] == pytest.approx(0.7, abs=1e-15)
    assert matrix.values[0, 3] == 1.0


def test_oracle_disconnected_and_mode_error(tmp_path):
    from heavytail import Dag, NoiseSpec, Scm

    scm = Scm(Dag(2), {}, NoiseSpec("student_t", 1.5), mode="positive")
    path = tmp_path / "scm.json"
    write_json(path, scm_to_dict(scm))
    out = tmp_path / "m.json"
    assert run("oracle", "--scm", path, "--kind", "gamma", "--out", out) == 0
    assert matrix_from_dict(read_json(out)).values[0, 1] == 0.5

    real = make_chain([-0.7], mode="real")
    real_path = tmp_path / "real.json"
    write_json(real_path, scm_to_dict(real))
    assert run("oracle", "--scm", real_path, "--kind", "gamma", "--out", out) == 2
    assert run("oracle", "--scm", real_path, "--kind", "psi", "--out", out) == 0


@pytest.mark.parametrize("broken", [
    {"noise": {"scale_upper": 1.0, "scale_lower": 1.0}},
    {"noise": {"family": 3}},
    {"noise": {"family": "student_t", "scale_upper": "x"}},
    {"noise": ["student_t", "student_t"]},
    {"p": "x"},
    {"p": None},
    {"edges": [5]},
    {"edges": [[0, 1]]},
])
def test_oracle_malformed_scm_exits_2(tmp_path, capsys, broken):
    doc = scm_to_dict(make_chain([0.5]))
    doc.update(broken)
    path = tmp_path / "scm.json"
    write_json(path, doc)
    assert run("oracle", "--scm", path, "--kind", "psi", "--out", tmp_path / "m.json") == 2
    assert "internal error" not in capsys.readouterr().err


def test_evaluate_round_trip(tmp_path, capsys):
    scm = make_chain([1.0, 1.0])
    truth_path = tmp_path / "t.json"
    write_json(truth_path, scm_to_dict(scm))
    order_path = tmp_path / "o.json"
    write_json(order_path, {"pi_inverse": ["x0", "x1", "x2"]})
    assert run("evaluate", "--order", order_path, "--truth", truth_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True and doc["metric"] == "ancestral-violation"

    write_json(order_path, {"pi_inverse": ["x0", "bogus", "x2"]})
    assert run("evaluate", "--order", order_path, "--truth", truth_path) == 2


def test_pipeline_composes_like_library(tmp_path):
    d_csv, t_json = tmp_path / "d.csv", tmp_path / "t.json"
    m_json, o_json = tmp_path / "m.json", tmp_path / "o.json"
    assert run("simulate", "--setting", "linear", "--p", 4, "--n", 800, "--alpha", 2.5,
               "--seed", 11, "--out", d_csv, "--truth", t_json) == 0
    assert run("coefficients", "--data", d_csv, "--kind", "psi", "--k-exponent", 0.4,
               "--out", m_json) == 0
    assert run("discover", "--matrix", m_json, "--out", o_json) == 0

    # in-library pipeline with the same derived streams
    scm_seed, data_seed = scenario_streams(11, 800, 4, 2.5, 0)
    scm = random_scm(4, 2.5, GeneratorConfig(), scm_seed)
    result = simulate(scm, SimSetting("linear"), 800, data_seed)
    matrix = coefficient_matrix(result.data, EstimatorConfig(k_exponent=0.4, kind="psi"))
    order = ease(matrix)
    expected = [result.data.names[i] for i in order.sequence]
    assert read_json(o_json)["pi_inverse"] == expected

    loaded = matrix_from_dict(read_json(m_json))
    assert np.array_equal(np.nan_to_num(loaded.values), np.nan_to_num(matrix.values))


def test_meta_stripping_round_trip(tmp_path):
    scm = make_chain([0.5, -0.5], mode="real")
    path = tmp_path / "scm.json"
    doc = scm_to_dict(scm)
    doc["meta"] = {"version": "x", "seed": 0, "config": {}}
    write_json(path, doc)
    loaded = scm_from_dict(read_json(path))
    assert loaded.coefficients == scm.coefficients
    assert loaded.mode == scm.mode and loaded.hidden == scm.hidden
    assert scm_to_dict(loaded) == scm_to_dict(scm)


def test_benchmark_command(tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"n": [200], "p": [3], "alpha": [2.5],
                                     "settings": ["linear"]}))
    out = tmp_path / "results.csv"
    assert run("benchmark", "--grid", grid_path, "--reps", 3, "--seed", 0,
               "--methods", "ease_psi,random_order", "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("scenario_id,setting,n,p,alpha,method,"
                        "mean_violation_fraction,se,mistake_rate,wall_ms")
    assert len(lines) == 3  # header + one row per method

    grid_path.write_text(json.dumps({"n": [200]}))
    assert run("benchmark", "--grid", grid_path, "--out", out) == 2
    grid_path.write_text("not json{")
    assert run("benchmark", "--grid", grid_path, "--out", out) == 2


def test_benchmark_shipped_desk_config_reproduces_trend(tmp_path):
    import pathlib

    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "desk_benchmark.json"
    out = tmp_path / "results.csv"
    assert run("benchmark", "--grid", config, "--reps", 50, "--seed", 0,
               "--methods", "ease_psi,random_order", "--out", out) == 0
    rows = out.read_text().strip().splitlines()[1:]
    ease_frac = {}
    rand_frac = {}
    for line in rows:
        fields = line.split(",")
        n, method, fraction = int(fields[2]), fields[5], float(fields[6])
        (ease_frac if method == "ease_psi" else rand_frac)[n] = fraction
    assert ease_frac[500] >= ease_frac[1000] >= ease_frac[10000]
    assert ease_frac[10000] < 0.05 < rand_frac[10000]


def test_threads_env_var_sets_default(monkeypatch):
    from heavytail.cli import build_parser

    monkeypatch.setenv("HEAVYTAIL_THREADS", "3")
    args = build_parser().parse_args(
        ["benchmark", "--grid", "g.json", "--out", "r.csv"])
    assert args.threads == 3


@pytest.mark.skipif(
    importlib.util.find_spec("tomllib") is None and importlib.util.find_spec("tomli") is None,
    reason="TOML grids need Python >= 3.11 or tomli")
def test_benchmark_toml_grid(tmp_path):
    grid_path = tmp_path / "grid.toml"
    grid_path.write_text('n = [200]\np = [3]\nalpha = [2.5]\nsettings = ["linear"]\n')
    out = tmp_path / "results.csv"
    assert run("benchmark", "--grid", grid_path, "--reps", 2, "--seed", 0,
               "--methods", "ease_psi", "--out", out) == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_benchmark_memory_cap_exits_2(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"n": [1e6], "p": [200], "alpha": [2.5],
                                     "memory_cap_bytes": 1e6}))
    out = tmp_path / "results.csv"
    assert run("benchmark", "--grid", grid_path, "--reps", 1, "--out", out) == 2
    assert "memory cap" in capsys.readouterr().err


def test_tail_index_command(tmp_path, capsys):
    from heavytail import Dataset, NoiseSpec, sample_noise

    x = sample_noise(NoiseSpec("shifted_pareto", 1.0), 10**4, seed=2)
    csv_path = tmp_path / "d.csv"
    dataset_to_csv(Dataset(["pareto"], x[:, None]), csv_path)
    assert run("tail-index", "--data", csv_path, "--column", "pareto", "--k", 100) == 0
    upper = json.loads(capsys.readouterr().out)
    assert abs(upper["alpha_hat"] - 1.0) < 0.3
    assert upper["k"] == 100 and upper["xi_hat"] == pytest.approx(1 / upper["alpha_hat"])

    # lower tail of the negated column equals the upper tail of the original
    csv_neg = tmp_path / "neg.csv"
    dataset_to_csv(Dataset(["pareto"], -x[:, None]), csv_neg)
    assert run("tail-index", "--data", csv_neg, "--column", "pareto", "--k", 100,
               "--tail", "lower") == 0
    lower = json.loads(capsys.readouterr().out)
    assert lower["alpha_hat"] == upper["alpha_hat"]

    assert run("tail-index", "--data", csv_path, "--column", "missing", "--k", 10) == 2
