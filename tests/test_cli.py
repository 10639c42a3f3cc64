import importlib.resources
import importlib.util
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from heavytail import CausalOrder, Dataset, EstimatorConfig, SimSetting, coefficient_matrix, ease
from heavytail._rng import FLOAT_KEY_MAX
from heavytail.cli import main
from heavytail.formats import (_BLOCK_ROWS, dataset_from_csv, dataset_to_csv,
                               matrix_from_dict, matrix_to_dict, order_names_from_dict,
                               order_to_dict, read_json, scm_from_dict, scm_to_dict,
                               write_json)
from heavytail.simulate import scenario_streams, simulate
from heavytail.graph import random_scm, GeneratorConfig
from heavytail.oracle import psi_population

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


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # main parses with one parser per process: no call's flags, usage error
    # or exit may leak into the next
    csv_path = tmp_path / "d.csv"
    dataset_to_csv(Dataset(["a", "b"], np.random.default_rng(2).random((50, 2))), csv_path)
    configs = []
    for extra in (("--k", 5), ()):
        out = tmp_path / "m.json"
        assert run("coefficients", "--data", csv_path, "--kind", "psi", *extra, "--out", out) == 0
        configs.append(json.loads(out.read_text())["meta"]["config"])
    assert configs[0]["k"] == 5 and configs[1]["k"] is None
    assert {key: value for key, value in configs[0].items() if key != "k"} == {
        key: value for key, value in configs[1].items() if key != "k"}
    with pytest.raises(SystemExit) as exc:
        run("coefficients", "--data", csv_path, "--kind", "delta", "--out", tmp_path / "x.json")
    assert exc.value.code == 2
    assert run("coefficients", "--data", csv_path, "--kind", "gamma",
               "--out", tmp_path / "g.json") == 0
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("heavytail ")


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
    from heavytail import NoiseSpec, Scm

    scm = Scm(2, {}, NoiseSpec("student_t", 1.5), mode="positive")
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


@pytest.mark.parametrize("kind", ["gamma", "psi"])
@pytest.mark.parametrize("p", [3000, 100000])
def test_oracle_huge_p_exits_2_before_allocating(tmp_path, capsys, kind, p):
    # at 3000 nodes the population matrices (80 bytes an entry) fit under the
    # cap, but writing their document (about 150) does not
    path = tmp_path / "scm.json"
    path.write_text(json.dumps(
        {"p": p, "alpha": 1.5, "edges": [], "noise": {"family": "student_t"}}))
    start = time.perf_counter()
    code = run("oracle", "--scm", path, "--kind", kind, "--out", tmp_path / "m.json")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: writing the document of a {p} x {p} coefficient matrix ")
    assert err.count("\n") == 1 and "memory cap" in err


def test_oracle_refuses_over_cap_p_before_building_the_dag(tmp_path, capsys):
    path = tmp_path / "scm.json"
    path.write_text('{"p": 1000000, "alpha": 1.5, "edges": [], "noise": {"family": "student_t"}}')
    start = time.perf_counter()
    code = run("oracle", "--scm", path, "--kind", "psi", "--out", tmp_path / "m.json")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    err = capsys.readouterr().err
    assert "memory cap" in err and "internal error" not in err


def test_evaluate_refuses_over_cap_p_before_building_the_dag(tmp_path, capsys):
    truth_path = tmp_path / "scm.json"
    truth_path.write_text(
        '{"p": 1000000, "alpha": 1.5, "edges": [], "noise": {"family": "student_t"}}')
    order_path = tmp_path / "o.json"
    write_json(order_path, {"pi_inverse": ["x0", "x1"]})
    start = time.perf_counter()
    code = run("evaluate", "--order", order_path, "--truth", truth_path)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    err = capsys.readouterr().err
    assert "memory cap" in err and "internal error" not in err
    assert "the truth graph of 1000000 nodes" in err and "population" not in err


@pytest.mark.parametrize("p, n, subject", [
    (9000, 10, "drawing an SCM of 9000 nodes"),  # 16 p**2 bytes, refused before the draw
    (6, 10**12, "simulating n=1000000000000 rows of 6 nodes"),  # refused after the draw
], ids=["p-over-the-scm-bound", "n-over-the-simulation-bound"])
def test_simulate_over_the_memory_cap_exits_2(tmp_path, capsys, p, n, subject):
    start = time.perf_counter()
    code = run("simulate", "--p", p, "--n", n, "--alpha", 1.5,
               "--out", tmp_path / "d.csv", "--truth", tmp_path / "t.json")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    err = capsys.readouterr().err
    assert subject in err and "memory cap" in err and "internal error" not in err
    assert not (tmp_path / "d.csv").exists()


@pytest.fixture(scope="module")
def wide_csvs(tmp_path_factory):
    # 3 rows of 6000 columns (388 KB) and of 20000 columns (1.3 MB)
    paths = {}
    for p in (6000, 20000):
        paths[p] = tmp_path_factory.mktemp("wide") / f"wide{p}.csv"
        values = np.random.default_rng(0).standard_normal((3, p))
        dataset_to_csv(Dataset([f"x{j}" for j in range(p)], values), paths[p])
    return paths


@pytest.mark.parametrize("command, p, subject", [
    (("coefficients", "--kind", "gamma"), 6000, "writing the document of a 6000 x 6000"),
    (("coefficients", "--kind", "gamma"), 20000, "writing the document of a 20000 x 20000"),
    (("discover",), 20000, "a 20000 x 20000")], ids=["coefficients-6000", "coefficients",
                                                    "discover"])
def test_wide_data_exits_2_before_allocating_the_matrix(tmp_path, capsys, wide_csvs, command, p,
                                                        subject):
    # the 20000 x 20000 estimate would take 6.4 GB; the 6000 x 6000 one fits
    # under the cap (16 bytes an entry), but writing its document (about 150) does not
    name, *flags = command
    out = tmp_path / "out.json"
    assert run(name, "--data", wide_csvs[p], *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {subject} coefficient matrix needs about ")
    assert err.count("\n") == 1 and "memory cap" in err and not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["gamma", "psi"])
def test_oracle_overflowing_weights_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "scm.json"
    path.write_text('{"p": 3, "alpha": 2.0, "edges": [[0, 1, 1e200], [1, 2, 1e200]], '
                    '"noise": {"family": "student_t"}, "mode": "positive"}')
    out = tmp_path / "m.json"
    assert run("oracle", "--scm", path, "--kind", kind, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: the {kind} population weights of the SCM overflow float64\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_overflowing_alpha_is_one_error_line(tmp_path, capsys):
    out, truth = tmp_path / "d.csv", tmp_path / "t.json"
    code = run("simulate", "--p", 4, "--n", 100, "--alpha", 0.001, "--out", out, "--truth", truth)
    assert code == 2
    assert capsys.readouterr().err == "error: dataset contains non-finite entries\n"
    assert not out.exists() and not truth.exists()


@pytest.mark.parametrize("broken", [
    {"noise": {"scale_upper": 1.0, "scale_lower": 1.0}},
    {"noise": {"family": 3}},
    {"noise": {"family": "student_t", "scale_upper": "x"}},
    {"noise": ["student_t", "student_t"]},
    {"p": "x"},
    {"p": None},
    {"edges": [5]},
    {"edges": [[0, 1]]},
    {"p": 2.9},
    {"p": True, "edges": []},
    {"edges": [[0.7, 1.2, 0.5]]},
    {"edges": [[False, 1, 0.5]]},
    {"hidden": [0.5]},
    {"hidden": [False]},
    {"names": "ab"},
    {"names": [1, 2]},
    {"alpha": True},
    {"edges": [[0, 1, True]]},
    {"noise": {"family": "student_t", "scale_upper": True}},
])
def test_oracle_malformed_scm_exits_2(tmp_path, capsys, broken):
    doc = scm_to_dict(make_chain([0.5]))
    doc.update(broken)
    path = tmp_path / "scm.json"
    write_json(path, doc)
    assert run("oracle", "--scm", path, "--kind", "psi", "--out", tmp_path / "m.json") == 2
    assert "internal error" not in capsys.readouterr().err


def test_oracle_reads_integral_float_node_ids_as_ints(tmp_path):
    outputs = []
    for p, parent, child, hidden in [(2, 0, 1, 1), (2.0, 0.0, 1.0, 1.0)]:
        doc = scm_to_dict(make_chain([0.5]))
        doc.update(p=p, edges=[[parent, child, 0.5]], hidden=[hidden])
        write_json(tmp_path / "scm.json", doc)
        assert run("oracle", "--scm", tmp_path / "scm.json", "--kind", "psi",
                   "--out", tmp_path / "m.json") == 0
        outputs.append(json.loads((tmp_path / "m.json").read_text()))
    assert outputs[0] == outputs[1]


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
    data = simulate(scm, SimSetting("linear"), 800, data_seed)
    matrix = coefficient_matrix(data, EstimatorConfig(k_exponent=0.4, kind="psi"))
    order = ease(matrix)
    expected = [data.names[i] for i in order.sequence]
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

    # a repeated method would write its rows twice
    assert run("benchmark", "--grid", grid_path, "--reps", 1,
               "--methods", "ease_psi,ease_psi", "--out", out) == 2
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


def test_benchmark_threads_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("benchmark", "--grid", tmp_path / "g.json", "--threads", 2,
            "--out", tmp_path / "r.csv")
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


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


# 1.9e302 overflows the seed key's micro-unit scaling
@pytest.mark.parametrize("alpha", ["nan", "inf", "-1", "0", "1.9e302"])
def test_simulate_non_finite_alpha_exits_2(tmp_path, capsys, alpha):
    assert run("simulate", "--p", 3, "--n", 10, "--alpha", alpha,
               "--out", tmp_path / "d.csv", "--truth", tmp_path / "t.json") == 2
    assert (capsys.readouterr().err
            == f"error: alpha must be positive and finite, at most {FLOAT_KEY_MAX}, "
               f"got {float(alpha)}\n")


@pytest.mark.parametrize("alpha", [1.7e302, FLOAT_KEY_MAX])
def test_simulate_alpha_up_to_the_seed_key_bound_exits_0(tmp_path, alpha):
    assert run("simulate", "--p", 3, "--n", 50, "--alpha", repr(alpha),
               "--out", tmp_path / "d.csv", "--truth", tmp_path / "t.json") == 0


@pytest.mark.parametrize("p", [-100000, -3, 0])
def test_simulate_non_positive_p_exits_2(tmp_path, capsys, p):
    assert run("simulate", "--p", p, "--n", 10, "--alpha", 1.5,
               "--out", tmp_path / "d.csv", "--truth", tmp_path / "t.json") == 2
    assert f"error: p must be >= 1, got {p}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [-5, 0])
def test_simulate_non_positive_n_exits_2(tmp_path, capsys, n):
    assert run("simulate", "--p", 3, "--n", n, "--alpha", 1.5,
               "--out", tmp_path / "d.csv", "--truth", tmp_path / "t.json") == 2
    assert f"error: n must be >= 1, got {n}" in capsys.readouterr().err


_NO_TOML = importlib.util.find_spec("tomllib") is None and importlib.util.find_spec("tomli") is None


_ALPHA = "grid alpha values must be positive and finite"
_ARRAYS = "grid file needs 'n', 'p', and 'alpha' arrays"


@pytest.mark.parametrize("name, text, message", [
    ("grid.json", '{"n": [50], "p": [2], "alpha": [NaN]}', _ALPHA),
    ("grid.json", '{"n": [50], "p": [2], "alpha": [Infinity]}', _ALPHA),
    pytest.param("grid.toml", "n = [50]\np = [2]\nalpha = [nan]\n", _ALPHA,
                 marks=pytest.mark.skipif(_NO_TOML, reason="no TOML parser")),
    pytest.param("grid.toml", "n = [50]\np = [2]\nalpha = [inf]\n", _ALPHA,
                 marks=pytest.mark.skipif(_NO_TOML, reason="no TOML parser")),
    ("grid.json", '{"n": [40.9], "p": [3], "alpha": [2.5]}',
     "grid n value must be a whole number, got 40.9"),
    ("grid.json", '{"n": [40], "p": [3.7], "alpha": [2.5]}',
     "grid p value must be a whole number, got 3.7"),
    ("grid.json", '{"n": [50], "p": [1e300], "alpha": [2.5]}', "memory cap"),
    ("grid.json", '{"n": [NaN], "p": [2], "alpha": [2.5]}',
     "grid n value must be a whole number, got nan"),
    ("grid.json", '{"n": [true], "p": [2], "alpha": [2.5]}',
     "grid n value must be a whole number, got True"),
    ("grid.json", '{"n": [50], "p": [2], "alpha": ["2.5"]}', _ALPHA),
    ("grid.json", '{"n": [50], "p": [2], "alpha": [1.5, 1.9e302]}', _ALPHA),
    ("grid.json", '{"n": [50], "p": [2], "alpha": [2.5], "memory_cap_bytes": 5.7}',
     "grid memory_cap_bytes must be a whole number, got 5.7"),
    ("grid.json", '{"n": [50], "p": [2], "alpha": [2.5], "memory_cap_bytes": true}',
     "grid memory_cap_bytes must be a whole number, got True"),
    ("grid.json", '{"n": [50], "p": [2], "alpha": [2.5], "memory_cap_bytes": -5}',
     "grid memory_cap_bytes must be positive, got -5"),
    ("grid.json", '{"n": [50], "p": [2]}', _ARRAYS),
    ("grid.json", '{"n": 50, "p": [2], "alpha": [2.5]}', _ARRAYS),
    ("grid.json", '{"n": [50], "p": [2], "alpha": [2.5], "settings": "linear"}', _ARRAYS),
    ("grid.json", '[50, 2, 2.5]', _ARRAYS),
    # a misspelt key was ignored: the grid ran the linear setting
    ("grid.json", '{"n": [50], "p": [2], "alpha": [2.5], "setting": ["nonlinear"]}',
     "grid file has unknown key 'setting'"),
    pytest.param("grid.toml", 'n = [50]\np = [2]\nalpha = [2.5]\nsetting = ["nonlinear"]\n',
                 "grid file has unknown key 'setting'",
                 marks=pytest.mark.skipif(_NO_TOML, reason="no TOML parser")),
    # cells sharing a scenario id ran: their rows carried one id in the results CSV
    ("grid.json", '{"n": [50, 50], "p": [3], "alpha": [2, 2.0]}',
     "grid cells repeat the scenario id 'linear-n50-p3-a2'"),
    ("grid.json", '{"n": [50], "p": [3], "alpha": [1.5, 1.5000001]}',
     "grid cells repeat the scenario id 'linear-n50-p3-a1.5'"),
    # nesting past the recursion limit was an internal error (exit 1) in TOML
    pytest.param("grid.toml", "n = " + "[" * 10 ** 5 + "\n", "malformed TOML in",
                 marks=pytest.mark.skipif(_NO_TOML, reason="no TOML parser")),
    ("grid.json", '{"n": ' + "[" * 10 ** 5, "malformed JSON in"),
], ids=["json-nan", "json-inf", "toml-nan", "toml-inf", "fractional-n", "fractional-p",
        "p-over-the-cap", "nan-n", "bool-n", "string-alpha", "huge-alpha", "fractional-cap",
        "bool-cap", "negative-cap", "missing-alpha", "scalar-n", "scalar-settings",
        "not-an-object", "misspelt-settings", "toml-misspelt-settings", "repeated-n",
        "alphas-equal-under-g", "toml-deeply-nested", "json-deeply-nested"])
def test_benchmark_grid_values_exit_2(tmp_path, capsys, name, text, message):
    grid_path = tmp_path / name
    grid_path.write_text(text)
    assert run("benchmark", "--grid", grid_path, "--reps", 1, "--methods", "random_order",
               "--out", tmp_path / "results.csv") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
    if message != _ARRAYS:
        assert _ARRAYS not in err


_SCM_TEXT = '"alpha": 1.5, "noise": {"family": "student_t"}'


@pytest.mark.parametrize("text, named", [
    # a misspelt key was ignored: node 2 was read as observed
    ('{"p": 3, "edges": [[0, 1, 0.5]], ' + _SCM_TEXT + ', "hiden": [2]}',
     "SCM document has unknown key 'hiden'"),
    ('{"p": 2, "edges": [[0, 1, 0.5]], "alpha": 1.5, '
     '"noise": {"family": "student_t", "scale": 2.0}}',
     "noise spec has unknown key 'scale'"),
    # the last "p" won: oracle wrote a 3-node matrix
    ('{"p": 2, "p": 3, "edges": [[0, 1, 0.5]], ' + _SCM_TEXT + '}',
     "repeated key 'p'"),
    # the last beta won, -0.7
    ('{"p": 2, "edges": [[0, 1, 0.5], [0, 1.0, -0.7]], ' + _SCM_TEXT + '}',
     "SCM document repeats edge (0, 1)"),
], ids=["misspelt-scm-key", "misspelt-noise-key", "repeated-json-key", "repeated-edge"])
def test_oracle_strict_scm_exits_2_naming_the_key_or_edge(tmp_path, capsys, text, named):
    path, out = tmp_path / "scm.json", tmp_path / "m.json"
    path.write_text(text)
    assert run("oracle", "--scm", path, "--kind", "psi", "--out", out) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err
    assert not out.exists()


def test_simulate_truth_reads_back_unchanged(tmp_path, capsys):
    # the truth simulate writes, meta included, is the SCM oracle and evaluate read
    truth = tmp_path / "t.json"
    assert run("simulate", "--setting", "hidden_confounders", "--p", 5, "--n", 50,
               "--alpha", 1.5, "--seed", 3, "--out", tmp_path / "d.csv", "--truth", truth) == 0
    doc = read_json(truth)
    scm = scm_from_dict(doc)
    assert "meta" in doc and scm.hidden
    assert scm_to_dict(scm) == {key: value for key, value in doc.items() if key != "meta"}
    assert run("oracle", "--scm", truth, "--kind", "psi", "--out", tmp_path / "m.json") == 0
    written = matrix_from_dict(read_json(tmp_path / "m.json"))
    assert np.array_equal(written.values, psi_population(scm).values, equal_nan=True)
    order = [scm.node_name(j) for j in scm.dag.topological_order if j in scm.observed]
    write_json(tmp_path / "o.json", {"pi_inverse": order})
    capsys.readouterr()
    assert run("evaluate", "--order", tmp_path / "o.json", "--truth", truth) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def _order_document(names) -> dict:
    return order_to_dict(CausalOrder(range(len(names))), names)


@pytest.mark.parametrize("argv, read, write", [
    (lambda d: ["coefficients", "--data", d / "d.csv", "--kind", "gamma"],
     matrix_from_dict, matrix_to_dict),
    (lambda d: ["oracle", "--scm", d / "t.json", "--kind", "psi"],
     matrix_from_dict, matrix_to_dict),
    (lambda d: ["discover", "--data", d / "d.csv", "--kind", "psi"],
     order_names_from_dict, _order_document),
], ids=["coefficients", "oracle", "discover"])
def test_written_document_reads_back_unchanged(tmp_path, argv, read, write):
    # like the truth above: the document a command writes, read and written again, less meta
    assert run("simulate", "--p", 4, "--n", 300, "--alpha", 1.5, "--seed", 3,
               "--out", tmp_path / "d.csv", "--truth", tmp_path / "t.json") == 0
    out = tmp_path / "out.json"
    assert run(*argv(tmp_path), "--out", out) == 0
    doc = read_json(out)
    assert "meta" in doc
    assert write(read(doc)) == {key: value for key, value in doc.items() if key != "meta"}


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


@pytest.mark.filterwarnings("error")
def test_tail_index_overflow_is_one_error_line(tmp_path, capsys):
    # every ratio of 1e308 to 5e-324 overflows, so xi_hat would be infinite
    path = tmp_path / "d.csv"
    path.write_text("x0\n5e-324\n" + "1e+308\n" * 5)
    assert run("tail-index", "--data", path, "--column", "x0", "--k", 5) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the mean log-excess of the top order statistics is inf, "
                   "not finite\n")


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_json_document_is_strict_json(tmp_path, capsys, diamond_scm):
    """Each JSON file or stdout document a command writes parses without NaN or infinities."""
    d_csv, truth = tmp_path / "d.csv", tmp_path / "t.json"
    files = {name: tmp_path / f"{name}.json" for name in ("coefficients", "discover", "oracle")}
    assert run("simulate", "--p", 4, "--n", 300, "--alpha", 2.5, "--seed", 5,
               "--out", d_csv, "--truth", truth) == 0
    assert run("coefficients", "--data", d_csv, "--kind", "psi",
               "--out", files["coefficients"]) == 0
    assert run("discover", "--data", d_csv, "--out", files["discover"]) == 0
    oracle_scm = tmp_path / "diamond.json"
    write_json(oracle_scm, scm_to_dict(diamond_scm))
    assert run("oracle", "--scm", oracle_scm, "--kind", "gamma", "--out", files["oracle"]) == 0
    texts = [path.read_text() for path in (truth, *files.values())]
    capsys.readouterr()
    for argv in (("evaluate", "--order", files["discover"], "--truth", truth),
                 ("tail-index", "--data", d_csv, "--column", "x0", "--k", 20)):
        assert run(*argv) == 0
        texts.append(capsys.readouterr().out)
    for text in texts:
        doc = json.loads(text, parse_constant=_refuse_constant)
        assert "meta" in doc


def per_row_csv(data, path):
    """The per-row writer the block writer replaced; its bytes are the reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(data.names) + "\n")
        for row in data.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def csv_bytes(writer, data) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        writer(data, path)
        return path.read_bytes()


# values whose shortest repr switches notation or sits at the float64 edges
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-5, 0.0001, 1e16, 1e22, 1e-7, 2.0 ** 53,
               1.0, -3.0, 100.0, 123456789.0, 0.1, 1.7976931348623157e308)


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=9),
              elements=st.sampled_from(EDGE_FLOATS)
              | st.floats(allow_nan=False, allow_infinity=False)))
def test_block_writer_matches_per_row_writer(values):
    data = Dataset([f"c{j}" for j in range(values.shape[1])], values)
    assert csv_bytes(dataset_to_csv, data) == csv_bytes(per_row_csv, data)


@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS + 3])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_block_writer_block_edges(tmp_path, n, p, order):
    rng = np.random.default_rng(n * 10 + p)
    values = rng.standard_t(1.5, size=(n, p)) * 10.0 ** rng.integers(-8, 24, size=(n, p))
    values[rng.random((n, p)) < 0.1] = rng.choice(EDGE_FLOATS)
    data = Dataset([f"c{j}" for j in range(p)], np.asarray(values, order=order))
    assert csv_bytes(dataset_to_csv, data) == csv_bytes(per_row_csv, data)
    path = tmp_path / "d.csv"
    dataset_to_csv(data, path)
    back = dataset_from_csv(path)
    assert back.names == data.names and np.array_equal(back.values, data.values)


def _bad_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,b\n1,\xff\n")
    return path


@pytest.mark.parametrize("argv", [
    lambda d: ["coefficients", "--data", d / "missing.csv", "--kind", "gamma",
               "--out", d / "m.json"],
    lambda d: ["tail-index", "--data", d / "missing.csv", "--column", "a", "--k", 2],
    lambda d: ["discover", "--matrix", d / "missing.json", "--out", d / "o.json"],
    lambda d: ["coefficients", "--data", d, "--kind", "gamma", "--out", d / "m.json"],
    lambda d: ["coefficients", "--data", _bad_csv(d), "--kind", "gamma", "--out", d / "m.json"],
    lambda d: ["simulate", "--p", 3, "--n", 10, "--alpha", 2.5,
               "--out", d / "no" / "d.csv", "--truth", d / "t.json"],
    lambda d: ["simulate", "--p", 3, "--n", 10, "--alpha", 2.5,
               "--out", d / "d.csv", "--truth", d / "no" / "t.json"],
    lambda d: ["discover", "--matrix", FIXTURE, "--out", d / "no" / "o.json"],
], ids=["csv-missing", "tail-index-missing", "json-missing", "csv-is-dir", "csv-not-utf8",
        "csv-write", "json-write", "order-write"])
def test_file_errors_exit_2(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and "internal error" not in err


def test_benchmark_results_write_error_exits_2(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"n": [50], "p": [2], "alpha": [2.5]}))
    out = tmp_path / "no" / "results.csv"
    assert run("benchmark", "--grid", grid_path, "--reps", 1, "--methods", "random_order",
               "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"kind": "gamma", "names": ["a", "b"], "values": [[None, 0.5], [0.5]]},
    {"kind": "gamma", "names": ["a", "b"], "values": [[None, "x"], [0.5, None]]},
    {"kind": "gamma", "names": ["a", "b"], "values": [[None, [1]], [0.5, None]]},
    {"kind": "gamma", "names": ["a", "b"], "values": {"a": 1}},
    {"kind": "gamma", "names": 2, "values": [[None, 0.5], [0.5, None]]},
    {"kind": "gamma", "names": ["a", "b"], "values": [[None, 10 ** 400], [0.5, None]]},
    {"kind": "gamma", "names": ["a", "b"], "values": [[None, True], [0.5, None]]},
    # "estimated" is a JSON boolean: bool() would read "no" and [0] as true
    *({"kind": "gamma", "names": ["a", "b"], "values": [[None, 0.5], [0.5, None]],
       "estimated": estimated} for estimated in ("no", [0], 0, 1, None)),
])
def test_discover_malformed_matrix_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run("discover", "--matrix", path, "--out", tmp_path / "o.json") == 2
    assert "internal error" not in capsys.readouterr().err


def test_discover_matrix_with_repeated_names_exits_2(tmp_path, capsys):
    # an order naming a variable twice is one evaluate would refuse to read
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "gamma", "names": ["a", "a"],
                                "values": [[None, 0.5], [0.5, None]]}))
    out = tmp_path / "o.json"
    assert run("discover", "--matrix", path, "--out", out) == 2
    assert capsys.readouterr().err == "error: matrix repeats names\n"
    assert not out.exists()


@pytest.mark.parametrize("doc, estimated", [({"estimated": True}, True),
                                            ({"estimated": False}, False), ({}, False)])
def test_matrix_estimated_reads_a_boolean_or_its_default(doc, estimated):
    matrix = matrix_from_dict({"kind": "gamma", "names": ["a", "b"],
                               "values": [[None, 0.5], [0.5, None]], **doc})
    assert matrix.estimated is estimated


@pytest.mark.parametrize("doc", [["x0", "x1"], {"pi_inverse": "x0x1"}, {"pi_inverse": None}])
def test_evaluate_malformed_order_exits_2(tmp_path, capsys, doc):
    truth_path = tmp_path / "t.json"
    write_json(truth_path, scm_to_dict(make_chain([1.0])))
    order_path = tmp_path / "o.json"
    order_path.write_text(json.dumps(doc))
    assert run("evaluate", "--order", order_path, "--truth", truth_path) == 2
    assert "internal error" not in capsys.readouterr().err


def test_evaluate_refuses_non_string_order_names(tmp_path, capsys):
    # 1 and true would read as the names "1" and "True" if they were turned into strings
    truth_path = tmp_path / "t.json"
    write_json(truth_path, {**scm_to_dict(make_chain([1.0])), "names": ["1", "True"]})
    order_path = tmp_path / "o.json"
    order_path.write_text(json.dumps({"pi_inverse": [1, True]}))
    assert run("evaluate", "--order", order_path, "--truth", truth_path) == 2
    assert capsys.readouterr().err == "error: order 'pi_inverse' must be a list of strings\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", ["", "\n\n"])
def test_header_only_csv_is_one_error_line(tmp_path, capsys, body):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n" + body)
    assert run("coefficients", "--data", path, "--kind", "gamma", "--out", tmp_path / "m.json") == 2
    assert capsys.readouterr().err == f"error: {path} has no data rows\n"
