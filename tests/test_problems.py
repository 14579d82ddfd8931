import numpy as np
import pytest

from genfrac import (
    load_problem_file,
    make_problem,
    rhs_affine,
    rhs_linear,
    rhs_logistic,
    rhs_power,
    rhs_table,
    rhs_zero,
)


def test_logistic_metadata():
    spec = rhs_logistic(2.0)
    assert spec.c_bound(1.0) == pytest.approx(2.0 * (1.0 + 1.0))
    assert spec.lip_l(1.0) == pytest.approx(2.0 * 3.0)
    out = spec.fn(np.zeros(3), np.array([[0.0], [0.5], [1.0]]))
    assert out[:, 0] == pytest.approx([0.0, 0.5, 0.0])


def test_linear_metadata_uses_operator_norm():
    spec = rhs_linear([[0.0, -2.0], [2.0, 0.0]])
    assert spec.lip_l(3.0) == pytest.approx(2.0)
    assert spec.c_bound(3.0) == pytest.approx(6.0)


def test_affine_shapes_checked():
    with pytest.raises(ValueError):
        rhs_affine([[1.0, 0.0]], [1.0])


def test_power_odd_extension():
    spec = rhs_power(1.0, 2.0)
    out = spec.fn(np.zeros(2), np.array([[-2.0], [2.0]]))
    assert out[:, 0] == pytest.approx([-4.0, 4.0])
    with pytest.raises(ValueError):
        rhs_power(1.0, 0.5)


def test_table_forcing_interpolates():
    spec = rhs_table([0.0, 1.0], [0.0, 2.0])
    out = spec.fn(np.array([0.25, 0.5]), np.zeros((2, 1)))
    assert out[:, 0] == pytest.approx([0.5, 1.0])
    assert spec.lip_l(10.0) == 0.0


@pytest.mark.parametrize(
    "table_t, table_v, match",
    [
        ([1.0, 0.5, 0.0], [0.0, 1.0, 5.0], "strictly increasing"),
        ([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 2.0, 0.0], "strictly increasing"),
        ([0.0, np.nan, 1.0], [0.0, 1.0, 0.0], "finite"),
        ([0.0, 0.5, np.inf], [0.0, 1.0, 0.0], "finite"),
        ([0.0, 0.5, 1.0], [0.0, np.nan, 0.0], "finite"),
    ],
    ids=["decreasing", "repeated", "nan_time", "inf_time", "nan_value"],
)
def test_table_refuses_what_it_would_misread(table_t, table_v, match):
    # np.interp reads table_t = 1, 0.5, 0 with table_v = 0, 1, 5 as
    # F = 0, 5, 5, 5, 5 at t = 0, 1/4, ..., 1 where the table means 5, 3, 1, 0.5, 0
    with pytest.raises(ValueError, match=match):
        rhs_table(table_t, table_v)


def test_make_problem_checks_dimension():
    with pytest.raises(ValueError):
        make_problem(rhs_zero(2), [1.0], 1.0)


def test_problem_keeps_its_spec():
    spec = rhs_logistic(1.0)
    problem = make_problem(spec, [0.4], 1.0)
    assert problem.spec is spec
    assert problem.eval_rhs(np.zeros(1), np.array([[0.4]]))[0, 0] == pytest.approx(0.24)


@pytest.mark.parametrize("f0", [np.nan, np.inf, -np.inf])
def test_problem_refuses_a_non_finite_f0(f0):
    with pytest.raises(ValueError, match="f0 must be finite"):
        make_problem(rhs_logistic(1.0), [f0], 1.0)


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
def test_problem_refuses_a_horizon_outside_the_positive_reals(horizon):
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        make_problem(rhs_zero(1), [0.0], horizon)


def test_load_problem_file(tmp_path):
    path = tmp_path / "p.kv"
    path.write_text(
        "# logistic growth\nd = 1\nf0 = 0.4\nT = 1.0\nR = 1.0\n"
        "rhs = logistic\nrate = 1.5\n"
    )
    problem, radius, meta = load_problem_file(path)
    assert radius == 1.0
    assert problem.spec.dim == 1
    assert meta["rhs"] == "logistic"
    out = problem.eval_rhs(np.zeros(1), np.array([[0.4]]))
    assert out[0, 0] == pytest.approx(1.5 * 0.4 * 0.6)


def test_load_problem_file_vector(tmp_path):
    path = tmp_path / "p.kv"
    path.write_text(
        "d = 2\nf0 = 1.0,0.0\nT = 1.0\nR = 1.0\nrhs = linear\n"
        "matrix = 0.0,-1.0,1.0,0.0\n"
    )
    problem, _, _ = load_problem_file(path)
    assert problem.spec.dim == 2
    out = problem.eval_rhs(np.zeros(1), np.array([[1.0, 0.0]]))
    assert out[0] == pytest.approx([0.0, 1.0])


def test_load_problem_file_errors(tmp_path):
    path = tmp_path / "p.kv"
    path.write_text("d = 1\nf0 = 0.4\nT = 1.0\nR = 1.0\nrhs = pendulum\n")
    with pytest.raises(ValueError, match="unknown rhs"):
        load_problem_file(path)
    path.write_text("d = 1\nf0 = 0.4\nT = 1.0\nrhs = zero\n")
    with pytest.raises(ValueError, match="missing required"):
        load_problem_file(path)
    path.write_text("d = 1\nf0 = 0.4\nT = 1.0\nR = 1.0\nrhs = zero\nextra = 2\n")
    with pytest.raises(ValueError, match="unrecognized"):
        load_problem_file(path)


@pytest.mark.parametrize(
    "table_t, ok",
    [("0,0.5,1", True), ("-1,2", True), ("0.2,0.4", False), ("0,0.5", False),
     ("0.1,1", False)],
)
def test_load_problem_file_table_must_span_the_horizon(tmp_path, table_t, ok):
    # outside its range the table holds its end values: a table of 0.2, 0.4
    # gave F = 1, 1, 1.5, 2, 2 at t = 0, 0.1, 0.3, 0.7, 1 without a word
    path = tmp_path / "p.kv"
    values = ",".join("1" for _ in table_t.split(","))
    path.write_text(
        f"d = 1\nf0 = 0.0\nT = 1.0\nR = 1.0\nrhs = table\ntable_t = {table_t}\n"
        f"table_v = {values}\n"
    )
    if ok:
        assert load_problem_file(path)[0].spec.label == "table"
    else:
        with pytest.raises(ValueError, match=r"does not cover \[0, T=1\]"):
            load_problem_file(path)
