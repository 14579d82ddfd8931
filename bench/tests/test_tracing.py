"""The tracer's self-time arithmetic and its wrapping of genfrac."""

import itertools

import numpy as np

import genfrac as gf
from bench.tracing import Tracer


def test_self_time_subtracts_direct_children():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return tr.span("leaf", leaf) + tr.span("leaf", leaf)

    assert tr.span("root", lambda: tr.span("middle", middle)) == 2
    # clock reads: root 0..7, middle 1..6, leaves 2..3 and 4..5
    own = tr.self_times()
    assert own == {"root": 2.0, "middle": 3.0, "leaf": 2.0}
    assert tr.inclusive_times("middle") == 5.0
    assert tr.inclusive_times("leaf", unless_inside="middle") == 0.0


def test_install_wraps_every_reference_and_uninstall_restores():
    original = gf.solver.solve_to_horizon
    tr = Tracer()
    tr.install()
    try:
        assert gf.solve_to_horizon is not original
        assert gf.solver.solve_to_horizon is gf.solve_to_horizon
        kt = gf.build_kernel_table(gf.parse_phi_spec("stable:0.5"), gf.Grid(1.0, 256))
        problem = gf.make_problem(gf.rhs_logistic(1.0), [0.4], 1.0)
        _sol, states = gf.solve_to_horizon(problem, kt, 0.5)
    finally:
        tr.uninstall()
    assert gf.solve_to_horizon is original and gf.solver.solve_to_horizon is original
    assert tr.counters["solver.segments"] == len(states)
    assert tr.counters["solver.sweeps"] == sum(s.iteration_count for s in states)
    names = [s[0] for s in tr.spans]
    assert names == ["kernels.build", "solver.solve"]


def test_tempered_proposals_are_children_of_the_tempered_draw():
    tr = Tracer()
    tr.install()
    try:
        gf.sample_tempered_increment(0.5, 1.0, 1e-3, np.random.default_rng(0), size=64)
    finally:
        tr.uninstall()
    parents = {s[0]: s[1] for s in tr.spans}
    assert tr.spans[parents["mc.sample_stable"]][0] == "mc.sample_tempered"
    assert tr.inclusive_times("mc.sample_stable", unless_inside="mc.sample_tempered") == 0.0
