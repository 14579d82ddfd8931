import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genfrac
from genfrac.cli import build_parser, main


#: 64 comma-separated ones, the tail of a 65-node instance column
ONES = ",".join("1.0" for _ in range(64))

#: what ``gronwall --random`` records for an option it was not given
RANDOM_DEFAULTS = {"T": 1.0, "N": 1024, "seeds": 100, "seed": 0}


def run(args):
    return main(args)


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "decay.kv"
    path.write_text("d = 1\nf0 = 1.0\nT = 1.0\nR = 2.0\nrhs = linear\nmatrix = -1.0\n")
    return path


class TestCatalog:
    def test_listing(self, capsys):
        assert run(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "stable" in out and "tempered" in out and "mixture" in out

    def test_describe(self, capsys):
        assert run(["catalog", "--phi", "stable:0.5"]) == 0
        out = capsys.readouterr().out
        assert "beta" in out and "0.5" in out

    def test_unknown_kind_is_usage_error(self):
        assert run(["catalog", "--phi", "gaussian:1.0"]) == 2


class TestKernels:
    def test_writes_outputs(self, tmp_path):
        out = tmp_path / "k"
        assert run(
            ["kernels", "--phi", "stable:0.5", "--T", "1.0", "--N", "64", "--out", str(out)]
        ) == 0
        assert (out / "kernels.csv").exists()
        report = json.loads((out / "kernels_report.json").read_text())
        assert report["beta"] == 0.5
        manifest = json.loads((out / "kernels_manifest.json").read_text())
        assert manifest["command"] == "kernels"
        assert manifest["tool_version"]

    @pytest.mark.parametrize("horizon", ["inf", "nan", "0", "-1"])
    def test_bad_horizon_is_usage_error(self, tmp_path, capsys, horizon):
        out = tmp_path / "k"
        assert run(
            ["kernels", "--phi", "stable:0.5", "--T", horizon, "--N", "8", "--out", str(out)]
        ) == 2
        assert "usage error: horizon must be positive and finite" in capsys.readouterr().err
        assert not (out / "kernels.csv").exists()

    def test_inversion_is_not_an_option(self, tmp_path):
        # one inversion serves every kernel; there is nothing to select
        with pytest.raises(SystemExit) as exit_info:
            run(["kernels", "--phi", "tempered:0.5,1", "--ilt", "gs:16", "--out", str(tmp_path)])
        assert exit_info.value.code == 2


class TestEigen:
    def test_series_laplace_agreement(self, tmp_path):
        out = tmp_path / "e"
        assert run(
            [
                "eigen", "--phi", "stable:0.5", "--lambda", "-1", "--T", "1.0",
                "--N", "512", "--method", "all", "--paths", "2000", "--dt", "5e-3",
                "--seed", "3", "--out", str(out),
            ]
        ) == 0
        report = json.loads((out / "eigen_report.json").read_text())
        assert report["max_abs_delta_series_laplace"] <= 1e-3
        # Monte Carlo column agrees within its own coarser allowance
        assert report["max_abs_delta_series_mc"] <= 0.05
        header = (out / "eigen.csv").read_text().splitlines()[0]
        assert header.startswith("t,series,laplace,mc")

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_usage_error(self, tmp_path, capsys, lam):
        assert run(
            ["eigen", "--phi", "stable:0.5", "--lambda", lam, "--method", "series",
             "--N", "64", "--out", str(tmp_path)]
        ) == 2
        assert "usage error" in capsys.readouterr().err

    def test_mc_overflow_is_numerical_failure(self, tmp_path, capsys):
        # the same check as `genfrac mc --estimate phiexp:...`; an unchecked
        # overflow wrote inf into the mc column and exited 0
        assert run(
            ["eigen", "--phi", "stable:0.5", "--lambda", "400", "--N", "64",
             "--method", "mc", "--paths", "200", "--dt", "2e-3", "--out", str(tmp_path)]
        ) == 1
        assert "numerical failure: exp(lam*L) overflowed" in capsys.readouterr().err

    def test_series_overflow_is_numerical_failure(self, tmp_path, capsys):
        # e(1; 30) = E_1/2(30) ~ 1e391 overflows the grid solve at N = 1024
        assert run(
            ["eigen", "--phi", "stable:0.5", "--method", "series", "--lambda", "30",
             "--out", str(tmp_path)]
        ) == 1
        assert "numerical failure: the resolvent solution overflowed" in capsys.readouterr().err

    def test_mc_non_finite_lambda_is_usage_error(self, tmp_path, capsys):
        assert run(
            ["eigen", "--phi", "stable:0.5", "--lambda", "nan", "--N", "64",
             "--method", "mc", "--paths", "100", "--dt", "1e-2", "--out", str(tmp_path)]
        ) == 2
        assert "usage error: lam must be finite" in capsys.readouterr().err

    def test_single_method(self, tmp_path):
        out = tmp_path / "e1"
        assert run(
            [
                "eigen", "--phi", "tempered:0.5,1.0", "--lambda", "1", "--T", "1.0",
                "--N", "128", "--method", "laplace", "--out", str(out),
            ]
        ) == 0
        lines = (out / "eigen.csv").read_text().splitlines()
        assert lines[0] == "t,laplace"
        assert len(lines) == 130


class TestSolve:
    def test_constant_problem(self, tmp_path):
        path = tmp_path / "zero.kv"
        path.write_text("d = 1\nf0 = 0.7\nT = 1.0\nR = 1.0\nrhs = zero\n")
        out = tmp_path / "s"
        assert run(
            ["solve", "--phi", "stable:0.5", "--problem", str(path), "--N", "128",
             "--out", str(out)]
        ) == 0
        rows = (out / "solve.csv").read_text().splitlines()[1:]
        values = {float(r.split(",")[1]) for r in rows}
        assert values == {0.7}

    def test_decay_problem_report(self, problem_file, tmp_path):
        out = tmp_path / "s2"
        assert run(
            ["solve", "--phi", "stable:0.5", "--problem", str(problem_file),
             "--N", "256", "--out", str(out)]
        ) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["segments"] >= 1
        assert 0 < report["t_prime"] <= 1.0
        assert report["holder_estimate"] > 0
        assert all(r < 1.0 for seg in report["contraction_ratios"] for r in seg)
        # no silent defaults: the resolved configuration is in the report
        assert report["config"]["tol"] == 1e-10

    def test_residual_is_worst_over_segments(self, tmp_path):
        path = tmp_path / "logistic.kv"
        path.write_text("d = 1\nf0 = 0.4\nT = 1.0\nR = 0.5\nrhs = logistic\nrate = 1.0\n")
        out = tmp_path / "s3"
        assert run(
            ["solve", "--phi", "stable:0.5", "--problem", str(path), "--N", "128",
             "--out", str(out)]
        ) == 0
        report = json.loads((out / "solve_report.json").read_text())
        problem, radius, _ = genfrac.load_problem_file(path)
        kt = genfrac.build_kernel_table(genfrac.BernsteinFunction.stable(0.5), genfrac.Grid(1.0, 128))
        _, states = genfrac.solve_to_horizon(problem, kt, radius, tol=1e-10, max_iter=200)
        residuals = [s.residual_sup for s in states]
        assert report["segments"] == len(states) > 1
        # the first segment is not the worst one here, so this pins the maximum
        assert residuals[0] < max(residuals)
        assert report["residual_sup"] == max(residuals)

    def test_missing_rhs_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "const.kv"
        path.write_text("d = 1\nf0 = 0.7\nT = 1.0\nR = 1.0\nrhs = constant\n")
        assert run(
            ["solve", "--phi", "stable:0.5", "--problem", str(path), "--N", "64",
             "--out", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "missing required key: 'xi'" in err

    @pytest.mark.parametrize(
        "lines",
        [
            "f0 = 0.0\nrhs = table\ntable_t = 1,0.5,0\ntable_v = 0,1,5\n",
            "f0 = 0.0\nrhs = table\ntable_t = 0,0.5,1\ntable_v = 0,nan,0\n",
            "f0 = nan\nrhs = logistic\nrate = 1.0\n",
        ],
        ids=["decreasing_table_t", "nan_table_v", "nan_f0"],
    )
    def test_bad_problem_values_are_usage_errors(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.kv"
        path.write_text("d = 1\nT = 1.0\nR = 20\n" + lines)
        assert run(
            ["solve", "--phi", "stable:0.5", "--problem", str(path), "--N", "64",
             "--out", str(tmp_path)]
        ) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_problem_file_is_usage_error(self, tmp_path):
        assert run(
            ["solve", "--phi", "stable:0.5", "--problem", str(tmp_path / "nope.kv"),
             "--N", "64", "--out", str(tmp_path)]
        ) == 2


class TestGronwall:
    def test_random_harness(self, tmp_path):
        out = tmp_path / "g"
        assert run(
            ["gronwall", "--phi", "stable:0.5", "--random", "--seeds", "10",
             "--T", "1.0", "--N", "128", "--out", str(out)]
        ) == 0
        verdict = json.loads((out / "gronwall_report.json").read_text())
        assert verdict["ok"] is True
        assert verdict["instances"] == 10

    def test_no_instances_is_usage_error(self, tmp_path, capsys):
        assert run(
            ["gronwall", "--phi", "stable:0.5", "--random", "--seeds", "0",
             "--N", "64", "--out", str(tmp_path)]
        ) == 2
        assert "n_instances must be >= 1" in capsys.readouterr().err

    def test_instance_file_pass(self, tmp_path):
        n = 64
        t = np.linspace(0, 1, n + 1)
        path = tmp_path / "inst.kv"
        path.write_text(
            "t = 1.0\n"
            f"x = {','.join('0.5' for _ in t)}\n"
            f"a = {','.join('1.0' for _ in t)}\n"
            f"g = {','.join('1.0' for _ in t)}\n"
        )
        out = tmp_path / "gi"
        assert run(
            ["gronwall", "--phi", "stable:0.5", "--instance", str(path), "--out", str(out)]
        ) == 0
        assert (out / "gronwall.csv").exists()

    def test_g_below_zero_by_rounding_passes(self, tmp_path):
        # the instance's hypotheses allow g >= -1e-12; the bounds must too
        ones = ",".join("1.0" for _ in range(64))
        path = tmp_path / "inst.kv"
        path.write_text(f"t = 1.0\nx = 0.5,{ones}\na = 1.0,{ones}\ng = -1e-13,{ones}\n")
        out = tmp_path / "gi"
        assert run(
            ["gronwall", "--phi", "stable:0.5", "--instance", str(path), "--out", str(out)]
        ) == 0
        assert json.loads((out / "gronwall_report.json").read_text())["ok"] is True

    def test_instance_violation_is_numerical_failure(self, tmp_path):
        n = 64
        t = np.linspace(0, 1, n + 1)
        path = tmp_path / "bad.kv"
        path.write_text(
            "t = 1.0\n"
            f"x = {','.join('50.0' for _ in t)}\n"
            f"a = {','.join('1.0' for _ in t)}\n"
            f"g = {','.join('1.0' for _ in t)}\n"
        )
        out = tmp_path / "gb"
        assert run(
            ["gronwall", "--phi", "stable:0.5", "--instance", str(path), "--out", str(out)]
        ) == 1

    def test_resolvent_overflow_is_numerical_failure(self, tmp_path, capsys):
        # g = 26 on 256 cells keeps the diagonal weight below 1, but the
        # resolvent solution overflows before t = 1
        ones, g = (",".join(v for _ in range(257)) for v in ("1.0", "26.0"))
        path = tmp_path / "inst.kv"
        path.write_text(f"t = 1.0\nx = {ones}\na = {ones}\ng = {g}\n")
        assert run(
            ["gronwall", "--phi", "stable:0.5", "--instance", str(path), "--out", str(tmp_path)]
        ) == 1
        assert "numerical failure: the resolvent solution overflowed" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["t", "x", "a", "g"])
    def test_instance_missing_key_is_usage_error(self, tmp_path, capsys, missing):
        values = ",".join("1.0" for _ in range(65))
        lines = {"t": "t = 1.0", "x": f"x = {values}", "a": f"a = {values}", "g": f"g = {values}"}
        path = tmp_path / "partial.kv"
        path.write_text("\n".join(line for key, line in lines.items() if key != missing) + "\n")
        assert run(
            ["gronwall", "--phi", "stable:0.5", "--instance", str(path), "--out", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and f"missing required key: '{missing}'" in err

    @pytest.mark.parametrize(
        "option", [["--T", "5"], ["--N", "7"], ["--seeds", "3"], ["--seed", "9"]],
        ids=["T", "N", "seeds", "seed"],
    )
    def test_instance_refuses_the_random_options(self, tmp_path, capsys, option):
        # the instance file owns the grid and nothing is drawn: an option
        # the run would ignore is refused, not recorded in the hashed config
        path = tmp_path / "inst.kv"
        path.write_text(f"t = 1.0\nx = 0.5,{ONES}\na = 1.0,{ONES}\ng = 1.0,{ONES}\n")
        out = tmp_path / "gi"
        assert run(
            ["gronwall", "--phi", "stable:0.5", "--instance", str(path), *option,
             "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and f"drop {option[0]}" in err
        assert not out.exists()

    def test_random_records_its_resolved_defaults(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gronwall", "--phi", "stable:0.5", "--random", "--out", str(out)]) == 0
        config = json.loads((out / "gronwall_report.json").read_text())["config"]
        assert {key: config[key] for key in RANDOM_DEFAULTS} == RANDOM_DEFAULTS
        assert json.loads((out / "gronwall_manifest.json").read_text())["grid"] == {
            "T": 1.0, "N": 1024,
        }

    @pytest.mark.parametrize(
        "mode", [[], ["--random", "--instance", "inst.kv"]], ids=["neither", "both"]
    )
    def test_exactly_one_mode_is_required(self, tmp_path, mode):
        with pytest.raises(SystemExit) as exit_info:
            run(["gronwall", "--phi", "stable:0.5", *mode, "--out", str(tmp_path)])
        assert exit_info.value.code == 2


class TestMc:
    def test_estimate_kinds(self, tmp_path):
        out = tmp_path / "m"
        assert run(
            ["mc", "--phi", "stable:0.5", "--paths", "300", "--dt", "2e-3",
             "--seed", "9", "--estimate", "moments:2,0.5", "--tmax", "0.5",
             "--out", str(out)]
        ) == 0
        lines = (out / "mc.csv").read_text().splitlines()
        assert len(lines) == 4  # header + k = 0, 1, 2

    def test_laplace_estimate(self, tmp_path):
        out = tmp_path / "ml"
        assert run(
            ["mc", "--phi", "tempered:0.5,1.0", "--paths", "200", "--dt", "1e-3",
             "--seed", "9", "--estimate", "laplace:0.5,1.0", "--out", str(out)]
        ) == 0
        lines = (out / "mc.csv").read_text().splitlines()
        assert lines[0] == "quantity,value,std_error,target"

    def test_non_finite_target_is_usage_error(self, tmp_path, capsys):
        assert run(
            ["mc", "--phi", "stable:0.5", "--paths", "200", "--estimate", "U:nan",
             "--out", str(tmp_path)]
        ) == 2
        assert "usage error: target nan" in capsys.readouterr().err

    def test_bad_estimate_kind(self, tmp_path):
        assert run(
            ["mc", "--phi", "stable:0.5", "--paths", "200", "--dt", "1e-3",
             "--estimate", "entropy:1", "--out", str(tmp_path)]
        ) == 2

    def test_negative_laplace_lambda_is_usage_error(self, tmp_path, capsys):
        assert run(
            ["mc", "--phi", "stable:0.5", "--paths", "200", "--estimate", "laplace:-1",
             "--out", str(tmp_path)]
        ) == 2
        assert "usage error" in capsys.readouterr().err

    def test_overflow_is_numerical_failure(self, tmp_path):
        # run as a process so that an unmapped exception would show as a traceback
        env = os.environ | {"PYTHONPATH": str(Path(genfrac.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "genfrac.cli", "mc", "--phi", "stable:0.5",
             "--paths", "200", "--estimate", "phiexp:2000,1.0", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "numerical failure" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestPhiSources:
    def test_config_file_phi(self, tmp_path):
        cfg = tmp_path / "phi.cfg"
        cfg.write_text("kind = stable\nalpha = 0.5\n")
        out = tmp_path / "k"
        assert run(
            ["kernels", "--phi", f"config:{cfg}", "--T", "1.0", "--N", "32",
             "--out", str(out)]
        ) == 0
        report = json.loads((out / "kernels_report.json").read_text())
        assert report["beta"] == 0.5

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("kind = stable\n", "alpha"),
            ("kind = tempered\nalpha = 0.5\n", "theta"),
            ("kind = mixture\nweights = 0.4,0.8\n", "alphas"),
        ],
    )
    def test_config_missing_key_is_usage_error(self, tmp_path, capsys, text, missing):
        cfg = tmp_path / "phi.cfg"
        cfg.write_text(text)
        assert run(
            ["kernels", "--phi", f"config:{cfg}", "--N", "32", "--out", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and f"missing required key: '{missing}'" in err

    @pytest.mark.parametrize(
        "spec", ["mixture:inf@0.5", "mixture:nan@0.5", "mixture:1@0.5+nan@0.3", "tempered:0.5,inf"]
    )
    def test_non_finite_phi_parameter_is_usage_error(self, tmp_path, capsys, spec):
        out = tmp_path / "k"
        assert run(["kernels", "--phi", spec, "--N", "32", "--out", str(out)]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not (out / "kernels.csv").exists()

    @pytest.mark.parametrize(
        "override", ["beta = nan", "beta = 1.5", "c_assump = -1", "t0 = 0.5", "beta = 0.5"]
    )
    def test_bad_config_override_is_usage_error(self, tmp_path, capsys, override):
        # a config file holds kind and its parameters; beta and envelope keys are unknown
        cfg = tmp_path / "phi.cfg"
        cfg.write_text(f"kind = stable\nalpha = 0.5\n{override}\n")
        out = tmp_path / "k"
        assert run(["kernels", "--phi", f"config:{cfg}", "--N", "32", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"usage error: unrecognized config keys: ['{override.partition(' ')[0]}']" in err
        assert not (out / "kernels.csv").exists()

    def test_out_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GENFRAC_OUT", str(tmp_path / "envout"))
        assert run(["kernels", "--phi", "stable:0.5", "--T", "1.0", "--N", "32"]) == 0
        assert (tmp_path / "envout" / "kernels.csv").exists()


class TestOutputs:
    """One writer: every writing command records every parsed option."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernels", "--phi", "stable:0.5", "--N", "32"],
            ["eigen", "--phi", "stable:0.5", "--lambda", "-1", "--N", "64",
             "--paths", "200", "--dt", "5e-3"],
            ["solve", "--phi", "stable:0.5", "--problem", "PROBLEM", "--N", "64"],
            ["gronwall", "--phi", "stable:0.5", "--random", "--seeds", "2", "--N", "64"],
            ["gronwall", "--phi", "stable:0.5", "--instance", "INSTANCE"],
            ["mc", "--phi", "stable:0.5", "--paths", "200", "--estimate", "U:0.5"],
        ],
        ids=["kernels", "eigen", "solve", "gronwall-random", "gronwall-instance", "mc"],
    )
    def test_config_and_hash(self, tmp_path, problem_file, argv):
        instance = tmp_path / "inst.kv"
        ones = ",".join("1.0" for _ in range(65))
        instance.write_text(f"t = 1.0\nx = {ones}\na = {ones}\ng = {ones}\n")
        argv = [
            {"PROBLEM": str(problem_file), "INSTANCE": str(instance)}.get(a, a) for a in argv
        ]
        command = argv[0]
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(argv + ["--out", str(out)]) == 0
            parsed = vars(build_parser().parse_args(argv + ["--out", str(out)]))
            parsed.pop("func")
            if "--random" in argv:
                # the harness resolves the options left unset to its defaults
                unset = {k: v for k, v in RANDOM_DEFAULTS.items() if parsed[k] is None}
                assert unset == {"T": 1.0, "seed": 0}
                parsed |= unset
            config = json.loads((out / f"{command}_report.json").read_text())["config"]
            extra = {"phi_meta"}
            if command == "solve":
                extra.add("problem_meta")
            if "--instance" in argv:
                extra.add("instance_meta")
            assert set(config) == set(parsed) | extra
            assert config["command"] == command
            assert all(config[k] == v for k, v in parsed.items())
            assert (out / f"{command}.csv").exists()
            hashes.append(json.loads((out / f"{command}_manifest.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize(
        "name, texts, argv",
        [
            ("p.kv",
             ["d = 1\nf0 = 0.4\nT = 1.0\nR = 0.5\nrhs = logistic\nrate = 1.0\n",
              "d = 1\nf0 = 0.4\nT = 1.0\nR = 0.5\nrhs = logistic\nrate = 1.1\n"],
             ["solve", "--phi", "stable:0.5", "--problem", "FILE", "--N", "64"]),
            ("inst.kv",
             [f"t = 1.0\nx = 0.5,{ONES}\na = 1.0,{ONES}\ng = 1.0,{ONES}\n",
              f"t = 1.0\nx = 0.5,{ONES}\na = 1.0,{ONES}\ng = {ONES},1.1\n"],
             ["gronwall", "--phi", "stable:0.5", "--instance", "FILE"]),
            ("phi.cfg",
             ["kind = stable\nalpha = 0.5\n", "kind = stable\nalpha = 0.6\n"],
             ["kernels", "--phi", "config:FILE", "--N", "32"]),
        ],
        ids=["solve-problem", "gronwall-instance", "phi-config"],
    )
    def test_hash_covers_what_was_read(self, tmp_path, name, texts, argv):
        # one path, two contents: the hash follows the contents
        path = tmp_path / name
        argv = [a.replace("FILE", str(path)) for a in argv]
        hashes = []
        for k, text in enumerate(texts):
            path.write_text(text)
            out = tmp_path / f"out{k}"
            assert run(argv + ["--out", str(out)]) == 0
            hashes.append(json.loads((out / f"{argv[0]}_manifest.json").read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    def test_manifest_records_the_grid_that_ran(self, tmp_path):
        problem = tmp_path / "p.kv"
        problem.write_text("d = 1\nf0 = 1.0\nT = 0.5\nR = 2.0\nrhs = linear\nmatrix = -1.0\n")
        instance = tmp_path / "inst.kv"
        instance.write_text(f"t = 2.0\nx = 0.5,{ONES}\na = 1.0,{ONES}\ng = 1.0,{ONES}\n")
        for argv, grid in (
            (["solve", "--phi", "stable:0.5", "--problem", str(problem), "--N", "64"],
             {"T": 0.5, "N": 64}),
            (["gronwall", "--phi", "stable:0.5", "--instance", str(instance)],
             {"T": 2.0, "N": 64}),
        ):
            out = tmp_path / argv[0]
            assert run(argv + ["--out", str(out)]) == 0
            assert json.loads((out / f"{argv[0]}_manifest.json").read_text())["grid"] == grid

    def test_solve_refuses_a_horizon(self, tmp_path, problem_file):
        # the problem file owns T
        with pytest.raises(SystemExit) as exit_info:
            run(["solve", "--phi", "stable:0.5", "--problem", str(problem_file), "--T", "3",
                 "--N", "64", "--out", str(tmp_path)])
        assert exit_info.value.code == 2


class TestReproducibility:
    def test_eigen_rerun_byte_identical(self, tmp_path):
        args = [
            "eigen", "--phi", "stable:0.5", "--lambda", "1", "--T", "1.0",
            "--N", "64", "--method", "all", "--paths", "500", "--dt", "5e-3",
            "--seed", "21",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "eigen.csv").read_bytes() == (b / "eigen.csv").read_bytes()
        ma = json.loads((a / "eigen_manifest.json").read_text())
        mb = json.loads((b / "eigen_manifest.json").read_text())
        assert ma["config_hash"] == mb["config_hash"]

    def test_blas_threads_keep_csv_bytes(self, tmp_path):
        # the history sums and the block solves run through BLAS and LAPACK;
        # their thread count must not move a digit.  The R = 0.05 solve has
        # short segments past node 10000, whose history is one long direct
        # convolution; the R = 0.5 solve has segments of 300-1100 cells,
        # whose sweeps are block-Toeplitz GEMMs; and the instance's 301
        # nodes span several blocks
        problems = []
        for radius in ("0.05", "0.5"):
            problems.append(tmp_path / f"logistic-{radius}.kv")
            problems[-1].write_text(
                f"d = 1\nf0 = 0.4\nT = 1.0\nR = {radius}\nrhs = logistic\nrate = 1.0\n"
            )
        t = np.linspace(0.0, 1.0, 301)
        instance = tmp_path / "inst.kv"
        instance.write_text(
            "t = 1.0\n"
            + "".join(
                f"{key} = {','.join(repr(float(v)) for v in vals)}\n"
                for key, vals in (("x", 0.9 * (0.5 + 0.5 * t)), ("a", 0.5 + 0.5 * t), ("g", 1.0 + t))
            )
        )
        commands = [
            ("eigen.csv", ["eigen", "--phi", "tempered:0.5,1.0", "--lambda", "-1",
                           "--method", "series", "--N", "4096"]),
            *(("solve.csv", ["solve", "--phi", "stable:0.5", "--problem", str(path),
                             "--N", "16384"]) for path in problems),
            ("gronwall.csv", ["gronwall", "--phi", "stable:0.5", "--instance", str(instance)]),
        ]
        for case, (csv_name, argv) in enumerate(commands):
            bodies = []
            for threads in ("1", "2"):
                out = tmp_path / f"{case}-threads{threads}"
                env = os.environ | {
                    "PYTHONPATH": str(Path(genfrac.__file__).parents[1]),
                    "OPENBLAS_NUM_THREADS": threads,
                }
                proc = subprocess.run(
                    [sys.executable, "-m", "genfrac.cli", *argv, "--out", str(out)],
                    capture_output=True, text=True, env=env, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
                bodies.append((out / csv_name).read_bytes())
            assert bodies[0] == bodies[1], argv

    def test_solve_rerun_byte_identical(self, problem_file, tmp_path):
        args = ["solve", "--phi", "stable:0.5", "--problem", str(problem_file), "--N", "128"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "solve.csv").read_bytes() == (b / "solve.csv").read_bytes()
