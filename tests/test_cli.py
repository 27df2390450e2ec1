import dataclasses
import json
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from socialpower import verification
from socialpower.analysis import transform_chain
from socialpower.cli import main
from socialpower.topology import Periodic, TopologyProgram, load_program, save_program, validate
from networks import EXPERIMENTS, interaction_set_6, near_star3, star_matrix, switching_program_6
from test_simulate_checks import edge_program, edge_starts
from test_solvers import near_star

# `verify experiments/group6_random.json --samples 200`, exactly as printed
GROUP6_VERIFY_200 = """\
matrix 1 jacobian_finite_difference: pass, worst margin 5.358e-16
matrix 1 contraction_certificate: pass, worst margin 2.750e-03 (worst structural deviation 3.33e-16)
matrix 1 opinion_oracle_equivalence: pass, worst margin 4.025e-16
matrix 1 boundary_contraction_step: pass, worst margin -5.821e-12
matrix 2 jacobian_finite_difference: pass, worst margin 7.659e-16
matrix 2 contraction_certificate: pass, worst margin 2.044e-02 (worst structural deviation 2.78e-16)
matrix 2 opinion_oracle_equivalence: pass, worst margin 6.349e-16
matrix 2 boundary_contraction_step: pass, worst margin -2.588e-12
matrix 3 jacobian_finite_difference: pass, worst margin 7.702e-16
matrix 3 contraction_certificate: pass, worst margin 1.233e-01 (worst structural deviation 3.33e-16)
matrix 3 opinion_oracle_equivalence: pass, worst margin 8.049e-16
matrix 3 boundary_contraction_step: pass, worst margin -3.326e-12
matrix 4 jacobian_finite_difference: pass, worst margin 5.351e-16
matrix 4 contraction_certificate: pass, worst margin 8.120e-02 (worst structural deviation 3.33e-16)
matrix 4 opinion_oracle_equivalence: pass, worst margin 7.563e-16
matrix 4 boundary_contraction_step: pass, worst margin -2.996e-12
matrix 5 jacobian_finite_difference: pass, worst margin 7.546e-16
matrix 5 contraction_certificate: pass, worst margin 8.896e-03 (worst structural deviation 4.44e-16)
matrix 5 opinion_oracle_equivalence: pass, worst margin 4.710e-16
matrix 5 boundary_contraction_step: pass, worst margin -1.614e-13
"""


SVG = "http://www.w3.org/2000/svg"


def exit_and_stderr(argv, capsys):
    """main's exit code and stderr; an exception escaping main, which the
    console script would print as a traceback, fails the test."""
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001
        pytest.fail(f"main raised {type(exc).__name__}: {exc}")
    return code, capsys.readouterr().err


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.json"
    save_program(switching_program_6(seed=20170825), path)
    return path


@pytest.fixture
def near_star_file(tmp_path):
    # gamma_1 lies within Tolerances.star_gamma of 1/2, where its radius
    # formula (1 - 2 gamma_1)/(1 - gamma_1) is still about 2e-9
    path = tmp_path / "near_star.json"
    save_program(TopologyProgram((validate(near_star3(2e-9)),), Periodic((0,))), path)
    return path


@pytest.fixture
def periodic_setup(tmp_path):
    matrices = tuple(validate(m) for m in interaction_set_6()[1:3])
    program_path = tmp_path / "periodic_program.json"
    save_program(TopologyProgram(matrices, Periodic((0, 1))), program_path)
    config = {
        "program": "periodic_program.json",
        "issues": 120,
        "burn_in": 40,
        "initial_condition": [0.9, 0.02, 0.02, 0.02, 0.02, 0.02],
    }
    config_path = tmp_path / "periodic.json"
    config_path.write_text(json.dumps(config))
    return config_path


@pytest.fixture
def simulate_config(tmp_path, program_file):
    config = {
        "program": "program.json",
        "issues": 100,
        "seed": 20170825,
        "initial_conditions": {
            "hat": [0.95, 0.95, 0.95, 0.0, 0.0, 0.0],
            "tilde": [0.05, 0.05, 0.05, 0.9, 0.05, 0.9],
        },
    }
    path = tmp_path / "simulate.json"
    path.write_text(json.dumps(config))
    return path


class TestSimulate:
    def test_runs_and_writes_outputs(self, simulate_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 0
        assert (out / "run_hat.csv").exists()
        assert (out / "run_tilde.csv").exists()
        assert (out / "limit_gap.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["bound_violation_count"] == 0
        assert report["final_gap"] <= 1e-6
        assert 0 < report["min_contraction_margin"] < 1

    def test_deterministic_given_seed(self, simulate_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(simulate_config), "--out", str(out1)])
        main(["simulate", "--config", str(simulate_config), "--out", str(out2)])
        assert (out1 / "run_hat.csv").read_text() == (out2 / "run_hat.csv").read_text()
        assert (out1 / "limit_gap.csv").read_text() == (out2 / "limit_gap.csv").read_text()

    def test_seed_on_non_random_signal_rejected(self, tmp_path, capsys):
        config = {
            "program": str(EXPERIMENTS / "group6_alternating.json"),
            "issues": 10,
            "seed": 5,
            "initial_conditions": {"flat": [1 / 6] * 6},
        }
        path = tmp_path / "simulate.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "not to a periodic one" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_flat.csv").exists()

    def test_vertex_initial_condition(self, tmp_path, program_file):
        config = {
            "program": "program.json",
            "issues": 10,
            "burn_in": 5,
            "initial_conditions": {"autocrat": "vertex:3"},
        }
        path = tmp_path / "v.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        # e_3 is a fixed point above individual 3's bound: the 5 states
        # after the burn-in each count as a violation
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["bound_violation_count"] == 5
        assert report["bound_checked_states"] == 5
        rows = (out / "run_autocrat.csv").read_text().strip().split("\n")
        last = [float(v) for v in rows[-1].split(",")]
        assert last[2 + 2] == 1.0  # individual 3 holds all power

    def test_runs_all_held_at_a_vertex_take_no_margin(self, tmp_path, capsys):
        # no state after the start is interior, so no margin is taken: null,
        # printed n/a; a free run among them gives its margin again
        def run(starts):
            config = {"program": str(EXPERIMENTS / "group6_random.json"), "issues": 10, "burn_in": 5,
                      "initial_conditions": starts}
            path = tmp_path / "held.json"
            path.write_text(json.dumps(config))
            out = tmp_path / "out"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
            return json.loads((out / "report.json").read_text())["min_contraction_margin"], \
                capsys.readouterr().out

        margin, stdout = run({"a": "vertex:1", "b": "vertex:2"})
        assert margin is None
        assert stdout == "simulate: 2 run(s), 10 issues, 10 bound violations, min margin n/a\n"
        margin, stdout = run({"a": "vertex:1", "b": "vertex:2", "c": [1 / 6] * 6})
        assert 0 < margin < 1 and stdout.endswith(f"min margin {margin:.4f}\n")

    def test_start_near_a_vertex_names_run_and_issue(self, tmp_path, capsys):
        # admissible, at the guard's edge, but the near-star's hub rounds
        # past it at issue 1, the last, which simulate does not map: the
        # margin is not defined there
        save_program(edge_program(), tmp_path / "program.json")
        config = {"program": "program.json", "issues": 1,
                  "initial_conditions": {"free": [1 / 6] * 6, "edge": edge_starts()[0].tolist()}}
        (tmp_path / "edge.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "edge.json"), "--out", str(out)]) == 1
        assert "run 'edge', issue 1: state within 1e-14 of a vertex" in capsys.readouterr().err
        assert not out.exists()

    def test_start_within_the_map_guard_names_issue_one(self, simulate_config, tmp_path, capsys):
        # too close to e_1 for the map itself: the first issue cannot be applied
        doc = json.loads(simulate_config.read_text())
        doc["initial_conditions"]["edge"] = [0.999999999999999, 1e-15, 0, 0, 0, 0]
        simulate_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 1
        assert "run 'edge', issue 1: state within 1e-14 of a vertex" in capsys.readouterr().err
        assert not out.exists()

    def test_star_program_exits_before_any_output(self, tmp_path, capsys):
        # gamma = (1/2, 1/4, 1/4): the bound every run is checked against is
        # undefined at the star's centre, so nothing is written (analyze
        # reports the same bound as null, with a note)
        save_program(TopologyProgram((validate(star_matrix(3)),), Periodic((0, 0))), tmp_path / "star.json")
        config = tmp_path / "star_run.json"
        config.write_text(json.dumps({"program": "star.json", "initial_conditions": {"a": [0.2, 0.3, 0.5]}}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "bound undefined at a star centre (gamma_i = 0.5)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("issues, checked", [(25, 10), (21, 2), (20, 0), (5, 0)])
    def test_counts_states_checked_against_the_bound(self, simulate_config, tmp_path, capsys,
                                                     issues, checked):
        # the default burn_in is 20; two runs, each checked at s = 21 ... issues:
        # (issues - burn_in) * runs states, or none
        doc = json.loads(simulate_config.read_text())
        simulate_config.write_text(json.dumps({**doc, "issues": issues}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["bound_checked_states"] == checked
        err = capsys.readouterr().err
        warned = f"burn_in 20 >= issues {issues}: no state was checked" in err
        assert warned == (checked == 0)

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("key", ["program", "initial_conditions"])
    def test_missing_key_is_config_error(self, simulate_config, tmp_path, capsys, key):
        config = json.loads(simulate_config.read_text())
        del config[key]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "partial.json" in err

    def test_misspelt_key_rejected(self, simulate_config, tmp_path, capsys):
        # "isues" would otherwise leave the run at the default 100 issues
        doc = json.loads(simulate_config.read_text())
        doc["isues"] = doc.pop("issues")
        simulate_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {simulate_config}: unknown key(s) 'isues'; ")
        assert captured.out == ""
        assert not out.exists()

    def test_empty_initial_conditions_is_config_error(self, tmp_path, capsys):
        # forgetting.json with no run: nothing is simulated, checked or written
        config = json.loads((EXPERIMENTS / "forgetting.json").read_text())
        config.update(program=str(EXPERIMENTS / config["program"]), initial_conditions={})
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: 'initial_conditions' names no run\n"
        assert captured.out == ""
        assert not out.exists()

    def test_internal_key_error_propagates(self, simulate_config, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr("socialpower.cli.max_gamma_profile", broken)
        with pytest.raises(KeyError):
            main(["simulate", "--config", str(simulate_config), "--out", str(tmp_path / "out")])

    def test_tol_flag_removed(self, simulate_config, tmp_path):
        # simulate never read --tol; argparse now rejects it as unknown
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(simulate_config), "--out", str(tmp_path), "--tol", "1"])
        assert exc.value.code == 2

    def test_plot_command_removed(self, tmp_path, capsys):
        # simulate draws the charts from its own run; argparse rejects `plot`
        with pytest.raises(SystemExit) as exc:
            main(["plot", str(tmp_path / "run_hat.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'plot'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["x/y", "x\\y", "x\0y", "a\x01b", "a\tb", "a\ud800b"])
    def test_run_name_that_is_no_file_name_rejected(self, simulate_config, tmp_path, capsys, name):
        # the run becomes run_<name>.csv: checked with the config, before any file
        doc = json.loads(simulate_config.read_text())
        doc["initial_conditions"][name] = doc["initial_conditions"]["hat"]
        simulate_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {simulate_config}: run name {name!r} contains "
                                "'/', '\\', a control character or a surrogate\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("length, code", [(247, 0), (248, 2)])
    def test_run_name_bounded_by_a_file_name(self, simulate_config, tmp_path, capsys, length, code):
        # run_<name>.csv may take the 255 bytes a file name has, and no more
        doc = json.loads(simulate_config.read_text())
        name = "a" * length
        doc["initial_conditions"][name] = doc["initial_conditions"].pop("tilde")
        simulate_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == code
        if code == 0:
            assert (out / f"run_{name}.csv").exists()
        else:
            assert capsys.readouterr().err == (f"error: {simulate_config}: run name {name!r} makes "
                                               "run_<name>.csv longer than 255 bytes\n")
            assert not out.exists()

    def test_run_name_is_escaped_in_charts(self, simulate_config, tmp_path):
        doc = json.loads(simulate_config.read_text())
        doc["plot"] = True
        doc["initial_conditions"] = {"a&b<c": doc["initial_conditions"]["hat"],
                                     "tilde": doc["initial_conditions"]["tilde"]}
        simulate_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 0
        texts = {chart: [t.text for t in ET.parse(out / chart).iter(f"{{{SVG}}}text")]
                 for chart in ("run_a&b<c.svg", "comparison.svg")}
        assert "Social power evolution: run_a&b<c" in texts["run_a&b<c.svg"]
        assert "run_a&b<c x_1" in texts["comparison.svg"]

    def test_single_run_skips_comparison(self, simulate_config, tmp_path, capsys):
        doc = json.loads(simulate_config.read_text())
        doc["plot"] = True
        del doc["initial_conditions"]["tilde"]
        simulate_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [f"wrote {out / 'run_hat.svg'}",
                                                            "single run: comparison chart skipped"]
        assert sorted(p.name for p in out.glob("*.svg")) == ["run_hat.svg"]

    def test_comparison_of_runs_held_off_its_coordinates(self, tmp_path, program_file, capsys):
        # both runs held at e_2 give x_1 = x_4 = x_6 = 0, the comparison's
        # coordinates, at every issue: the y axis runs up to the 1e-12 floor
        config = {"program": "program.json", "issues": 5, "burn_in": 5, "plot": True,
                  "initial_conditions": {"a": "vertex:2", "b": "vertex:2"}}
        path = tmp_path / "held.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code, _ = exit_and_stderr(["simulate", "--config", str(path), "--out", str(out)], capsys)
        assert code == 0
        ticks = [t.text for t in ET.parse(out / "comparison.svg").iter(f"{{{SVG}}}text")
                 if t.get("text-anchor") == "end"]
        assert ticks == ["0", "2e-13", "4e-13", "6e-13", "8e-13", "1e-12"]

    def test_env_var_out_dir(self, simulate_config, tmp_path, monkeypatch):
        # no environment variable sets the output directory: without --out
        # it is the working directory
        env_out = tmp_path / "envout"
        monkeypatch.setenv("SOCIALPOWER_OUT", str(env_out))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(simulate_config)]) == 0
        assert (tmp_path / "report.json").exists()
        assert not env_out.exists()


class TestAnalyze:
    def test_example_group_program(self, program_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", str(program_file), "--out", str(out)]) == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["n"] == 6
        assert doc["matrix_count"] == 5
        profile = np.array(doc["max_gamma_profile"])
        assert np.abs(profile - [0.4737, 0.2371, 0.2439, 0.2439, 0.2439, 0.2392]).max() <= 5e-5
        bound = np.array(doc["equilibrium_upper_bound"])
        assert np.abs(bound - [0.9, 0.3108, 0.3226, 0.3226, 0.3226, 0.3144]).max() <= 1e-3
        assert doc["convergence_rate"] == "not applicable"
        assert doc["vertex_stability"][0]["individual"] == 1
        assert all(not entry["is_star"] for entry in doc["star"])
        assert capsys.readouterr().out == (out / "analysis.json").read_text()

    def test_star_program_omits_bound(self, tmp_path):
        path = tmp_path / "star.json"
        save_program(
            TopologyProgram((validate(star_matrix(5, center=1)),), Periodic((0, 0))),
            path,
        )
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["equilibrium_upper_bound"] is None
        assert "equilibrium_upper_bound_note" in doc
        assert doc["star"][0]["is_star"] and doc["star"][0]["center"] == 2

    def test_near_star_centre_has_radius_zero(self, near_star_file, tmp_path):
        # one star rule: the centre that `at_star` finds has an empty band
        out = tmp_path / "out"
        assert main(["analyze", str(near_star_file), "--out", str(out)]) == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["star"] == [{"is_star": True, "center": 1}]
        assert doc["equilibrium_upper_bound"] is None
        assert doc["vertex_stability"][0]["stability"] == "asymptotically_stable_not_exponential"
        assert doc["contraction_radii"][0] == 0.0
        assert min(doc["contraction_radii"][1:]) > 0.6

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2


class TestPeriodicCommand:
    def test_verifies_two_phase_limit(self, periodic_setup, tmp_path):
        out = tmp_path / "out"
        assert main(["periodic", "--config", str(periodic_setup), "--out", str(out)]) == 0
        doc = json.loads((out / "periodic.json").read_text())
        assert doc["period"] == 2
        assert doc["verified"] is True
        assert doc["worst_deviation"] <= 1e-8
        assert max(doc["chain_residuals"]) <= 1e-12
        for y in doc["fixed_points"]:
            assert abs(sum(y) - 1) <= 1e-12

    @pytest.mark.parametrize("which", ["group6_alternating", "near_star"])
    def test_cycle_rate_bound_bounds_the_cycle_spectral_radius(self, tmp_path, which):
        # the cycle's Jacobian is similar to H(y_0) H(y_{P-1}) ... H(y_1);
        # its spectral radius, from an eigensolve here only, is at most the
        # reported product of the ||H(y_p)||_1
        if which == "near_star":  # hubs at node 1, gamma_hub = w/(1 + w) = 0.487
            matrices = tuple(validate(near_star(6, 0.95, np.random.default_rng(s))) for s in (1, 2))
            program = tmp_path / "near_star.json"
            save_program(TopologyProgram(matrices, Periodic((0, 1))), program)
            config = {"program": str(program), "issues": 1000, "burn_in": 800}
        else:
            config = json.loads((EXPERIMENTS / "alternating.json").read_text())
            config["program"] = str(EXPERIMENTS / config["program"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["periodic", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "periodic.json").read_text())
        ys = [np.array(y) for y in doc["fixed_points"]]
        product = np.eye(ys[0].size)
        for y in ys[:1] + ys[:0:-1]:
            product = product @ transform_chain(y)[1]
        rho = np.abs(np.linalg.eigvals(product)).max()
        bound = doc["cycle_rate_bound"]
        assert rho <= bound < 1.0
        if which == "near_star":  # both approach 1 as the hubs approach a star
            assert 0.9 < rho and 0.99 < bound

    def test_missing_program_is_config_error(self, periodic_setup, tmp_path, capsys):
        config = json.loads(periodic_setup.read_text())
        del config["program"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(config))
        assert main(["periodic", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "'program'" in err and "partial.json" in err

    def test_simulate_key_rejected(self, periodic_setup, tmp_path, capsys):
        # periodic runs one start, "initial_condition"; the plural is simulate's
        doc = json.loads(periodic_setup.read_text())
        doc["initial_conditions"] = {"a": doc.pop("initial_condition")}
        periodic_setup.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["periodic", "--config", str(periodic_setup), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {periodic_setup}: unknown key(s) 'initial_conditions'; ")
        assert captured.out == ""
        assert not out.exists()

    def test_zero_tol_is_not_the_default(self, periodic_setup, tmp_path, capsys):
        # after a burn-in of 20 the run is still ~1e-11 off the limit:
        # within Tolerances.periodic_limit, though not exactly on it
        config = json.loads(periodic_setup.read_text())
        config["burn_in"] = 20
        path = periodic_setup.with_name("short_burn_in.json")
        path.write_text(json.dumps(config))
        argv = ["periodic", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert ", verified" in capsys.readouterr().out
        assert 0 < json.loads((tmp_path / "out" / "periodic.json").read_text())["worst_deviation"]

    def test_run_within_burn_in_rejected(self, tmp_path, capsys):
        # alternating.json has a burn-in of 40: 1 or 40 issues leave no state
        # to compare, since the states s = 41 ... issues are compared; nor
        # does a burn-in of 120 on its 120 issues
        config = json.loads((EXPERIMENTS / "alternating.json").read_text())
        config["program"] = str(EXPERIMENTS / config["program"])
        for issues, burn_in in ((1, 40), (40, 40), (120, 120)):
            config["issues"], config["burn_in"] = issues, burn_in
            path = tmp_path / "alternating.json"
            path.write_text(json.dumps(config))
            out = tmp_path / "out"
            assert main(["periodic", "--config", str(path), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert f"{issues} issues, burn-in {burn_in}" in captured.err
            assert "verified" not in captured.out
            assert not out.exists()

    def test_order_past_matrix_list_rejected(self, tmp_path, capsys):
        doc = json.loads((EXPERIMENTS / "group6_alternating.json").read_text())
        doc["signal"]["order"] = [1, 3]
        (tmp_path / "program.json").write_text(json.dumps(doc))
        config = tmp_path / "periodic.json"
        config.write_text(json.dumps({"program": "program.json"}))
        assert main(["periodic", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_non_periodic_program_rejected(self, tmp_path, program_file):
        config = {"program": "program.json"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["periodic", "--config", str(path)]) == 1


@pytest.mark.parametrize("command", ["simulate", "periodic"])
def test_explicit_zero_issues_is_not_the_config_count(
    command, simulate_config, periodic_setup, tmp_path, capsys
):
    # a config's "issues": 0 is read as 0, not replaced by the default count
    config = simulate_config if command == "simulate" else periodic_setup
    config.write_text(json.dumps({**json.loads(config.read_text()), "issues": 0}))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "need at least one issue" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--seed", "7"),
    ("simulate", "--issues", "5"),
    ("periodic", "--issues", "1"),
    ("periodic", "--tol", "inf"),
])
def test_config_and_ledger_flags_removed(
    command, flag, value, simulate_config, periodic_setup, tmp_path, capsys
):
    # run settings come from the config alone, thresholds from Tolerances alone
    config = simulate_config if command == "simulate" else periodic_setup
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


class TestMalformedProgram:
    def _edit(self, program_file, change):
        doc = json.loads(program_file.read_text())
        change(doc)
        program_file.write_text(json.dumps(doc))

    def test_negative_seed_in_file_rejected(self, simulate_config, program_file, tmp_path, capsys):
        self._edit(program_file, lambda doc: doc["signal"].update(seed=-1))
        assert main(["simulate", "--config", str(simulate_config), "--out", str(tmp_path / "out")]) == 1
        assert "random seed -1 is negative" in capsys.readouterr().err

    def test_negative_seed_in_config_rejected(self, simulate_config, tmp_path, capsys):
        simulate_config.write_text(json.dumps({**json.loads(simulate_config.read_text()), "seed": -1}))
        argv = ["simulate", "--config", str(simulate_config), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "random seed -1 is negative" in capsys.readouterr().err

    def test_non_numeric_entry_rejected(self, program_file, tmp_path, capsys):
        self._edit(program_file, lambda doc: doc["matrices"][0][0].__setitem__(1, "a"))
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 1
        assert "not a rectangular array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix, entry", [
        ([["0", "0.5", "0.5"], [0.5, 0, 0.5], [0.5, 0.5, 0]], "(1,1) = '0'"),
        ([[False, True, False], [False, False, True], [True, False, False]], "(1,1) = False"),
    ])
    def test_strings_and_booleans_rejected(self, tmp_path, capsys, matrix, entry):
        # float() would read "0.5" as 0.5 and true as 1
        path = tmp_path / "program.json"
        path.write_text(json.dumps({"n": 3, "matrices": [matrix], "signal": {"kind": "constant", "index": 1}}))
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"entry {entry} is not a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ragged_matrix_rejected(self, program_file, tmp_path, capsys):
        self._edit(program_file, lambda doc: doc["matrices"][0][0].pop())
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 1
        assert "not a rectangular array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [5, 7, 6.0, "6", True, None])
    def test_n_must_be_the_matrix_dimension(self, program_file, tmp_path, capsys, n):
        self._edit(program_file, lambda doc: doc.update(n=n))
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 2
        assert (f"error: {program_file}: 'n' must be a JSON integer equal to the matrix "
                f"dimension, got {n!r} for matrices of n = 6\n") == capsys.readouterr().err

    def test_missing_n_rejected(self, program_file, tmp_path, capsys):
        self._edit(program_file, lambda doc: doc.pop("n"))
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 2
        assert "expected fields 'n', 'matrices', 'signal'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [6, 5])
    def test_non_square_matrix_is_a_domain_error(self, program_file, tmp_path, capsys, n):
        # the matrices are validated before n is compared with them
        def drop_last_column(doc):
            doc["n"] = n
            for row in doc["matrices"][0]:
                row.pop()

        self._edit(program_file, drop_last_column)
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 1
        assert "expected a square matrix, got shape (6, 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_the_double_range_is_not_finite(self, program_file, tmp_path, capsys,
                                                           command, sign):
        # float() overflows on it; it reads as inf, as 1e999 does
        self._edit(program_file, lambda doc: doc["matrices"][1][0].__setitem__(1, "BIG"))
        program_file.write_text(program_file.read_text().replace('"BIG"', sign + "1" + "0" * 400))
        argv = ["analyze", str(program_file), "--out", str(tmp_path / "out")] if command == "analyze" \
            else ["verify", str(program_file), "--samples", "5"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: matrix 2: entry (1,2) = {sign}inf is not finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key", [("periodic", "order"), ("scripted", "sequence")])
    def test_index_string_is_not_a_list(self, program_file, tmp_path, capsys, kind, key):
        # "12" would otherwise be split into its characters, indices 1 and 2
        self._edit(program_file, lambda doc: doc.update(signal={"kind": kind, key: "12"}))
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 2
        assert f"'{key}' must be a list" in capsys.readouterr().err

    def test_unknown_signal_kind_rejected(self, program_file, tmp_path, capsys):
        self._edit(program_file, lambda doc: doc.update(signal={"kind": "markov"}))
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: unknown signal kind 'markov'\n"

    def test_duplicate_signal_rejected(self, program_file, tmp_path, capsys):
        # json would keep the second signal silently
        text = program_file.read_text().rstrip()
        program_file.write_text(text[:-1] + ', "signal": {"kind": "constant", "index": 1}}\n')
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {program_file}: duplicate key 'signal'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("constant", "index", 1.7),
        ("periodic", "order", [1.7, 2]),
        ("scripted", "sequence", [1, "2"]),
        ("random", "seed", True),
    ])
    def test_non_integer_index_rejected(self, program_file, tmp_path, capsys, kind, key, value):
        # int() would truncate 1.7 to 1 and read true and "2" as 1 and 2
        self._edit(program_file, lambda doc: doc.update(signal={"kind": kind, key: value}))
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "out")]) == 2
        assert f"'{key}' needs integers" in capsys.readouterr().err


class TestMalformedConfig:
    @staticmethod
    def _rewrite(config_path, change):
        doc = json.loads(config_path.read_text())
        change(doc)
        path = config_path.parent / "edited.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("value", [1.7, "2", True, None])
    @pytest.mark.parametrize("key", ["issues", "burn_in", "seed"])
    def test_simulate_setting_needs_integer(self, simulate_config, tmp_path, capsys, key, value):
        # int() would truncate 1.7 to 1 and read "2" and true as 2 and 1
        path = self._rewrite(simulate_config, lambda doc: doc.update({key: value}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' needs integers" in err and "edited.json" in err

    @pytest.mark.parametrize("value", [1.7, "2", True, None])
    @pytest.mark.parametrize("key", ["issues", "burn_in"])
    def test_periodic_setting_needs_integer(self, periodic_setup, tmp_path, capsys, key, value):
        path = self._rewrite(periodic_setup, lambda doc: doc.update({key: value}))
        assert main(["periodic", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' needs integers" in err and "edited.json" in err

    @pytest.mark.parametrize("value", ["no", "true", 1, 0, None])
    def test_plot_must_be_a_boolean(self, simulate_config, tmp_path, capsys, value):
        path = self._rewrite(simulate_config, lambda doc: doc.update(plot=value))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: 'plot' must be true or false, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "periodic"])
    def test_negative_burn_in_rejected(self, command, simulate_config, periodic_setup, tmp_path, capsys):
        # simulate would check only states[-2:]; periodic would compare from
        # state 1 and report the negative value as its burn-in
        config = simulate_config if command == "simulate" else periodic_setup
        path = self._rewrite(config, lambda doc: doc.update(burn_in=-3))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert "edited.json: burn_in must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        ["a", 0.1, 0.1, 0.1, 0.1, 0.1],
        {"a": 1},
        "vertex:x",
        [[0.5, 0.1, 0.1, 0.1, 0.1, 0.1]],
    ])
    def test_malformed_initial_condition(self, simulate_config, tmp_path, capsys, spec):
        path = self._rewrite(simulate_config, lambda doc: doc["initial_conditions"].update(odd=spec))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "initial condition 'odd'" in err and "edited.json" in err
        assert not (tmp_path / "out" / "run_hat.csv").exists()

    @pytest.mark.parametrize("spec, message", [
        ([0.5, 0.1, 0.1, 0.1, 0.1], "initial condition 'odd' has shape (5,), expected (6,)"),
        ("vertex:7", "initial condition 'odd': vertex index 7 out of 1..6"),
    ])
    def test_initial_condition_of_wrong_size(self, simulate_config, tmp_path, capsys, spec, message):
        path = self._rewrite(simulate_config, lambda doc: doc["initial_conditions"].update(odd=spec))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("digits, shown", [("9" * 5000, "9" * 5000), ("0" * 5000 + "7", "7")],
                             ids=["nines", "leading-zeros"])
    def test_vertex_index_beyond_the_digit_limit(self, simulate_config, tmp_path, capsys, digits, shown):
        # int() refuses a string of more than 4300 digits, leading zeros included
        path = self._rewrite(simulate_config, lambda doc: doc["initial_conditions"].update(
            odd="vertex:" + digits))
        out = tmp_path / "out"
        code, err = exit_and_stderr(["simulate", "--config", str(path), "--out", str(out)], capsys)
        assert (code, err) == (1, f"error: initial condition 'odd': vertex index {shown} out of 1..6\n")
        assert not out.exists()

    def test_vertex_index_with_leading_zeros_beyond_the_digit_limit(self, simulate_config, tmp_path,
                                                                    capsys):
        path = self._rewrite(simulate_config, lambda doc: doc.update(
            burn_in=100, initial_conditions={"odd": "vertex:" + "0" * 5000 + "3"}))
        out = tmp_path / "out"
        assert exit_and_stderr(["simulate", "--config", str(path), "--out", str(out)], capsys)[0] == 0
        last = (out / "run_odd.csv").read_text().splitlines()[-1].split(",")
        assert [float(v) for v in last[2:]] == [0, 0, 1, 0, 0, 0]

    @pytest.mark.parametrize("spec, problem", [
        ([1.0, 0.2, 0, 0, 0, 0], "requires 0 <= x_i < 1 for all i"),
        ([0, 0, 0, 0, 0, 0], "needs at least one x_j > 0"),
        ([0.5, 1e999, 0, 0, 0, 0], "entry 2 = inf is not finite"),
    ])
    def test_inadmissible_start_names_its_run(self, simulate_config, tmp_path, capsys, spec, problem):
        # the run is named as every other per-run error names it, not by its row
        path = self._rewrite(simulate_config, lambda doc: doc["initial_conditions"].update(odd=spec))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: initial condition 'odd' {problem}\n"
        assert not (tmp_path / "out").exists()

    def test_start_with_an_integer_beyond_the_double_range_names_its_run(self, simulate_config, tmp_path,
                                                                       capsys):
        # float() overflows on it; it reads as inf, as 1e999 does
        path = self._rewrite(simulate_config, lambda doc: doc["initial_conditions"].update(
            odd=[0.5, "BIG", 0, 0, 0, 0]))
        path.write_text(path.read_text().replace('"BIG"', "1" + "0" * 400))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: initial condition 'odd' entry 2 = inf is not finite\n"
        assert not (tmp_path / "out").exists()

    def test_nested_periodic_initial_condition(self, periodic_setup, tmp_path, capsys):
        path = self._rewrite(periodic_setup, lambda doc: doc.update(
            initial_condition=[doc["initial_condition"]]))
        assert main(["periodic", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "initial condition must be a flat list" in capsys.readouterr().err

    def test_null_periodic_initial_condition_is_not_the_default(self, periodic_setup, tmp_path, capsys):
        path = self._rewrite(periodic_setup, lambda doc: doc.update(initial_condition=None))
        assert main(["periodic", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "initial condition must be a flat list of numbers or \"vertex:k\", got None" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("edit, key", [
        (lambda text: text[:-1] + ', "issues": 3}', "issues"),
        (lambda text: text.replace('"tilde"', '"hat"'), "hat"),
    ])
    def test_duplicate_key_rejected(self, simulate_config, tmp_path, capsys, edit, key):
        # json would keep the last value: 3 issues, or one run named hat
        simulate_config.write_text(edit(simulate_config.read_text()))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {simulate_config}: duplicate key {key!r}\n"
        assert not out.exists()

    def test_initial_conditions_must_be_an_object(self, simulate_config, tmp_path, capsys):
        path = self._rewrite(simulate_config, lambda doc: doc.update(
            initial_conditions=list(doc["initial_conditions"].values())))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: 'initial_conditions' must map run names "
                                           "to starts\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "periodic"])
    @pytest.mark.parametrize("text", ['"program"', "123"])
    def test_config_that_is_no_object_rejected(self, tmp_path, capsys, command, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: expected a JSON object, got {json.loads(text)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "periodic"])
    def test_program_must_be_a_file_name(self, command, simulate_config, periodic_setup, tmp_path, capsys):
        config = simulate_config if command == "simulate" else periodic_setup
        path = self._rewrite(config, lambda doc: doc.update(program=5))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: 'program' must be a file name, got 5\n"
        assert not out.exists()


class TestUnreadableJson:
    """Text that `json` cannot turn into a document is a ParseError that
    names the file, in program files and config files alike."""

    CASES = {
        # Python converts no integer of more than 4300 digits; no message
        # may repr one, which raises the same ValueError
        "digits": (lambda text: text[:-1] + ', "extra": 1' + "0" * 5000 + "}",
                   "Exceeds the limit (4300 digits) for integer string conversion"),
        "nesting": (lambda text: "[" * 100_000 + "]" * 100_000,
                    "maximum recursion depth exceeded while decoding a JSON array"),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("command", ["analyze", "verify", "simulate", "periodic"])
    def test_parse_error_names_the_file(self, program_file, simulate_config, periodic_setup, tmp_path,
                                        capsys, command, case):
        edit, message = self.CASES[case]
        path = {"analyze": program_file, "verify": program_file,
                "simulate": simulate_config, "periodic": periodic_setup}[command]
        path.write_text(edit(path.read_text().rstrip()))
        out = tmp_path / "out"
        argv = {"analyze": ["analyze", str(path), "--out", str(out)],
                "verify": ["verify", str(path), "--samples", "5"]}.get(
            command, [command, "--config", str(path), "--out", str(out)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestCountsBeyondTheAddressSpace:
    """A count whose arrays need more than 2^47 bytes, more than a process
    can address, exits 1 naming it, where numpy would raise; no smaller
    count is tried, since numpy might start to fill memory for one."""

    @pytest.mark.parametrize("issues", [10**16, 10**30])
    def test_simulate_issues(self, simulate_config, tmp_path, capsys, issues):
        simulate_config.write_text(json.dumps({**json.loads(simulate_config.read_text()), "issues": issues}))
        out = tmp_path / "out"
        code, err = exit_and_stderr(["simulate", "--config", str(simulate_config), "--out", str(out)], capsys)
        assert (code, err) == (1, f"error: issues = {issues} is too large: the run needs more than 2^47 bytes\n")
        assert not out.exists()

    def test_periodic_issues(self, periodic_setup, tmp_path, capsys):
        periodic_setup.write_text(json.dumps({**json.loads(periodic_setup.read_text()), "issues": 10**30}))
        out = tmp_path / "out"
        code, err = exit_and_stderr(["periodic", "--config", str(periodic_setup), "--out", str(out)], capsys)
        assert (code, err) == (1, f"error: issues = {10**30} is too large: the run needs more than 2^47 bytes\n")
        assert not out.exists()

    def test_verify_samples(self, program_file, capsys):
        code, err = exit_and_stderr(["verify", str(program_file), "--samples", str(10**30)], capsys)
        assert (code, err) == (1, f"error: samples = {10**30} is too large: the samples need more than "
                                  "2^47 bytes\n")

    def test_verify_samples_of_every_matrix(self, program_file, capsys, monkeypatch):
        # the checks hold the samples of all five matrices (n = 6) at once:
        # these fit one matrix's 2^47 bytes, not five; no state may be drawn
        samples = 2 ** 47 // (8 * 6)
        assert 8 * samples * 6 <= 2 ** 47 < 8 * 5 * samples * 6

        def sample_interior(n, rng, count):
            raise AssertionError(f"{count} samples drawn past the address guard")

        monkeypatch.setattr(verification, "sample_interior", sample_interior)
        code, err = exit_and_stderr(["verify", str(program_file), "--samples", str(samples)], capsys)
        assert (code, err) == (1, f"error: samples = {samples} is too large: the samples need more than "
                                  "2^47 bytes\n")


class TestSignalIndices:
    """A signal index is checked on the file's Python integer, before numpy
    sees it, and printed 1-based, as the file writes it."""

    @pytest.mark.parametrize("signal, message", [
        ({"kind": "periodic", "order": [1, 7]}, "periodic order [1, 7] out of range 1..2"),
        ({"kind": "periodic", "order": [0, 1]}, "periodic order [0, 1] out of range 1..2"),
        ({"kind": "constant", "index": 7}, "constant index 7 out of range 1..2"),
        ({"kind": "periodic", "order": [1, 10**30]}, f"periodic order [1, {10**30}] out of range 1..2"),
        ({"kind": "scripted", "sequence": [1, 2, 10**30, 5]}, f"scripted index {10**30} out of range 1..2"),
    ], ids=["order-7", "order-0", "constant-7", "order-huge", "sequence-huge"])
    def test_out_of_range_index_printed_as_in_the_file(self, tmp_path, capsys, signal, message):
        doc = json.loads((EXPERIMENTS / "group6_alternating.json").read_text())
        doc["signal"] = signal
        path = tmp_path / "program.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, err = exit_and_stderr(["analyze", str(path), "--out", str(out)], capsys)
        assert (code, err) == (1, f"error: {message}\n")
        assert not out.exists()


class TestVerifyCommand:
    def test_passes_on_example_group_program(self, program_file, capsys):
        assert main(["verify", str(program_file), "--samples", "30", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 20  # 5 matrices x 4 checks
        assert all(": pass" in line for line in lines)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, program_file, capsys, samples):
        assert main(["verify", str(program_file), "--samples", str(samples)]) == 1
        captured = capsys.readouterr()
        assert f"samples = {samples}" in captured.err
        assert "pass" not in captured.out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    def test_negative_seed_rejected(self, program_file, capsys):
        assert main(["verify", str(program_file), "--samples", "10", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "random seed -1 is negative" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [0, 2])
    def test_boundary_check_tests_a_leaf_of_a_star(self, tmp_path, capsys, seed):
        # gamma = (1/2, 1/4, 1/4): the centre's band is empty, so it keeps no
        # state, and the check tests a leaf, whose band is 2/3 wide: a
        # finite margin below 0, the same at every --samples and --seed
        path = tmp_path / "star.json"
        save_program(TopologyProgram((validate(star_matrix(3, center=0)),), Periodic((0,))), path)
        lines = []
        for samples in ("1", "50"):
            assert main(["verify", str(path), "--samples", samples, "--seed", str(seed)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            lines.append(captured.out.strip().split("\n")[-1])
        assert lines[0] == lines[1]
        assert lines[0].startswith("matrix 1 boundary_contraction_step: pass, worst margin -")
        assert -1.0 < float(lines[0].split()[-1]) < 0

    def test_near_star_centre_band_is_not_tested(self, near_star_file, capsys):
        # the centre's band, 2e-9 wide by the radius formula, holds no state
        # whose gap reaches 4(n + 4)u, 28u at n = 3 (its gaps stay below
        # 1e-17): the check tests a leaf, whose margins lie below -G(r) +
        # (n + 4)u, so below -21u
        lines = []
        for samples, seed in (("1", "0"), ("2000", "3")):
            assert main(["verify", str(near_star_file), "--samples", samples, "--seed", seed]) == 0
            lines.append(capsys.readouterr().out.strip().split("\n")[-1])
        assert lines[0] == lines[1]
        assert lines[0].startswith("matrix 1 boundary_contraction_step: pass, worst margin ")
        assert float(lines[0].split()[-1]) < -21 * 2.0 ** -53

    def test_boundary_lines_ignore_samples_and_seed(self, capsys):
        # the boundary check maps fixed face states and draws nothing
        lines = []
        for samples, seed in (("1", "0"), ("200", "0"), ("200", "7")):
            argv = ["verify", str(EXPERIMENTS / "group6_random.json"), "--samples", samples, "--seed", seed]
            assert main(argv) == 0
            out = capsys.readouterr().out.splitlines()
            lines.append([line for line in out if "boundary_contraction_step" in line])
        assert lines[0] == lines[1] == lines[2]
        assert lines[0] == [line for line in GROUP6_VERIFY_200.splitlines() if "boundary" in line]

    def test_names_the_first_failing_check(self, program_file, capsys, monkeypatch):
        # every check passes on a valid matrix: fail matrix 2's certificate and
        # matrix 3's Jacobian check by hand (run_suite returns the four results
        # of each matrix in program order)
        failing = {1: "contraction_certificate", 2: "jacobian_finite_difference"}

        def run_suite(matrices, samples, seed):
            return [[dataclasses.replace(res, passed=res.name != failing.get(k)) for res in results]
                    for k, results in enumerate(verification.run_suite(matrices, samples, seed))]

        monkeypatch.setattr("socialpower.cli.run_suite", run_suite)
        assert main(["verify", str(program_file), "--samples", "10", "--seed", "0"]) == 1
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 21
        assert lines[5].startswith("matrix 2 contraction_certificate: FAIL, worst margin ")
        assert lines[8].startswith("matrix 3 jacobian_finite_difference: FAIL, worst margin ")
        assert sum("FAIL" in line for line in lines) == 2
        assert lines[-1] == "first failing property: matrix 2 contraction_certificate"

    def test_alternating_program_passes(self, capsys):
        path = EXPERIMENTS / "group6_alternating.json"
        assert main(["verify", str(path), "--samples", "200"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 8  # 2 matrices x 4 checks
        assert all(": pass" in line for line in lines)

    def test_group6_stdout_is_pinned(self, capsys):
        assert main(["verify", str(EXPERIMENTS / "group6_random.json"), "--samples", "200"]) == 0
        assert capsys.readouterr().out == GROUP6_VERIFY_200


class TestRerun:
    """A rerun into a directory that holds the outputs of a longer run
    overwrites each file in place: every file it writes holds exactly the
    bytes of the same run into a fresh directory."""

    @staticmethod
    def rerun_matches_fresh(tmp_path, first, second):
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        main([*first, "--out", str(rerun)])
        old = {p.name: p.stat().st_size for p in rerun.iterdir()}
        assert main([*second, "--out", str(rerun)]) == main([*second, "--out", str(fresh)]) == 0
        written = sorted(p.name for p in fresh.iterdir())
        assert written == sorted(p.name for p in rerun.iterdir())
        for name in written:
            assert old[name] > (fresh / name).stat().st_size, name  # so the old tail must go
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_simulate_over_a_longer_run(self, tmp_path, capsys):
        doc = json.loads((EXPERIMENTS / "forgetting.json").read_text())
        doc["program"] = str(EXPERIMENTS / "group6_random.json")
        doc["issues"] = 30
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc))
        self.rerun_matches_fresh(tmp_path, ["simulate", "--config", str(EXPERIMENTS / "forgetting.json")],
                                 ["simulate", "--config", str(short)])

    def test_analyze_over_a_longer_report(self, tmp_path, capsys):
        # five matrices, then two
        self.rerun_matches_fresh(tmp_path, ["analyze", str(EXPERIMENTS / "group6_random.json")],
                                 ["analyze", str(EXPERIMENTS / "group6_alternating.json")])

    def test_periodic_over_a_longer_report(self, tmp_path, capsys):
        # three phases, then two
        matrices = load_program(EXPERIMENTS / "group6_random.json").matrices[:3]
        save_program(TopologyProgram(matrices, Periodic((0, 1, 2))), tmp_path / "three.json")
        config = tmp_path / "three_phases.json"
        config.write_text(json.dumps({"program": "three.json"}))
        self.rerun_matches_fresh(tmp_path, ["periodic", "--config", str(config)],
                                 ["periodic", "--config", str(EXPERIMENTS / "alternating.json")])


class TestFileNamesInErrors:
    """A file name in an error message is shown with its control
    characters escaped, so that the terminal prints them as text."""

    NAME = "x\x1b[31m"

    @staticmethod
    def assert_escaped(err):
        assert "\\x1b" in err and "\x1b" not in err

    @pytest.mark.parametrize("text", ["{", "[]"])  # a JSON error; no program
    def test_program_file(self, tmp_path, capsys, text):
        path = tmp_path / f"{self.NAME}.json"
        path.write_text(text)
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 2
        self.assert_escaped(capsys.readouterr().err)

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / f"{self.NAME}.json"
        path.write_text("[]")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        self.assert_escaped(capsys.readouterr().err)

    def test_printable_name_unchanged(self, tmp_path, capsys):
        path = tmp_path / "é ü\\.json"
        path.write_text("[]")
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

