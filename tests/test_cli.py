import hashlib
import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from orbitdensity import cli, dyadic
from orbitdensity import vector as vector_module
from orbitdensity.cli import RunConfig, build_config, load_config_file, main, make_parser
from orbitdensity.scalars import GaussianRational, ONE

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


FACT0_ROWS = 767  # 0 <= a <= 12, a < b <= 65


class TestFact0:
    def test_pass_and_schema(self, tmp_path):
        out = tmp_path / "out"
        assert run(["fact0", "--out", str(out)]) == 0
        lines = (out / "fact0.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "a,b,b_mod_5,S_num,S_den,limit_num,limit_den,abs_err_float"
        assert len(lines) == 1 + FACT0_ROWS

    @pytest.mark.parametrize("sup, limit, failures", [
        (Fraction(-1), None, FACT0_ROWS), (None, Fraction(100), FACT0_ROWS),
        (Fraction(-1), Fraction(100), 2 * FACT0_ROWS)], ids=["sup", "limit", "both"])
    def test_failed_bound_exits_1(self, tmp_path, capsys, monkeypatch, sup, limit,
                                  failures):
        # a negative supremum or a far-off limit fails every row; a row
        # failing both bounds counts twice
        if sup is not None:
            monkeypatch.setattr(dyadic, "MASS_SUP_BOUND", sup)
        if limit is not None:
            monkeypatch.setattr(dyadic, "scale_mass_limit", lambda residue: limit)
        assert run(["fact0", "--out", str(tmp_path / "out")]) == 1
        assert f"fact0: {FACT0_ROWS} rows, {failures} failures" in capsys.readouterr().out

    def test_mass_off_the_identity_exits_1(self, tmp_path, capsys, monkeypatch):
        # S off by 2^(a-b) stays within a 64 * 2^(a-b) convergence rate; the
        # exact identity S = L(b mod 5) - 2^(a-b) * L(a mod 5) rejects every row
        real = dyadic.scale_mass
        monkeypatch.setattr(dyadic, "scale_mass",
                            lambda a, b: real(a, b) - Fraction(2 ** a, 2 ** b))
        assert run(["fact0", "--out", str(tmp_path / "out")]) == 1
        assert f"fact0: {FACT0_ROWS} rows, {FACT0_ROWS} failures" in \
            capsys.readouterr().out

    def test_bad_range_is_usage_error(self, tmp_path, capsys):
        # the range is fixed in mass_table_rows: a range flag is a usage error
        out = tmp_path / "out"
        assert run(["fact0", "--a-min", "5", "--out", str(out)]) == 2
        assert_one_error_line(capsys)
        assert not out.exists()


class TestSets:
    def test_writes_per_level_reports(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sets", "--smax", "2", "--checkpoints", "4",
                    "--out", str(out)]) == 0
        for level in (1, 2):
            lines = (out / f"sets_level{level}.csv").read_text().splitlines()
            assert lines[0] == "checkpoint,count,ratio_num,ratio_den,ratio_float"
        assert (out / "sets_level1.csv").read_text().splitlines()[1] == \
            "64,1,1,64,0.015625"

    def test_stdout_names_the_window_that_holds_sites(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["sets", "--config", str(ROOT / "run.cfg"), "--smax", "12",
                    "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("sets: level 2 ratio in [0.00390625, 0.0100797] over the "
                            "7 checkpoints 256..8388608 that hold sites")
        assert lines[11] == "sets: level 12 has no site up to 8388608"
        assert not any("[0," in line for line in lines)

    def test_counts_each_site_set_once(self, tmp_path, monkeypatch):
        real = cli.count_sites
        calls = []

        def counting(params, level, horizon):
            calls.append((level, horizon))
            return real(params, level, horizon)

        monkeypatch.setattr(cli, "count_sites", counting)
        assert run(["sets", "--smax", "3", "--checkpoints", "5",
                    "--out", str(tmp_path / "out")]) == 0
        horizons = dyadic.checkpoint_schedule(dyadic.SeparationParams.with_min_p(1),
                                              5).horizons
        assert sorted(calls) == sorted((level, n) for level in (1, 2, 3)
                                       for n in horizons)


class TestVerify:
    def test_default_passes(self, tmp_path):
        # d = 100 and p = 6 both give p = 6, so level 3's smallest scale is 14
        # and the class-limit window starts at q = 21, not 20
        for flags in ([], ["--d", "100"], ["--p", "6"]):
            out = tmp_path / "-".join(["out", *flags])
            assert run(["verify", "--out", str(out), *flags]) == 0
            payload = json.loads((out / "verify_report.json").read_text())
            assert {entry["check"] for entry in payload} == {
                "separation", "checkpoint_gap", "counting_bounds",
                "mass_bound", "class_limits"}
            assert all(entry["pass"] for entry in payload)
            assert all(entry["first_violation"] is None for entry in payload)

    @pytest.mark.parametrize("flags", [["--d", "1"], ["--d", "3"], ["--d", "14"],
                                       ["--d", "62"], ["--d", "100"], ["--d", "1000"],
                                       ["--d", "524286"], ["--p", "6"], ["--p", "8"]],
                             ids=lambda flags: "".join(flags))
    def test_depths_reach_every_level(self, tmp_path, flags):
        # separation's horizon holds a site of each level 1..4, and
        # counting_bounds reads at least one scale of each level 1..5
        out = tmp_path / "out"
        assert run(["verify", "--out", str(out), *flags]) == 0
        payload = {e["check"]: e for e in
                   json.loads((out / "verify_report.json").read_text())}
        params = dyadic.SeparationParams(**payload["separation"]["params"])
        horizon = payload["separation"]["range"]["horizon"]
        assert all(dyadic.site_members(params, level, horizon) for level in range(1, 5))
        max_scale = payload["counting_bounds"]["range"]["max_scale"]
        assert all(params.min_scale(level) <= max_scale for level in range(1, 6))

    def test_forced_p_zero_fails_with_counterexample(self, tmp_path):
        out = tmp_path / "out"
        assert run(["verify", "--p", "0", "--out", str(out)]) == 1
        payload = json.loads((out / "verify_report.json").read_text())
        separation = next(e for e in payload if e["check"] == "separation")
        assert not separation["pass"]
        violation = separation["first_violation"]
        assert violation["condition"] == "same_level_gap"
        assert violation["gap"] < violation["required"]


class TestVectorCommand:
    def test_one_block(self, tmp_path):
        out = tmp_path / "out"
        assert run(["vector", "--out", str(out), "--checkpoints", "6"]) == 0
        payload = json.loads((out / "vector_report.json").read_text())
        assert payload["r_values"]["1"] == 1
        assert payload["predicted_lower"] == {"num": 9, "den": 248,
                                              "float": 9 / 248}
        assert all(entry["pass"] for entry in payload["approach_checks"])

    def test_enumerated(self, tmp_path):
        out = tmp_path / "out"
        assert run(["vector", "--family", "enumerated", "--out", str(out)]) == 0
        payload = json.loads((out / "vector_report.json").read_text())
        assert payload["r_values"] == {"1": 1, "2": 0, "3": 0, "4": 0,
                                       "5": 1, "6": 1}

    @pytest.mark.parametrize("flags", [["--p", "15"],
                                       ["--d", "1000", "--family", "enumerated"]])
    def test_every_level_gets_samples(self, tmp_path, flags):
        # levels whose first sites lie above 2^16 still draw samples
        out = tmp_path / "out"
        assert run(["vector", "--out", str(out), *flags]) == 0
        approach = json.loads((out / "vector_report.json").read_text())["approach_checks"]
        assert [entry["level"] for entry in approach] == [1, 2, 3, 4]
        assert all(entry["samples"] and entry["pass"] for entry in approach)

    @pytest.mark.parametrize("space, written", [("c0", "sup"), ("lp:3", 3.0)])
    def test_space_exponent_label(self, tmp_path, space, written):
        out = tmp_path / "out"
        assert run(["vector", "--space", space, "--smax", "4", "--out", str(out)]) == 0
        payload = json.loads((out / "vector_report.json").read_text())
        assert payload["space_exponent"] == written

    @staticmethod
    def plant_level_one_hit(monkeypatch):
        # a positive b(k + 2) inside the window of level 1's first site k
        k = dyadic.site_members(dyadic.SeparationParams.with_min_p(1), 1, 2 ** 10)[0]
        real = vector_module.expansion_coefficient
        monkeypatch.setattr(vector_module, "expansion_coefficient",
                            lambda av, n: ONE if n == k + 2 else real(av, n))

    def test_hit_count_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        self.plant_level_one_hit(monkeypatch)
        out = tmp_path / "out"
        assert run(["vector", "--out", str(out)]) == 1
        assert "hits=FAIL at levels [1]" in capsys.readouterr().out
        payload = json.loads((out / "vector_report.json").read_text())
        assert set(payload) == {"family", "omega", "space_exponent", "r_values",
                                "predicted_lower", "predicted_upper", "tail_constants",
                                "budget_partials", "approach_checks"}
        assert payload["r_values"]["1"] == 1

    def test_hit_count_mismatch_keeps_all_artifacts(self, tmp_path, monkeypatch):
        self.plant_level_one_hit(monkeypatch)
        out = tmp_path / "out"
        assert run(["all", "--smax", "3", "--series-horizon", "1024",
                    "--out", str(out)]) == 1
        assert {path.name for path in out.iterdir()} == {
            "fact0.csv", "sets_level1.csv", "sets_level2.csv", "sets_level3.csv",
            "verify_report.json", "vector_report.json", "orbit_density.csv",
            "orbit_summary.json"}


class TestOrbitCommand:
    @pytest.mark.parametrize("family", ["one-block", "enumerated"])
    def test_separation_and_identity(self, tmp_path, family):
        out = tmp_path / "out"
        assert run(["orbit", "--family", family, "--out", str(out),
                    "--series-horizon", "2048"]) == 0
        payload = json.loads((out / "orbit_summary.json").read_text())
        assert payload["separation_flag"] is True
        assert payload["family"] == family
        lines = (out / "orbit_density.csv").read_text().splitlines()
        assert lines[0] == \
            "l,q,horizon,class,count,ratio_num,ratio_den,ratio_float,predicted_float"
        assert len(lines) == 1 + 9

    @pytest.mark.parametrize("family", ["one-block", "enumerated"])
    def test_thirty_checkpoints(self, tmp_path, family):
        # the last checkpoints count more than 2^63 sites per level
        out = tmp_path / "out"
        assert run(["orbit", "--family", family, "--checkpoints", "30",
                    "--series-horizon", "1024", "--out", str(out)]) == 0
        assert json.loads((out / "orbit_summary.json").read_text())["separation_flag"] is True
        assert len((out / "orbit_density.csv").read_text().splitlines()) == 1 + 30

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["orbit", "--out", None, "--series-horizon", "1024",
                "--checkpoints", "8"]
        for out in (out1, out2):
            argv[2] = str(out)
            assert run(list(argv)) == 0
        assert (out1 / "orbit_density.csv").read_bytes() == \
            (out2 / "orbit_density.csv").read_bytes()
        assert (out1 / "orbit_summary.json").read_bytes() == \
            (out2 / "orbit_summary.json").read_bytes()

    def test_identity_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        # a decomposition count off by one at a single scanned checkpoint
        real = vector_module.checkpoint_count
        monkeypatch.setattr(vector_module, "checkpoint_count",
                            lambda av, horizon: real(av, horizon) + (horizon == 2 ** 11))
        assert run(["orbit", "--series-horizon", "1024",
                    "--out", str(tmp_path / "out")]) == 1
        assert "identity=FAIL" in capsys.readouterr().out

    def test_identity_scans_first_checkpoint_above_cap(self, tmp_path, capsys,
                                                       monkeypatch):
        # at d = 20000 the first checkpoint, 2^21, lies above the 2^18 scan cap;
        # the identity must still compare it rather than pass on no checkpoint
        first = dyadic.checkpoint_schedule(dyadic.SeparationParams.with_min_p(20000),
                                           2).horizons[0]
        assert first == 2 ** 21
        real = vector_module.checkpoint_count
        monkeypatch.setattr(vector_module, "checkpoint_count",
                            lambda av, horizon: real(av, horizon) + (horizon == first))
        out = tmp_path / "out"
        assert run(["orbit", "--d", "20000", "--series-horizon", "1024",
                    "--out", str(out)]) == 1
        assert "identity=FAIL" in capsys.readouterr().out
        rows = (out / "orbit_density.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == str(first)


    def test_cross_check_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        # an oracle off by i at one n with Re b(n) > 0 still has the right sign
        class OffOracle(cli.SeriesOracle):
            def value(self, n):
                exact = super().value(n)
                return exact + GaussianRational(0, 1) if n == 40 else exact

        monkeypatch.setattr(cli, "SeriesOracle", OffOracle)
        assert run(["orbit", "--series-horizon", "1024",
                    "--out", str(tmp_path / "out")]) == 1
        assert "disagreements=1 " in capsys.readouterr().out


class TestDispatch:
    @pytest.mark.parametrize("name", ["fact0", "sets", "verify", "vector", "orbit",
                                      "all"])
    def test_main_runs_the_rebound_command(self, tmp_path, monkeypatch, name):
        # main looks cmd_<name> up when it is called, so a rebound one runs
        seen = []
        monkeypatch.setattr(cli, f"cmd_{name}", lambda config: seen.append(config) or 7)
        assert run([name, "--out", str(tmp_path / "out")]) == 7
        assert [config.out for config in seen] == [str(tmp_path / "out")]


class TestConfigMerging:
    def test_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# experiment manifest\nfamily=enumerated\nseed=3\n")
        out = tmp_path / "out"
        assert run(["vector", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "vector_report.json").read_text())
        assert payload["family"] == "enumerated"

    def test_config_file_values_take_field_types(self, tmp_path):
        # one valid value per RunConfig field, each parsed to its annotated type
        lines = {"omega": "5/2", "space": "lp:3", "d": "2", "p": "3",
                 "smax": "4", "checkpoints": "5", "series_horizon": "1024",
                 "family": "enumerated", "out": "results", "seed": "7"}
        types = {"omega": str, "space": str, "d": int, "p": int,
                 "smax": int, "checkpoints": int, "series_horizon": int,
                 "family": str, "out": str, "seed": int}
        assert set(lines) == {f.name for f in fields(RunConfig)}
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key}={value}\n" for key, value in lines.items()))
        values = load_config_file(config)
        assert {key: type(value) for key, value in values.items()} == types
        assert values["p"] == 3
        RunConfig(**values)

    # an int that does not parse, and an omega or space that parses only
    # when RunConfig builds the operator; each names where it came from
    BAD_VALUES = [("smax", "x"), ("omega", "abc"), ("space", "lp:zz")]

    def test_config_file_parse_error_names_key_and_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        out = tmp_path / "out"
        for key, value in self.BAD_VALUES:
            config.write_text(f"# manifest\n{key}={value}\n")
            assert run(["all", "--config", str(config), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {config}:2: {key}: ")
            assert not out.exists()

    def test_env_parse_error_names_variable(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        for key, value in self.BAD_VALUES:
            name = "ORBITDENSITY_" + key.upper()
            with monkeypatch.context() as env:
                env.setenv(name, value)
                assert run(["all", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {name}: ")
            assert not out.exists()

    def test_flag_parse_error_names_flag(self, tmp_path, capsys):
        # a flag value takes the same parse path as a file or environment value
        out = tmp_path / "out"
        for key, value in self.BAD_VALUES:
            assert run(["vector", f"--{key}", value, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: --{key}: ")
            assert not out.exists()

    def test_unknown_family_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["vector", "--family", "foo", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --family: unknown family 'foo'\n"
        assert not out.exists()

    def test_one_name_per_setting(self, tmp_path, monkeypatch):
        # each field's flag, file key and ORBITDENSITY_* variable set it, in
        # that precedence: a field missing a name fails here
        values = {"omega": ("3", "5/2", "7/2"), "space": ("c0", "lp:3", "lp:4"),
                  "d": ("2", "3", "4"), "p": ("3", "4", "5"),
                  "smax": ("2", "3", "4"), "checkpoints": ("3", "4", "5"),
                  "series_horizon": ("1024", "2048", "4096"),
                  "family": ("enumerated", "one-block", "enumerated"),
                  "out": ("a", "b", "c"), "seed": ("1", "2", "3")}
        assert set(values) == {f.name for f in fields(RunConfig)}
        config = tmp_path / "run.cfg"
        for name, (in_file, in_env, in_flag) in values.items():
            config.write_text(f"{name}={in_file}\n")

            def resolved(*flags):
                argv = ["verify", "--config", str(config), *flags]
                return str(getattr(build_config(make_parser().parse_args(argv)), name))

            with monkeypatch.context() as env:
                assert resolved() == in_file, name
                env.setenv("ORBITDENSITY_" + name.upper(), in_env)
                assert resolved() == in_env, name
                flag = "--" + name.replace("_", "-")
                assert resolved(flag, in_flag) == in_flag, name

    def test_config_key_has_one_spelling(self, tmp_path, capsys):
        # the key is the field's name; its flag alone is spelt with hyphens
        config = tmp_path / "run.cfg"
        config.write_text("series-horizon=1024\n")
        out = tmp_path / "out"
        assert run(["orbit", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {config}:1: unknown key 'series-horizon'\n"
        assert not out.exists()

    def test_config_file_rejects_unknown_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("nonsense=1\n")
        with pytest.raises(ValueError):
            load_config_file(config)

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ORBITDENSITY_FAMILY", "enumerated")
        out = tmp_path / "out"
        assert run(["vector", "--out", str(out)]) == 0
        payload = json.loads((out / "vector_report.json").read_text())
        assert payload["family"] == "enumerated"

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ORBITDENSITY_FAMILY", "enumerated")
        out = tmp_path / "out"
        assert run(["vector", "--family", "one-block", "--out", str(out)]) == 0
        payload = json.loads((out / "vector_report.json").read_text())
        assert payload["family"] == "one-block"

    def test_bad_omega_is_usage_error(self, tmp_path):
        assert run(["vector", "--omega", "1", "--out", str(tmp_path)]) == 2

    def test_bad_space_is_usage_error(self, tmp_path):
        assert run(["vector", "--space", "banach", "--out", str(tmp_path)]) == 2

    def test_lp_inf_points_to_c0(self, tmp_path, capsys):
        # l^inf is not separable, so it is not c0 under another name
        assert run(["vector", "--space", "lp:inf", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "c0" in err, err


class TestInvalidConfig:
    @pytest.mark.parametrize("flags", [
        ["--checkpoints", "1"],
        ["--omega", "1/0"],
        ["--d", "0"],
        ["--omega", "1.0000000000000000001"],
        ["--omega", "1e400"],
        ["--smax", "1030"],
        ["--smax", "100000000"],
        ["--p", "0"],
        ["--space", "lp:inf"],
        ["--space", "lp:Infinity"],
        ["--space", "lp:1e400"],
    ], ids=["one-checkpoint", "omega-zero-denominator", "d-zero",
            "omega-float-is-one", "omega-float-overflow", "smax-beyond-float-range",
            "smax-far-beyond-float-range", "p-inadmissible", "space-lp-inf",
            "space-lp-infinity", "space-lp-float-overflow"])
    def test_exits_2_with_message(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run(["orbit", "--series-horizon", "2048", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fact0", "sets", "verify"])
    @pytest.mark.parametrize("flags", [["--d", "0"], ["--p", "-1"]],
                             ids=["d-zero", "p-negative"])
    def test_bad_params_rejected_by_every_command(self, tmp_path, capsys, command, flags):
        # the commands that build no vector still validate d and p up front
        out = tmp_path / "out"
        assert run([command, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_retired_horizon_flag(self, tmp_path, capsys):
        # each stage reads its own fixed depth; --horizon is no flag
        out = tmp_path / "out"
        assert run(["orbit", "--horizon", "8388608", "--out", str(out)]) == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[], ["foo"], ["orbit", "--fam", "enumerated"],
                                      ["orbit", "--d"]],
                             ids=["no-command", "unknown-command", "abbreviated-flag",
                                  "flag-without-value"])
    def test_usage_error_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        # argparse's own errors take main's error: path, not SystemExit
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert_one_error_line(capsys)
        assert not any(tmp_path.iterdir())

    def test_smax_float_range_edge(self):
        # the last level read is smax itself: eps(1023) underflows to 0.0
        assert RunConfig(smax=1023).smax == 1023
        with pytest.raises(ValueError):
            RunConfig(smax=1024)

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    def test_series_horizon_bound(self, tmp_path, capsys, monkeypatch, source):
        # the series oracle holds one value per step, so a horizon past 2^24
        # exits 2 before any stage runs, naming where the value came from
        config = tmp_path / "run.cfg"
        config.write_text("series_horizon=10000000000\n")
        argv, where = {"flag": (["--series-horizon", "10000000000"], "--series-horizon"),
                       "file": (["--config", str(config)], f"{config}:1: series_horizon"),
                       "env": ([], "ORBITDENSITY_SERIES_HORIZON")}[source]
        if source == "env":
            monkeypatch.setenv("ORBITDENSITY_SERIES_HORIZON", "10000000000")
        out = tmp_path / "out"
        assert run(["fact0", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {where}: series_horizon must lie in 1..16777216 (2^24)\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    def test_checkpoints_bound(self, tmp_path, capsys, monkeypatch, source):
        # the run time grows steeply with the checkpoint count, so 257 exits 2
        # before any stage runs, naming where the value came from
        config = tmp_path / "run.cfg"
        config.write_text("checkpoints=257\n")
        argv, where = {"flag": (["--checkpoints", "257"], "--checkpoints"),
                       "file": (["--config", str(config)], f"{config}:1: checkpoints"),
                       "env": ([], "ORBITDENSITY_CHECKPOINTS")}[source]
        if source == "env":
            monkeypatch.setenv("ORBITDENSITY_CHECKPOINTS", "257")
        out = tmp_path / "out"
        assert run(["fact0", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {where}: checkpoints must lie in 2..256\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    def test_p_bound(self, tmp_path, capsys, monkeypatch, source):
        # past p = 8192 an artifact integer can outgrow the digits Python
        # prints, so 8193 exits 2 before any stage runs, naming its source
        config = tmp_path / "run.cfg"
        config.write_text("p=8193\n")
        argv, where = {"flag": (["--p", "8193"], "--p"),
                       "file": (["--config", str(config)], f"{config}:1: p"),
                       "env": ([], "ORBITDENSITY_P")}[source]
        if source == "env":
            monkeypatch.setenv("ORBITDENSITY_P", "8193")
        out = tmp_path / "out"
        assert run(["fact0", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {where}: p must be <= 8192, given or derived from d (here 8193)\n"
        assert not out.exists()

    def test_p_edge(self, tmp_path, capsys):
        # the bound holds for a p derived from d as well as a given one
        assert RunConfig(p=8192).p == 8192
        out = tmp_path / "out"
        assert run(["fact0", "--d", str(2 ** 8194), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: --d: p must be <= 8192, given or derived from d (here 8194)\n"
        assert not out.exists()

    def test_checkpoints_edge(self):
        assert RunConfig(checkpoints=256).checkpoints == 256
        with pytest.raises(ValueError):
            RunConfig(checkpoints=257)

    def test_series_horizon_edge(self):
        assert RunConfig(series_horizon=2 ** 24).series_horizon == 2 ** 24
        with pytest.raises(ValueError):
            RunConfig(series_horizon=2 ** 24 + 1)

    @pytest.mark.parametrize("line", ["smax=0", "family=foo", "space=banach", "smax=1030",
                                      "p=0", "tail_tol=1e-12", "p_override=3",
                                      "horizon=8388608"])
    def test_config_file_value_checked_before_any_stage(self, tmp_path, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "out"
        assert run(["all", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    def test_repeated_config_key(self, tmp_path, capsys):
        # a later line must not silently win over an earlier one
        config = tmp_path / "run.cfg"
        config.write_text("smax=6\n# comment\nsmax=2\n")
        out = tmp_path / "out"
        assert run(["vector", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {config}:3: duplicate key 'smax' (first on line 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [("ORBITDENSITY_SMAXX", "0"),
                                             ("ORBITDENSITY_TAIL_TOL", "nan"),
                                             ("ORBITDENSITY_HORIZON", "8388608")],
                             ids=["misspelled", "removed-key", "retired-horizon"])
    def test_unknown_env_variable(self, tmp_path, capsys, monkeypatch, name, value):
        # a variable that names no config key exits 2, as an unknown key does
        monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        assert run(["verify", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {name}: unknown variable\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    def test_empty_out(self, tmp_path, capsys, monkeypatch, source):
        # Path("") is the working directory, where every artifact would land
        config = tmp_path / "run.cfg"
        config.write_text("out=\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv, where = {"flag": (["fact0", "--out="], "--out"),
                       "file": (["fact0", "--config", str(config)], f"{config}:1: out"),
                       "env": (["fact0"], "ORBITDENSITY_OUT")}[source]
        if source == "env":
            monkeypatch.setenv("ORBITDENSITY_OUT", "")
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}: ")
        assert not any(work.iterdir())


class TestAllCommand:
    @pytest.mark.parametrize("family", ["one-block", "enumerated"])
    def test_reference_artifacts(self, tmp_path, family):
        # the run.cfg artifacts are pinned by hash in the benchmark's known answers
        expected = json.loads((ROOT / "bench" / "reference.json").read_text())
        out = tmp_path / family
        assert run(["all", "--config", str(ROOT / "run.cfg"), "--family", family,
                    "--out", str(out)]) == 0
        found = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in out.iterdir()}
        assert found == expected["headline"][family]

    @pytest.mark.parametrize("command", ["sets", "orbit"])
    def test_first_d_with_p_19(self, tmp_path, command):
        # p = 19 puts the first checkpoint at 2^26; no second flag is needed
        assert dyadic.SeparationParams.with_min_p(524286).p == 19
        assert run([command, "--d", "524286", "--series-horizon", "1024",
                    "--out", str(tmp_path / "out")]) == 0

    def test_small_smax(self, tmp_path):
        # any smax >= 1 gets a budget certificate
        assert run(["all", "--smax", "3", "--series-horizon", "1024",
                    "--out", str(tmp_path / "out")]) == 0
