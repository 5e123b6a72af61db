"""Command-line surface: listing, config validation, runs, exit codes."""

import json

import pytest

from hilbertbridge import cli
from hilbertbridge import experiments

# (section text, line of the refusal within it, message) of config values a
# run refuses; ``hb validate`` must refuse each at that line
REFUSALS = {
    "trials-0": ("[diffusion]\nseed = 1\ntrials = 0\n", 3, "trials must be positive"),
    "trials-negative": ("[diffusion]\nseed = 1\ntrials = -1\n", 3,
                        "trials must be positive"),
    "seed-negative": ("[born-bridge]\ntrials = 2\nseed = -1\n", 3,
                      "seed must fit in 64 bits"),
    "seed-2**64": (f"[born-bridge]\ntrials = 2\nseed = {2**64}\n", 3,
                   "seed must fit in 64 bits"),
    "z0": ("[spin-born]\nseed = 1\ntrials = 8\nz0 = 2\n", 1, "z must lie in"),
    "step-angle": ("[spin-born]\nseed = 1\ntrials = 8\nstep_angle = 0.2\n", 1,
                   "step angle 0.2 exceeds"),
    "n-cells": ("[position-born]\nseed = 1\ntrials = 8\nn_cells = 1\n", 1,
                "dimension ≥ 2"),
    "state-msd-trials": ("[state-msd]\nseed = 1\ntrials = 5\n", 3,
                         "at least 100 trials"),
    "tau-nan": ("[position-born]\nseed = 1\ntrials = 8\ntau = nan\n", 4, "finite"),
    "max-steps": (f"[position-born]\nseed = 1\ntrials = 8\nmax_steps = {10**23}\n",
                  4, "max_steps must lie in"),
    "dt-0": ("[diffusion]\nseed = 1\ntrials = 8\ndt = 0\n", 4,
             "dt must be positive, got 0.0"),
    # a valid key before the refused one must not take the blame
    "diffusion-t-final-negative": ("[diffusion]\nseed = 1\ntrials = 8\n"
                                   "diffusivity = 0.7\nt_final = -1\n", 5,
                                   "t_final must be positive, got -1.0"),
    "temperature-negative": ("[estimates]\ntrials = 1\ntemperature = -1\n", 3,
                             "temperature must be positive"),
    "levels-1": ("[curvature]\ntrials = 1\nlevels = 1\n", 3,
                 "levels must be at least 2"),
    "isotropy-n-cells": ("[isotropy]\nseed = 1\ntrials = 200\nn_cells = 2\n", 4,
                         "n_cells must be at least 3, got 2"),
    "isotropy-trials": ("[isotropy]\nseed = 1\ntrials = 10\n", 3,
                        "trials must be at least 100, got 10"),
    "isotropy-samples": ("[isotropy]\nseed = 1\ntrials = 200\nsamples = 100\n", 4,
                         "samples must be at least 10000, got 100"),
    "reconstruct-levels-6": ("[hamiltonian-reconstruct]\ntrials = 1\nlevels = 6\n", 3,
                             "levels must be at least 8, got 6"),
    "reconstruct-levels-4": ("[hamiltonian-reconstruct]\ntrials = 1\nlevels = 4\n", 3,
                             "levels must be at least 8, got 4"),
    "uncertainty-max-levels": ("[uncertainty-identity]\nseed = 1\ntrials = 2\n"
                               "max_levels = 1\n", 4,
                               "max_levels must be at least 2, got 1"),
    "action-samples": ("[action-equivalence]\ntrials = 1\nsamples = 3\n", 3,
                       "samples must be at least 5, got 3"),
    "action-omega-0": ("[action-equivalence]\ntrials = 1\nomega = 0\n", 3,
                       "omega must be positive, got 0.0"),
    "action-amplitude-0": ("[action-equivalence]\ntrials = 1\namplitude = 0\n", 3,
                           "amplitude must be positive, got 0.0"),
    "action-amplitude-negative": ("[action-equivalence]\ntrials = 1\namplitude = -0.7\n",
                                  3, "amplitude must be positive, got -0.7"),
    "action-mass-0": ("[action-equivalence]\ntrials = 1\nmass = 0\n", 3,
                      "mass must be positive, got 0.0"),
    "born-bridge-sigma-0": ("[born-bridge]\nseed = 1\ntrials = 2\nsigma = 0\n", 4,
                            "sigma must be positive"),
    "state-msd-n-steps-0": ("[state-msd]\nseed = 1\ntrials = 100\nn_steps = 0\n", 4,
                            "n_steps must be at least 1, got 0"),
    "state-msd-n-steps-negative": ("[state-msd]\nseed = 1\ntrials = 100\n"
                                   "n_steps = -3\n", 4,
                                   "n_steps must be at least 1, got -3"),
    "decomposition-sigma-0": ("[decomposition]\ntrials = 1\nsigma = 0\n", 3,
                              "sigma must be positive, got 0.0"),
    "decomposition-mass-negative": ("[decomposition]\ntrials = 1\nmass = -1.2\n", 3,
                                    "mass must be positive, got -1.2"),
    "decomposition-sigma-then-mass": ("[decomposition]\ntrials = 1\nsigma = 0.8\n"
                                      "mass = -1.2\n", 4, "mass must be positive, got -1.2"),
    "decomposition-spacing-0": ("[decomposition]\ntrials = 1\nspacing_frac = 0\n", 3,
                                "spacing_frac must be positive, got 0.0"),
    "ehrenfest-sigma-negative": ("[ehrenfest]\ntrials = 1\nsigma = -1\n", 3,
                                 "sigma must be positive, got -1.0"),
    "ehrenfest-mass-0": ("[ehrenfest]\ntrials = 1\nmass = 0\n", 3,
                         "mass must be positive, got 0.0"),
    "ehrenfest-spacing-negative": ("[ehrenfest]\ntrials = 1\nspacing_frac = -1e-3\n", 3,
                                   "spacing_frac must be positive, got -0.001"),
    "continuity-sigma-0": ("[continuity]\ntrials = 1\nsigma = 0\n", 3,
                           "sigma must be positive, got 0.0"),
    "continuity-spacing-0": ("[continuity]\ntrials = 1\nspacing_frac = 0\n", 3,
                             "spacing_frac must be positive, got 0.0"),
    # 10⁶ levels: a curvature run's matrices take 116 TiB, reconstruct's design
    # matrix 8.9·10¹⁷ GiB, over the budget of any machine
    "curvature-levels-huge": ("[curvature]\ntrials = 1\nlevels = 1000000\n", 3,
                              "GiB budget (half of physical memory); lower levels"),
    "reconstruct-levels-huge": ("[hamiltonian-reconstruct]\ntrials = 1\nlevels = 1000000\n",
                                3, "GiB budget (half of physical memory); lower levels"),
    # 2·10¹³ grid points: petabytes, over the budget of any machine
    **{f"{name}-spacing-tiny": (f"[{name}]\ntrials = 1\nspacing_frac = 1e-12\n", 3,
                                "GiB budget (half of physical memory); raise spacing_frac")
       for name in ("decomposition", "ehrenfest", "continuity")},
}


class TestList:
    def test_exit_zero_and_all_names_printed(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("spin-born", "diffusion", "estimates", "curvature"):
            assert name in out
        assert "14 experiments registered" in out


class TestUnknownCommand:
    def test_unknown_experiment_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_arguments_exits_2(self, capsys):
        assert cli.main([]) == 2
        assert "hb" in capsys.readouterr().out


class TestRun:
    def test_curvature_passes(self, tmp_path, capsys):
        rc = cli.main(["curvature", "--output-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert (tmp_path / "curvature-summary.json").exists()

    def test_estimates_fails_but_writes_summary(self, tmp_path, capsys):
        rc = cli.main(["estimates", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out
        assert (tmp_path / "estimates-summary.json").exists()

    def test_missing_seed_for_stochastic_exits_2(self, tmp_path, capsys):
        rc = cli.main(["diffusion", "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_parameter_value_exits_2(self, tmp_path, capsys):
        rc = cli.main(
            ["diffusion", "--seed", "1", "--trials", "lots",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "integer" in capsys.readouterr().err

    def test_non_finite_parameter_exits_2_without_outputs(self, tmp_path, capsys):
        rc = cli.main(
            ["position-born", "--seed", "1", "--trials", "8", "--tau", "nan",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_worker_count_exits_2_without_outputs(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("HB_THREADS", "0")
        rc = cli.main(["spin-born", "--seed", "1", "--trials", "8",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "HB_THREADS" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["diffusion", "--seed", "-1"],
        ["uncertainty-identity", "--seed", "-1"],
        ["born-bridge", "--seed", str(2**64)],
    ], ids=["diffusion", "uncertainty-identity", "born-bridge"])
    def test_seed_outside_64_bits_exits_2_without_outputs(self, tmp_path, capsys,
                                                          args):
        rc = cli.main([*args, "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, message", [
        (["spin-born", "--z0", "2"], "z must lie in"),
        (["spin-born", "--step-angle", "0.2"], "step angle 0.2 exceeds"),
        (["position-born", "--n-cells", "1"], "dimension ≥ 2"),
        (["state-msd", "--trials", "5"], "at least 100 trials"),
        (["position-born", "--trials", "8", "--max-steps", str(10**23)],
         "max_steps must lie in"),
    ], ids=["z0", "step-angle", "n-cells", "trials", "max-steps"])
    def test_library_refusal_exits_2_without_outputs(self, tmp_path, capsys,
                                                     args, message):
        rc = cli.main([*args, "--seed", "1", "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_lambda_alias_sets_wavelength(self, tmp_path):
        rc = cli.main(
            ["estimates", "--lambda", "1e-5", "--output-dir", str(tmp_path)]
        )
        payload = json.loads((tmp_path / "estimates-summary.json").read_text())
        assert payload["parameters"]["wavelength"] == 1e-5
        # the infrared anchors: acceleration and spreading rates inside
        # their bands, recoil velocity outside
        assert rc == 1

    def test_underscore_and_hyphen_flags_equivalent(self, tmp_path):
        rc = cli.main(
            ["spin-born", "--seed", "2", "--trials", "150",
             "--max-steps", "50", "--absorb_eps", "0.05",
             "--output-dir", str(tmp_path)]
        )
        payload = json.loads((tmp_path / "spin-born-summary.json").read_text())
        assert payload["parameters"]["max_steps"] == 50
        assert payload["parameters"]["absorb_eps"] == 0.05
        assert rc in (0, 1)


class TestConfigFile:
    def test_file_supplies_seed_and_parameters(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "[uncertainty-identity]\n"
            "seed = 9\n"
            "trials = 25\n"
            "max_levels = 6\n"
            f"output_dir = {tmp_path}\n"
        )
        rc = cli.main(["uncertainty-identity", "--config", str(config)])
        assert rc == 0
        payload = json.loads(
            (tmp_path / "uncertainty-identity-summary.json").read_text()
        )
        assert payload["seed"] == 9
        assert payload["trials"] == 25
        assert payload["parameters"]["max_levels"] == 6

    def test_flags_override_file_values(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "[uncertainty-identity]\n"
            "seed = 9\n"
            "trials = 25\n"
            "max_levels = 6\n"
            f"output_dir = {tmp_path}\n"
        )
        rc = cli.main(
            ["uncertainty-identity", "--config", str(config),
             "--trials", "12", "--seed", "4"]
        )
        assert rc == 0
        payload = json.loads(
            (tmp_path / "uncertainty-identity-summary.json").read_text()
        )
        assert payload["seed"] == 4
        assert payload["trials"] == 12
        assert payload["parameters"]["max_levels"] == 6

    def test_other_sections_are_ignored(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "[diffusion]\nseed = 1\ntrials = 10000\n"
            "[curvature]\ntrials = 1\n"
            f"output_dir = {tmp_path}\n"
        )
        assert cli.main(["curvature", "--config", str(config)]) == 0


class TestValidate:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        config = tmp_path / "good.conf"
        config.write_text(
            "# acceptance fixtures\n"
            "[spin-born]\n"
            "seed = 7\n"
            "trials = 1000\n"
            "z0 = 0.4\n"
            "\n"
            "[curvature]\n"
            "trials = 1\n"
            "levels = 12\n"
        )
        assert cli.main(["validate", str(config)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_trials_is_named(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("[curvature]\nlevels = 12\n")
        assert cli.main(["validate", str(config)]) == 1
        out = capsys.readouterr().out
        assert "missing 'trials'" in out
        assert f"{config}:1" in out

    def test_missing_seed_for_stochastic_is_named(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("[diffusion]\ntrials = 10000\n")
        assert cli.main(["validate", str(config)]) == 1
        assert "missing 'seed'" in capsys.readouterr().out

    def test_wrong_type_reports_line_number(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text(
            "[spin-born]\nseed = 7\ntrials = 1000\nz0 = sideways\n"
        )
        assert cli.main(["validate", str(config)]) == 1
        out = capsys.readouterr().out
        assert f"{config}:4" in out
        assert "z0" in out

    def test_seed_outside_64_bits_reports_line_number(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text(
            f"[diffusion]\ntrials = 10\nseed = {2**64}\n[born-bridge]\nseed = -1\n"
        )
        assert cli.main(["validate", str(config)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert f"{config}:3: seed must fit in 64 bits" in out
        assert f"{config}:5: seed must fit in 64 bits" in out

    def test_parse_error_reports_line_number(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("[curvature]\ntrials = 1\nwhat even is this\n")
        assert cli.main(["validate", str(config)]) == 1
        out = capsys.readouterr().out
        assert f"{config}:3" in out
        assert "key = value" in out

    def test_key_before_section_reported(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("trials = 5\n[curvature]\ntrials = 1\n")
        assert cli.main(["validate", str(config)]) == 1
        assert "before any [section]" in capsys.readouterr().out

    def test_unknown_section_and_key_reported(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text(
            "[warp-drive]\ntrials = 1\n\n[curvature]\ntrials = 1\nwheels = 4\n"
        )
        assert cli.main(["validate", str(config)]) == 1
        out = capsys.readouterr().out
        assert "unknown experiment 'warp-drive'" in out
        assert "unknown key 'wheels'" in out

    def test_unreadable_path_exits_2(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "nope.conf")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestRefusals:
    @pytest.mark.parametrize("text, line, message", REFUSALS.values(), ids=REFUSALS)
    def test_validate_and_run_refuse_alike(self, tmp_path, capsys, text, line,
                                           message):
        config = tmp_path / "bad.conf"
        config.write_text(text)
        assert cli.main(["validate", str(config)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith(f"{config}:{line}: ")
        assert message in out[0]

        name = text[1:text.index("]")]
        out_dir = tmp_path / "out"
        rc = cli.main([name, "--config", str(config), "--output-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()

    def test_every_section_at_its_defaults_validates(self, tmp_path, capsys):
        config = tmp_path / "defaults.conf"
        config.write_text("".join(
            f"[{name}]\nseed = 1\ntrials = {entry.default_trials}\n"
            + "".join(f"{key} = {default!r}\n"
                      for key, default in entry.schema.items())
            for name, entry in experiments.REGISTRY.items()
        ))
        assert cli.main(["validate", str(config)]) == 0
        assert capsys.readouterr().out == f"{config}: ok\n"


class TestParseConfigText:
    def test_sections_and_line_numbers(self):
        sections, diags = cli.parse_config_text(
            "[a]\nx = 1\n\n[b]\ny = 2\n"
        )
        assert not diags
        assert sections["a"]["x"] == ("1", 2)
        assert sections["b"]["_line"] == 4

    def test_comments_and_blank_lines_skipped(self):
        sections, diags = cli.parse_config_text(
            "# comment\n; also comment\n\n[a]\nx = 1\n"
        )
        assert not diags
        assert "a" in sections

    def test_last_duplicate_wins(self):
        sections, _ = cli.parse_config_text("[a]\nx = 1\nx = 2\n")
        assert sections["a"]["x"] == ("2", 3)
