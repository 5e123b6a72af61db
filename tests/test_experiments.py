"""Registry, config validation, runner outputs and determinism."""

import concurrent.futures.process
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hilbertbridge import cli
from hilbertbridge import experiments as ex
from hilbertbridge import position_measurement as pm
from hilbertbridge import spin_measurement as sm
from hilbertbridge import stats_util
from hilbertbridge.stats_util import RngStream
import reference_walks


EXPECTED_NAMES = {
    "spin-born", "position-born", "isotropy", "curvature",
    "uncertainty-identity", "decomposition", "ehrenfest",
    "hamiltonian-reconstruct", "born-bridge", "action-equivalence",
    "continuity", "diffusion", "state-msd", "estimates",
}


class TestRegistry:
    def test_catalog_names(self):
        assert set(ex.experiment_names()) == EXPECTED_NAMES

    def test_catalog_count_matches_registry(self):
        assert len(ex.catalog()) == len(ex.REGISTRY) == 14

    def test_catalog_entries_have_description_and_topic(self):
        for name, description, topic in ex.catalog():
            assert name in EXPECTED_NAMES
            assert description
            assert topic


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ex.ExperimentConfig(experiment="nope")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            ex.ExperimentConfig(
                experiment="curvature", parameters={"bogus": 1}
            )

    def test_stochastic_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ex.ExperimentConfig(experiment="diffusion")

    def test_deterministic_runs_without_seed(self):
        cfg = ex.ExperimentConfig(experiment="curvature")
        assert cfg.resolved_seed == 0
        assert cfg.resolved_trials == 1

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            ex.ExperimentConfig(experiment="curvature", format="xml")

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            ex.ExperimentConfig(experiment="curvature", trials=0)

    def test_string_values_coerced(self):
        cfg = ex.ExperimentConfig(
            experiment="spin-born",
            parameters={"z0": "0.25", "max_steps": "1000"},
            seed=1,
        )
        assert cfg.parameters["z0"] == 0.25
        assert cfg.parameters["max_steps"] == 1000

    @pytest.mark.parametrize(
        "experiment, parameters",
        [("position-born", {"tau": "nan"}), ("spin-born", {"z0": float("inf")})],
    )
    def test_real_parameters_must_be_finite(self, experiment, parameters):
        with pytest.raises(ValueError, match="finite"):
            ex.ExperimentConfig(experiment=experiment, parameters=parameters, seed=1)

    def test_int_parameter_rejects_fraction(self):
        with pytest.raises(ValueError, match="integer"):
            ex.ExperimentConfig(
                experiment="curvature", parameters={"levels": 4.5}
            )
        with pytest.raises(ValueError, match="parameter 'max_steps': .*integer"):
            ex.ExperimentConfig("spin-born", {"max_steps": float("inf")}, seed=1)

    def test_defaults_fill_missing_parameters(self):
        cfg = ex.ExperimentConfig(experiment="spin-born", seed=3)
        assert cfg.parameters["step_angle"] == 0.02
        assert cfg.parameters["absorb_eps"] == 0.005


class TestParameterCoercion:
    """A parameter's kind is its default's type."""

    def test_int_from_string(self):
        assert ex._coerce(0, "42") == 42

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValueError):
            ex._coerce(0, True)


class TestCriterionCheck:
    def test_abs_mode(self):
        assert ex.CriterionCheck("c", 1.05, 1.0, 0.1, "abs", "oracle").passed
        assert not ex.CriterionCheck("c", 1.2, 1.0, 0.1, "abs", "oracle").passed

    def test_rel_mode(self):
        assert ex.CriterionCheck("c", 101.0, 100.0, 0.02, "rel", "oracle").passed
        assert not ex.CriterionCheck("c", 105.0, 100.0, 0.02, "rel", "oracle").passed

    def test_ge_and_le_modes(self):
        assert ex.CriterionCheck("c", 0.5, 0.001, 0.0, "ge", "oracle").passed
        assert ex.CriterionCheck("c", 1e-9, 1e-6, 0.0, "le", "oracle").passed
        assert not ex.CriterionCheck("c", 1e-3, 1e-6, 0.0, "le", "oracle").passed

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            ex.CriterionCheck("c", 1.0, 1.0, 0.1, "between", "oracle").passed

    def test_as_dict_pairs_reference_and_tolerance(self):
        d = ex.CriterionCheck("c", 1.0, 1.0, 0.1, "abs", "closed-form").as_dict()
        assert set(d) == {
            "name", "measured", "reference", "tolerance", "mode", "source",
            "passed",
        }


class TestRunCurvature:
    def test_all_checks_pass_and_files_written(self, tmp_path):
        cfg = ex.ExperimentConfig(
            experiment="curvature", output_dir=str(tmp_path)
        )
        summary = ex.run(cfg)
        assert summary.passed
        assert (tmp_path / "curvature-trials.csv").exists()
        assert (tmp_path / "curvature-summary.json").exists()

    def test_summary_json_checks_carry_reference_and_tolerance(self, tmp_path):
        cfg = ex.ExperimentConfig(
            experiment="curvature", output_dir=str(tmp_path)
        )
        ex.run(cfg)
        payload = json.loads((tmp_path / "curvature-summary.json").read_text())
        assert payload["experiment"] == "curvature"
        assert payload["passed"] is True
        for check in payload["checks"]:
            assert "reference" in check
            assert "tolerance" in check
            assert check["source"] in ("closed-form", "definition", "oracle")

    def test_csv_header_matches_columns(self, tmp_path):
        cfg = ex.ExperimentConfig(
            experiment="curvature", output_dir=str(tmp_path)
        )
        ex.run(cfg)
        header = (tmp_path / "curvature-trials.csv").read_text().splitlines()[0]
        assert header == "case,curvature"

    def test_wall_time_excluded_from_summary_json(self, tmp_path):
        cfg = ex.ExperimentConfig(
            experiment="curvature", output_dir=str(tmp_path)
        )
        summary = ex.run(cfg)
        assert summary.wall_time_s > 0
        payload = json.loads((tmp_path / "curvature-summary.json").read_text())
        assert "wall_time_s" not in payload


class TestHonestFailure:
    def test_estimates_failure_still_writes_outputs(self, tmp_path):
        cfg = ex.ExperimentConfig(
            experiment="estimates", output_dir=str(tmp_path)
        )
        summary = ex.run(cfg)
        assert not summary.passed
        by_name = {c.name: c for c in summary.checks}
        # the electron-wavelength velocity and acceleration rates land
        # outside their order-of-magnitude bands; the other two are inside
        assert not by_name["log10_velocity_term"].passed
        assert not by_name["log10_acceleration_term"].passed
        assert by_name["log10_spreading_term"].passed
        assert by_name["log10_photon_density"].passed
        assert (tmp_path / "estimates-summary.json").exists()


class TestPositionBorn:
    def test_single_merged_cell_reports_untestable(self, tmp_path):
        # at N = 2, 400 trials and seed 38 the smaller cell expects fewer
        # than 5 counts, so merging leaves one cell and no chi-square test
        cfg = ex.ExperimentConfig(
            experiment="position-born", parameters={"n_cells": 2},
            seed=38, trials=400, output_dir=str(tmp_path),
        )
        summary = ex.run(cfg)
        by_name = {c.name: c for c in summary.checks}
        assert by_name["chi_square_p_value"].measured == 0.0
        assert not by_name["chi_square_p_value"].passed
        assert (tmp_path / "position-born-summary.json").exists()

    def test_run_builds_its_inputs_once(self, tmp_path, monkeypatch):
        entry = ex.REGISTRY["position-born"]
        calls = []

        def inputs(cfg):
            calls.append(cfg)
            return entry.inputs(cfg)

        # under both names a run could reach the hook by
        monkeypatch.setattr(ex, entry.inputs.__name__, inputs)
        monkeypatch.setitem(ex.REGISTRY, "position-born",
                            dataclasses.replace(entry, inputs=inputs))
        cfg = ex.ExperimentConfig("position-born", {"n_cells": 2}, seed=3,
                                  trials=4, output_dir=str(tmp_path))
        ex.run(cfg)
        assert calls == [cfg]


class TestDeterminism:
    def test_worker_chunks_cover_range_in_order(self):
        chunks = stats_util._trial_ranges(10, 3)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 10
        for (a, b), (c, d) in zip(chunks, chunks[1:]):
            assert b == c

    def test_spin_born_outputs_identical_at_1_and_8_workers(self, tmp_path,
                                                            monkeypatch):
        dirs = []
        for workers in (1, 8):
            monkeypatch.setenv("HB_THREADS", str(workers))
            out = tmp_path / f"w{workers}"
            cfg = ex.ExperimentConfig(
                experiment="spin-born",
                parameters={"z0": 0.0},
                seed=11,
                trials=400,
                output_dir=str(out),
            )
            ex.run(cfg)
            dirs.append(out)
        for fname in ("spin-born-trials.csv", "spin-born-summary.json"):
            a = (dirs[0] / fname).read_bytes()
            b = (dirs[1] / fname).read_bytes()
            assert a == b

    def test_position_born_outputs_identical_at_1_and_8_workers(
            self, tmp_path, monkeypatch):
        made = []

        class Recorded(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recorded)
        dirs = []
        for workers in (1, 8):
            monkeypatch.setenv("HB_THREADS", str(workers))
            out = tmp_path / f"w{workers}"
            cfg = ex.ExperimentConfig(
                experiment="position-born",
                parameters={"n_cells": 4},
                seed=11,
                trials=2 * pm.MIN_TRIALS_PER_PROCESS,
                output_dir=str(out),
            )
            ex.run(cfg)
            dirs.append(out)
        assert made == [(1,)]
        for fname in ("position-born-trials.csv", "position-born-summary.json"):
            a = (dirs[0] / fname).read_bytes()
            b = (dirs[1] / fname).read_bytes()
            assert a == b

    def test_born_bridge_outputs_identical_at_1_and_2_workers(self, tmp_path, monkeypatch):
        made = []

        class Recorded(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recorded)
        blobs = {}
        forked = {}
        two_ranges = 2 * ex._MIN_PAIRS_PER_PROCESS + 1
        # and the registry test's 2 pairs, which fork nothing
        for workers, pairs in ((1, two_ranges), (2, two_ranges), (2, 2)):
            monkeypatch.setenv("HB_THREADS", str(workers))
            out = tmp_path / f"w{workers}-{pairs}"
            made.clear()
            ex.run(ex.ExperimentConfig("born-bridge", seed=13, trials=pairs,
                                       output_dir=str(out)))
            forked[workers, pairs] = list(made)
            blobs[workers, pairs] = [(out / f"born-bridge-{part}").read_bytes()
                                     for part in ("trials.csv", "summary.json")]
        assert forked == {(1, two_ranges): [], (2, two_ranges): [(1,)], (2, 2): []}
        assert blobs[1, two_ranges] == blobs[2, two_ranges]
        assert blobs[2, two_ranges][0].count(b"\n") == two_ranges + 1

    def test_json_trials_format(self, tmp_path):
        cfg = ex.ExperimentConfig(
            experiment="spin-born",
            parameters={"z0": 0.0},
            seed=11,
            trials=200,
            output_dir=str(tmp_path),
            format="json",
        )
        ex.run(cfg)
        records = json.loads((tmp_path / "spin-born-trials.json").read_text())
        assert len(records) == 200
        assert set(records[0]) == {"trial", "result", "steps", "final_z"}

    def test_rerun_is_byte_identical(self, tmp_path):
        blobs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            cfg = ex.ExperimentConfig(
                experiment="diffusion", seed=5, trials=10_000,
                output_dir=str(out),
            )
            ex.run(cfg)
            blobs.append((out / "diffusion-trials.csv").read_bytes())
        assert blobs[0] == blobs[1]

    # each run first prints a digest of lstsq on the experiment's design
    # matrix, then writes the experiment's files
    _LSTSQ_THEN_RUN = """
import hashlib, sys
import numpy as np
from hilbertbridge import cli, experiments as ex, packet_dynamics as pd
design = pd.commutator_design(*ex.prepare(ex.ExperimentConfig("hamiltonian-reconstruct")))
b = np.random.default_rng(0).normal(size=design.shape[0])
print(hashlib.sha256(np.linalg.lstsq(design, b, rcond=None)[0].tobytes()).hexdigest())
sys.exit(cli.main(["hamiltonian-reconstruct", "--output-dir", sys.argv[1]]))
"""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="lstsq's least-squares solve rounds differently on one "
                              "OpenBLAS thread than on two; the fix changes the bytes")
    def test_hamiltonian_reconstruct_outputs_identical_at_1_and_2_blas_threads(self,
                                                                                tmp_path):
        src = Path(ex.__file__).resolve().parents[1]
        probes, blobs = [], []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", self._LSTSQ_THEN_RUN, str(out)],
                                 env=env, capture_output=True, text=True, check=True)
            probes.append(run.stdout.split()[0])
            blobs.append([(out / f"hamiltonian-reconstruct-{part}").read_bytes()
                          for part in ("trials.csv", "summary.json")])
        if probes[0] == probes[1]:
            pytest.skip("this BLAS rounds lstsq alike on 1 and 2 threads (one CPU, "
                        "another library or another kernel)")
        assert blobs[0] == blobs[1]


# (trials, parameters) small enough to run the whole registry in a few seconds;
# the experiments not listed run at their registry defaults
SMALL_RUNS = {
    "spin-born": (400, {}),
    "position-born": (200, {"n_cells": 3}),
    "isotropy": (100, {"n_cells": 3}),
    "born-bridge": (2, {}),
    "diffusion": (10_000, {}),
    "state-msd": (100, {}),
}


@pytest.mark.parametrize("name", ex.REGISTRY)
def test_every_experiment_writes_both_files_and_reruns_to_the_same_bytes(name, tmp_path):
    trials, parameters = SMALL_RUNS.get(name, (None, {}))
    blobs = []
    for run_dir in ("a", "b"):
        cfg = ex.ExperimentConfig(name, parameters, seed=7, trials=trials,
                                  output_dir=str(tmp_path / run_dir))
        ex.run(cfg)
        paths = [tmp_path / run_dir / f"{name}-{part}" for part in ("trials.csv",
                                                                   "summary.json")]
        blobs.append([path.read_bytes() for path in paths])
    assert blobs[0] == blobs[1]


class TestWalksAgainstReference:
    """Trials files of the walk experiments against the per-kick reference walks."""

    @staticmethod
    def rows(path):
        with open(path, newline="") as f:
            return [list(row.values()) for row in csv.DictReader(f)]

    def test_forked_spin_born_rows_equal_reference(self, tmp_path, monkeypatch):
        made = []

        class Recorded(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
        monkeypatch.setattr(sm, "MIN_TRIALS_PER_PROCESS", 8)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recorded)
        cfg = ex.ExperimentConfig("spin-born", {"z0": 0.4}, seed=40, trials=40,
                                  output_dir=str(tmp_path))
        ex.run(cfg)
        assert made == [(1,)]
        rows = self.rows(tmp_path / "spin-born-trials.csv")
        p = cfg.parameters
        params = sm.SpinWalkParams(dt=p["step_angle"], field_std=1.0, mu=1.0,
                                   absorb_eps=p["absorb_eps"], max_steps=p["max_steps"],
                                   seed=40)
        # both ends of both processes' ranges and a few seeded picks
        picks = {0, 19, 20, 39, *RngStream(40).generator().choice(40, 4).tolist()}
        for t in sorted(picks):
            out = reference_walks.run_walk(ex._spinor_at_height(0.4), params, t)
            fin = out.final_state[None, :]
            z = (np.abs(fin[:, 1]) ** 2 - np.abs(fin[:, 0]) ** 2)[0]
            assert rows[t] == [str(t), out.result.value, str(out.steps), "%.17g" % z]

    def test_position_born_rows_equal_reference(self, tmp_path):
        cfg = ex.ExperimentConfig("position-born", {"n_cells": 3}, seed=41,
                                  trials=12, output_dir=str(tmp_path))
        ex.run(cfg)
        rows = self.rows(tmp_path / "position-born-trials.csv")
        p = cfg.parameters
        params = pm.PositionWalkParams(tau=p["tau"], v_std=p["v_std"],
                                       absorb_eps=p["absorb_eps"],
                                       max_steps=p["max_steps"], seed=41)
        # the runner's start amplitudes come from the reserved substream 2⁶³
        gen = RngStream(41, 2**63).generator()
        raw = gen.normal(size=3) + 1j * gen.normal(size=3)
        state0 = pm.CellState(raw / np.linalg.norm(raw))
        cells = []
        for t in range(12):
            out = reference_walks.run_measurement(state0, params, t)
            cells.append(-1 if out.cell is None else out.cell)
            assert rows[t] == [str(t), str(cells[-1]), str(out.steps)]
        assert -1 in cells and max(cells) >= 0


class TestWorkers:
    def test_env_variable_caps_workers(self, monkeypatch):
        monkeypatch.setenv("HB_THREADS", "3")
        assert ex.resolve_workers() == 3

    def test_unset_env_defaults_to_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("HB_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert ex.resolve_workers() == 3

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("HB_THREADS", "many")
        with pytest.raises(ValueError, match="HB_THREADS"):
            ex.resolve_workers()
        monkeypatch.setenv("HB_THREADS", "0")
        with pytest.raises(ValueError, match="HB_THREADS"):
            ex.resolve_workers()


class TestMemoryBudget:
    @pytest.fixture
    def four_gib(self, monkeypatch):
        """A machine with 4 GiB of memory (a 2 GiB budget) whose walks and sized
        experiments never run, so a refusal that fails allocates nothing."""
        pages = {"SC_PHYS_PAGES": 2**20, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert ex.memory_budget() == 2**31

        def must_not_run(cfg, *inputs):
            raise AssertionError("the run started")

        for name in ("spin-born", "position-born", "isotropy", "diffusion", "state-msd",
                     "uncertainty-identity", "born-bridge"):
            entry = dataclasses.replace(ex.REGISTRY[name], runner=must_not_run)
            monkeypatch.setitem(ex.REGISTRY, name, entry)

    @pytest.mark.parametrize("experiment, trials, parameters", [
        ("spin-born", 5_000_000, {}),
        ("position-born", 6_000_000, {}),
        # one block of 8 kicks' (N, N) draws for 2048 trials takes 34 GiB
        ("position-born", 2048, {"n_cells": 256}),
    ])
    def test_run_over_budget_is_refused_before_any_work(
            self, four_gib, tmp_path, experiment, trials, parameters):
        cfg = ex.ExperimentConfig(experiment, parameters, seed=1, trials=trials,
                                  output_dir=str(tmp_path / "out"))
        with pytest.raises(ex.MemoryBudgetError, match="GiB budget"):
            ex.run(cfg)
        assert not tmp_path.joinpath("out").exists()

    def test_estimate_grows_with_trials_processes_and_format(self, monkeypatch):
        monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)

        def estimate(ensemble_bytes):
            def at(processes, *args):
                monkeypatch.setenv("HB_THREADS", str(processes))
                return ensemble_bytes(*args)
            return at

        spin = estimate(sm.ensemble_bytes)
        assert spin(1, 10_000) < spin(1, 1_000_000) < spin(2, 1_000_000)
        # one process holds a block of fields, 24 bytes a trial-step: 2¹⁸
        # trial-steps (6 MiB), but at least 32 kicks for each trial
        assert spin(1, 2_000) > 24 * 2**18
        assert spin(1, 10_000) > 24 * 32 * 10_000
        # past one batch, a cell-walk trial adds its cell and steps (16 bytes)
        # and its final state (16·N bytes), held twice while batches are joined
        cell = estimate(pm.ensemble_bytes)
        assert cell(1, 20_000, 8) - cell(1, 10_000, 8) == 10_000 * 2 * (16 + 16 * 8)
        assert cell(1, 20_000, 8) < cell(2, 20_000, 8)
        assert cell(1, 10_000, 30) - cell(1, 5_000, 30) == 5_000 * 2 * 496
        # the run adds its rows: 400 bytes a CSV trial, 1400 a JSON one
        walk = spin(1, 10_000)
        monkeypatch.setattr(ex, "memory_budget", lambda: walk + 1000 * 10_000)
        ex.prepare(ex.ExperimentConfig("spin-born", seed=1, trials=10_000))
        with pytest.raises(ex.MemoryBudgetError):
            ex.prepare(ex.ExperimentConfig("spin-born", seed=1, trials=10_000,
                                           format="json"))

    def test_state_msd_estimate_stops_growing_with_n_steps(self, four_gib, monkeypatch):
        # the cell walk hands its states over a window of steps at a time, so
        # 3000 trials of 10⁴ steps at N = 4 fit a 2 GiB budget, and 10⁶ steps
        # hold no more
        monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
        assert pm.msd_bytes(3000, 4, 10**4) == pm.msd_bytes(3000, 4, 10**6) < 2**27
        ex.prepare(ex.ExperimentConfig("state-msd", {"n_steps": 10**4}, seed=1, trials=3000))

    @pytest.mark.memory
    @pytest.mark.parametrize("experiment", ["decomposition", "ehrenfest", "continuity"])
    def test_packet_grid_peak_stays_under_estimate(self, experiment, tmp_path,
                                                   monkeypatch):
        cfg = ex.ExperimentConfig(experiment, {"spacing_frac": 1e-4},
                                  output_dir=str(tmp_path))
        inputs = ex.prepare(cfg)
        assert inputs[1].extent[0] > 10**5
        tracemalloc.start()
        try:
            ex.REGISTRY[experiment].runner(cfg, *inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ex._GRID_POINT_BYTES * inputs[1].extent[0]
        # so a budget the run would exceed refuses it
        monkeypatch.setattr(ex, "memory_budget", lambda: peak)
        with pytest.raises(ex.MemoryBudgetError, match="raise spacing_frac"):
            ex.prepare(cfg)

    @pytest.mark.memory
    @pytest.mark.parametrize("experiment", ["curvature", "hamiltonian-reconstruct"])
    @pytest.mark.parametrize("levels", [24, 40])
    def test_levels_peak_stays_under_estimate(self, experiment, levels, tmp_path,
                                              monkeypatch):
        cfg = ex.ExperimentConfig(experiment, {"levels": levels}, output_dir=str(tmp_path))
        needs = []
        with monkeypatch.context() as m:
            m.setattr(ex, "_require_budget", lambda need, what, remedy: needs.append(need))
            inputs = ex.prepare(cfg)
        tracemalloc.start()
        try:
            ex.REGISTRY[experiment].runner(cfg, *inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # lstsq's copy and work are malloc'd by LAPACK's wrapper, not traced;
        # the estimate counts them too
        assert len(needs) == 1 and peak < needs[0]
        monkeypatch.setattr(ex, "memory_budget", lambda: peak)
        with pytest.raises(ex.MemoryBudgetError, match="lower levels"):
            ex.prepare(cfg)

    @pytest.mark.memory
    # sizes numpy would refuse at once (80 GB and up) should the estimate go
    @pytest.mark.parametrize("experiment", ["curvature", "hamiltonian-reconstruct"])
    @pytest.mark.parametrize("levels", [10**5, 10**6, 10**12])
    def test_absurd_levels_are_refused_before_any_allocation(
            self, four_gib, tmp_path, experiment, levels):
        cfg = ex.ExperimentConfig(experiment, {"levels": levels},
                                  output_dir=str(tmp_path / "out"))
        tracemalloc.start()
        try:
            with pytest.raises(ex.MemoryBudgetError, match="lower levels"):
                ex.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert not tmp_path.joinpath("out").exists()

    @pytest.mark.memory
    @pytest.mark.parametrize("experiment, trials, parameters, remedy", [
        ("isotropy", 300, {"n_cells": 8, "samples": 20_000}, "lower samples"),
        ("diffusion", 60_000, {"dt": 0.002}, "lower --trials"),
        ("diffusion", 10_000, {"dt": 1e-4, "t_final": 0.4}, "raise dt"),
        ("state-msd", 400, {"n_cells": 8, "n_steps": 30}, "lower --trials"),
        # two batches of cell states handed over in windows of 62 steps (8 MiB)
        ("state-msd", 2100, {"n_cells": 4, "n_steps": 300}, "lower --trials"),
        ("uncertainty-identity", 6, {"max_levels": 400}, "lower max_levels"),
        ("uncertainty-identity", 20_000, {}, "lower --trials"),
        ("born-bridge", 6, {}, "lower --trials"),
    ])
    def test_size_peak_stays_under_estimate(self, experiment, trials, parameters, remedy,
                                            tmp_path, monkeypatch):
        import scipy.fft
        import scipy.special  # noqa: F401  (imported before tracing, as a run has them)

        cfg = ex.ExperimentConfig(experiment, parameters, seed=4, trials=trials,
                                  output_dir=str(tmp_path))
        needs = []
        with monkeypatch.context() as m:
            m.setattr(ex, "_require_budget", lambda need, what, remedy: needs.append(need))
            inputs = ex.prepare(cfg)
        monkeypatch.setenv("HB_THREADS", "1")
        tracemalloc.start()
        try:
            result = ex.REGISTRY[experiment].runner(cfg, *inputs)
            summary = ex.RunSummary(experiment, cfg.parameters, 4, trials, result.checks, 0.0)
            ex.write_outputs(summary, result, cfg.output_dir, cfg.format)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(needs) == 1 and peak < needs[0]
        monkeypatch.setattr(ex, "memory_budget", lambda: peak)
        with pytest.raises(ex.MemoryBudgetError, match=remedy):
            ex.prepare(cfg)

    @pytest.mark.memory
    # each size alone would take terabytes, or 10¹⁵ steps
    @pytest.mark.parametrize("experiment, trials, parameters", [
        ("isotropy", 10**12, {}),
        ("isotropy", 100, {"samples": 10**12}),
        ("isotropy", 100, {"n_cells": 10**6}),
        ("diffusion", 10**12, {}),
        ("diffusion", 1, {"dt": 1e-15}),
        ("state-msd", 10**12, {}),
        ("state-msd", 100, {"n_cells": 10**6}),
        ("state-msd", 100, {"n_steps": 10**15}),
        ("uncertainty-identity", 3, {"max_levels": 10**6}),
        ("uncertainty-identity", 10**12, {}),
        ("born-bridge", 10**12, {}),
    ])
    def test_absurd_sizes_are_refused_before_any_allocation(
            self, four_gib, tmp_path, experiment, trials, parameters):
        cfg = ex.ExperimentConfig(experiment, parameters, seed=1, trials=trials,
                                  output_dir=str(tmp_path / "out"))
        tracemalloc.start()
        try:
            with pytest.raises(ex.MemoryBudgetError, match="GiB budget"):
                ex.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert not tmp_path.joinpath("out").exists()

    def test_cli_exits_2_with_message(self, four_gib, tmp_path, capsys):
        rc = cli.main(["spin-born", "--seed", "1", "--trials", "5000000",
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "lower --trials" in capsys.readouterr().err
        assert not tmp_path.joinpath("out").exists()


class TestCellFormatting:
    def test_floats_serialized_at_17_significant_digits(self):
        assert ex._format_cell(0.1) == "0.10000000000000001"
        assert float(ex._format_cell(np.float64(1 / 3))) == 1 / 3

    def test_ints_and_strings_pass_through(self):
        assert ex._format_cell(42) == "42"
        assert ex._format_cell("UP") == "UP"
