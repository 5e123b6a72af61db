"""The one block loop at drawn cut points: every walk's bytes stay put.

All four walks kick on ``stats_util.kicked_windows``.  Whatever the batch
widths, block lengths, scan and hand-over windows and process count, each
walk must give the bytes of its one-process run at the default constants,
and its trials must equal the per-kick walks of ``reference_walks``.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_walks
from hilbertbridge import density_diffusion, stats_util
from hilbertbridge import position_measurement as pm
from hilbertbridge import spin_measurement as sm

# within 70 kicks some spin walks reach the |z| ≥ 0.9 caps and some do not
SPIN = sm.SpinWalkParams(dt=0.05, field_std=1.0, absorb_eps=0.05, max_steps=70, seed=17)
PHI0 = np.array([np.sqrt(0.125), np.sqrt(0.875)], dtype=complex)  # z = 0.75
# 0.899 of the mass just outside the 0.9 cap: within 40 kicks some cell
# walks absorb and some do not
CELL = pm.PositionWalkParams(tau=0.05, v_std=1.0, absorb_eps=0.1, max_steps=40, seed=19)
STATE0 = pm.CellState(np.sqrt(np.r_[0.899, np.full(3, 0.101 / 3)]) * np.exp(1j * np.arange(4)))
MSD_STEPS = 13

# the cut constants and the ranges they are drawn from
CUTS = {
    (sm, "_MAX_BATCH"): st.integers(1, 40),
    (sm, "_BLOCK_BUDGET"): st.integers(1, 2**13),
    # a ring of one slot would kick each state onto itself
    (sm, "_SCAN"): st.integers(2, 20),
    (pm, "_BATCH"): st.integers(1, 40),
    (pm, "_BLOCK_BYTES"): st.integers(1, 2**22),
    (pm, "_WINDOW_BYTES"): st.integers(1, 2**15),
}


def free_states(walk, start, trials, params):
    """(trials, MSD_STEPS, dim) states of a state-msd walk, its windows joined."""
    windows = walk._free_windows(start, trials, params, MSD_STEPS)
    return np.concatenate([w.copy() for w in windows], axis=1)


def run_walks(trials):
    """The four walks' outputs: spin and cell absorbing, then spin and cell state-msd."""
    spin = sm.run_ensemble(PHI0, trials, SPIN)
    cell = stats_util.walk_ranges(
        lambda count, offset: pm._walk_batch(STATE0, CELL, count, offset),
        trials, pm.MIN_TRIALS_PER_PROCESS, pm._BATCH)
    return {
        "spin": ([r.value for r in spin[0]], *spin[1:]),
        "cell": cell,
        "spin-msd": (density_diffusion._mean_square_angles(PHI0, SPIN, MSD_STEPS, trials),
                     free_states(sm, PHI0, trials, SPIN)),
        "cell-msd": (density_diffusion._mean_square_angles(STATE0, CELL, MSD_STEPS, trials),
                     free_states(pm, STATE0, trials, CELL)),
    }


def same_bytes(a, b) -> bool:
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
               for x, y in zip(a, b, strict=True))


_DEFAULTS = {}


def default_run(monkeypatch, trials):
    """The walks in one process at the default constants, run once per trial count."""
    if trials not in _DEFAULTS:
        with monkeypatch.context() as m:
            m.setenv("HB_THREADS", "1")
            _DEFAULTS[trials] = run_walks(trials)
    return _DEFAULTS[trials]


def assert_trial_is_the_reference(run, t):
    codes, steps, finals = run["spin"]
    want = reference_walks.run_walk(PHI0, SPIN, stream_id=t)
    assert (codes[t], steps[t]) == (want.result.value, want.steps)
    assert finals[t].tobytes() == want.final_state.tobytes()
    cells, steps, finals = run["cell"]
    want = reference_walks.run_measurement(STATE0, CELL, stream_id=t)
    assert (cells[t], steps[t]) == (-1 if want.cell is None else want.cell, want.steps)
    assert finals[t].tobytes() == want.final_state.amplitudes.tobytes()
    # a free walk is an absorbing one whose caps it cannot reach in time
    never = dataclasses.replace(SPIN, absorb_eps=1e-9, max_steps=MSD_STEPS)
    want = reference_walks.run_walk(PHI0, never, stream_id=t)
    assert want.steps == MSD_STEPS
    assert run["spin-msd"][1][t, -1].tobytes() == want.final_state.tobytes()
    kicked = reference_walks.eigh_states(STATE0, CELL, stream_id=t)
    want = [next(kicked)[0] for _ in range(MSD_STEPS + 1)][1:]
    assert run["cell-msd"][1][t].tobytes() == np.array(want).tobytes()


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trials=st.integers(1, 40), processes=st.integers(1, 2),
       cuts=st.fixed_dictionaries(CUTS), data=st.data())
def test_walks_give_the_default_bytes_at_any_cut(monkeypatch, forks, trials, processes,
                                                 cuts, data):
    want = default_run(monkeypatch, trials)
    forks.clear()
    with monkeypatch.context() as m:
        m.setattr(stats_util, "cpu_count", lambda: 2)
        m.setenv("HB_THREADS", str(processes))
        # every range of one trial or more is worth a process
        m.setattr(sm, "MIN_TRIALS_PER_PROCESS", 1)
        m.setattr(pm, "MIN_TRIALS_PER_PROCESS", 1)
        m.setattr(pm, "_MIN_MSD_KICKS_PER_PROCESS", 1)
        for (module, name), value in cuts.items():
            m.setattr(module, name, value)
        got = run_walks(trials)
    # the spin walk, the cell walk and both runs of the cell state-msd walk fork
    assert forks == stats_util._trial_ranges(trials, processes)[1:] * 4
    for walk in want:
        assert same_bytes(got[walk], want[walk]), walk
    assert_trial_is_the_reference(got, data.draw(st.integers(0, trials - 1), label="trial"))
