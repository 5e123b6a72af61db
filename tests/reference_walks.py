"""Per-kick reference walks that the ensemble engines are checked against.

Each walk takes one trial one kick at a time, with the plainest kernel that
draws the same numbers: a spin walk that kicks a (1, 2) state with
:func:`_step_batch`, a cell walk that composes ``isotropic_step`` kicks,
and a cell walk with its own GUE formula and the ``eigh`` kick
``_apply_unitary_batch`` of the cell state-msd walk.  All four library
walks, the single walks included, run on one block loop,
``stats_util.kicked_windows``, so comparing an ensemble with them would
compare the loop with itself; the tests compare with these instead.
"""

import numpy as np

from hilbertbridge.position_measurement import (
    CellState,
    MeasurementOutcome,
    PositionWalkParams,
    _apply_unitary_batch,
    isotropic_step,
)
from hilbertbridge.spin_measurement import (
    SpinWalkParams,
    WalkOutcome,
    WalkResult,
    sample_field,
)
from hilbertbridge.stats_util import RngStream


def _step_batch(states: np.ndarray, fields: np.ndarray, params: SpinWalkParams) -> None:
    """Apply one kick to every row of ``states`` (modified in place)."""
    norms = np.linalg.norm(fields, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    bx, by, bz = (fields / safe[:, None]).T
    lam = params.mu * norms * params.dt / params.hbar
    c = np.cos(lam)
    s = 1j * np.sin(lam)
    p0, p1 = states[:, 0].copy(), states[:, 1].copy()
    states[:, 0] = c * p0 + s * (bz * p0 + (bx - 1j * by) * p1)
    states[:, 1] = c * p1 + s * ((bx + 1j * by) * p0 - bz * p1)


def run_walk(phi0, params: SpinWalkParams, stream_id: int = 0) -> WalkOutcome:
    """One spin walk, one kick at a time, until polar absorption or the budget."""
    phi = np.array(phi0, dtype=complex)[None, :]
    gen = RngStream(params.seed, stream_id).generator()
    for steps in range(params.max_steps + 1):
        z = abs(phi[0, 1]) ** 2 - abs(phi[0, 0]) ** 2
        if z >= params.absorb_z:
            return WalkOutcome(WalkResult.UP, steps, phi[0])
        if z <= -params.absorb_z:
            return WalkOutcome(WalkResult.DOWN, steps, phi[0])
        if steps == params.max_steps:
            break
        _step_batch(phi, sample_field(gen, params)[None, :], params)
    return WalkOutcome(WalkResult.UNRESOLVED, params.max_steps, phi[0])


def run_measurement(
    state0: CellState, params: PositionWalkParams, stream_id: int = 0
) -> MeasurementOutcome:
    """One cell walk, one kick at a time, until a cell holds 1 − absorb_eps."""
    state = state0
    gen = RngStream(params.seed, stream_id).generator()
    for steps in range(params.max_steps + 1):
        sq = np.square(state.amplitudes.view(float))
        masses = sq[0::2] + sq[1::2]
        top = int(np.argmax(masses))
        if masses[top] >= 1.0 - params.absorb_eps:
            return MeasurementOutcome(cell=top, steps=steps, final_state=state)
        if steps == params.max_steps:
            break
        state = isotropic_step(state, gen, params)
    return MeasurementOutcome(cell=None, steps=params.max_steps, final_state=state)


def eigh_states(state0: CellState, params: PositionWalkParams, stream_id: int):
    """The (1, N) states of a cell walk with eigh kicks, from the start on, never stopping."""
    psi = state0.amplitudes[None, :]
    n = psi.shape[1]
    gen = RngStream(params.seed, stream_id).generator()
    while True:
        yield psi
        m = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
        h = params.v_std * (m + m.conj().T) / 2
        psi = _apply_unitary_batch(psi, h[None], params)


def eigh_walk(state0: CellState, params: PositionWalkParams, stream_id: int):
    """``(cell or −1, steps)`` of a cell walk with eigh kicks and |C_n|² masses."""
    for step, psi in enumerate(eigh_states(state0, params, stream_id)):
        masses = np.abs(psi[0]) ** 2
        if masses.max() >= 1.0 - params.absorb_eps:
            return int(masses.argmax()), step
        if step == params.max_steps:
            return -1, step
