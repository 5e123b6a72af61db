"""Workload definitions and the correctness gate of the benchmark.

A workload is a fixed list of ``experiments.run`` calls built from the
benchmark seed.  One pass runs every call once; the benchmark repeats passes
of the same configs for as long as it measures.  Each call is one operation:
it fails if it raises or if the two files it writes are not the expected
bytes.  Expected bytes are either a recorded digest (``expected.json``) or,
for configs with none, checks against the library's scalar reference walks
and the identity checks that hold for any seed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path

SPIN_Z0 = 0.4

# the registry experiments that are not walk workloads, in registry order
REGISTRY_SWEEP = (
    "isotropy",
    "curvature",
    "uncertainty-identity",
    "decomposition",
    "ehrenfest",
    "hamiltonian-reconstruct",
    "born-bridge",
    "action-equivalence",
    "continuity",
    "diffusion",
    "state-msd",
    "estimates",
)

# trial counts; None keeps the registry default.  "full" is what the
# benchmark measures, "tiny" is for the self-test.
SIZES = {
    "full": {
        "spin-born": 8192,  # two ensemble batches, so a wider batch shows in RSS
        "cell-born-n8": 256,
        "born-bridge": 16,
    },
    "tiny": {
        "spin-born": 8,
        "cell-born-n8": 4,
        "born-bridge": 2,
        "isotropy": 100,
        "uncertainty-identity": 4,
        "state-msd": 100,
    },
}

WORKLOADS = ("spin-born", "cell-born-n8", "registry-sweep")

# summary checks that are identities, so they pass at every seed (the
# statistical checks of these experiments may go red at some seeds)
IDENTITY_CHECKS = {
    "isotropy": ("velocity_rank",),
    "uncertainty-identity": ("max_identity_deviation", "min_inequality_slack"),
    "born-bridge": (
        "max_distance_relation_dev",
        "max_density_identity_dev",
        "max_extension_dev",
    ),
    "diffusion": (),
    "state-msd": ("control_max_angle",),
}

REFERENCE_SAMPLES = 3  # seeded trials checked besides the first and last


@dataclasses.dataclass(frozen=True)
class Op:
    """One ``experiments.run`` call of a workload."""

    experiment: str
    parameters: dict
    seed: int | None
    trials: int | None

    @property
    def key(self) -> str:
        """Identifies the output bytes: same key, same bytes."""
        params = json.dumps(self.parameters, sort_keys=True)
        return f"{self.experiment}|seed={self.seed}|trials={self.trials}|{params}"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # kicks per pass when no trials file carries a steps column
    computed_kicks: int | None = None


def _spinor(z: float) -> list[complex]:
    return [complex(math.sqrt((1 - z) / 2)), complex(math.sqrt((1 + z) / 2))]


def _cell_start(lib, seed: int, n: int):
    """The start amplitudes ``position-born`` draws for ``seed``."""
    np = lib.np
    gen = lib.stats_util.RngStream(seed, 2**63).generator()
    raw = gen.normal(size=n) + 1j * gen.normal(size=n)
    return raw / np.linalg.norm(raw)


def build(lib, name: str, seed: int, size: str = "full") -> Workload:
    sizes = SIZES[size]
    if name == "spin-born":
        ops = (Op("spin-born", {"z0": SPIN_Z0}, seed, sizes["spin-born"]),)
        return Workload(name, ops)
    if name == "cell-born-n8":
        return Workload(name, (Op("position-born", {}, seed, sizes[name]),))
    if name == "registry-sweep":
        registry = lib.experiments.REGISTRY
        ops = tuple(
            Op(exp, {}, seed if registry[exp].stochastic else None,
               sizes.get(exp))
            for exp in REGISTRY_SWEEP
        )
        return Workload(name, ops, computed_kicks=_sweep_kicks(lib, ops))
    raise ValueError(f"unknown workload {name!r}")


def _sweep_kicks(lib, ops) -> int:
    """Walk kicks of the sweep, computed from its configs.

    isotropy kicks ``trials`` spinors twice (``isotropy_test`` and the row
    table each call ``tangent_displacements``); state-msd walks ``trials``
    spins and ``trials`` cells for ``n_steps`` each, and its tau = 0 control
    draws no kicks.
    """
    kicks = 0
    for op in ops:
        if op.experiment not in ("isotropy", "state-msd"):
            continue
        cfg = config(lib, op, ".")
        if op.experiment == "isotropy":
            kicks += 2 * cfg.resolved_trials
        else:
            kicks += 2 * cfg.resolved_trials * int(cfg.parameters["n_steps"])
    return kicks


def config(lib, op: Op, output_dir):
    return lib.experiments.ExperimentConfig(
        op.experiment,
        dict(op.parameters),
        seed=op.seed,
        trials=op.trials,
        output_dir=str(output_dir),
    )


def output_paths(op: Op, output_dir) -> tuple[Path, Path]:
    out = Path(output_dir)
    return (out / f"{op.experiment}-trials.csv",
            out / f"{op.experiment}-summary.json")


def digest(trials: bytes, summary: bytes) -> str:
    h = hashlib.sha256()
    for part in (trials, summary):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class Checker:
    """Decides whether one operation's output files are the expected bytes.

    ``expected`` maps ``Op.key`` to a recorded digest.  A key without one is
    checked semantically the first time it is seen in the process and must
    then repeat its bytes exactly on every later pass.
    """

    def __init__(self, lib, expected: dict[str, str]):
        self.lib = lib
        self.expected = expected
        self._seen: dict[str, str] = {}
        self._kicks: dict[str, int] = {}

    def check(self, op: Op, output_dir) -> str | None:
        """None when the outputs are correct, else the reason they are not."""
        trials_path, summary_path = output_paths(op, output_dir)
        try:
            trials = trials_path.read_bytes()
            summary = summary_path.read_bytes()
        except OSError as exc:
            return f"output missing: {exc}"
        got = digest(trials, summary)
        want = self.expected.get(op.key) or self._seen.get(op.key)
        if want is not None:
            err = None if got == want else f"digest {got[:12]} != {want[:12]}"
        else:
            try:
                err = self._semantic(op, trials.decode(), summary.decode())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                err = f"unreadable output: {exc!r}"
        if err is None and op.key not in self._kicks:
            self._seen[op.key] = got
            rows = _rows(trials.decode())
            self._kicks[op.key] = sum(int(r["steps"]) for r in rows if "steps" in r)
        return err

    def kicks(self, op: Op) -> int:
        """Sum of the steps column of the op's correct trials file (0 if none)."""
        return self._kicks.get(op.key, 0)

    # -- checks for configs without a recorded digest

    def _semantic(self, op: Op, trials: str, summary_text: str) -> str | None:
        summary = json.loads(summary_text)
        cfg = config(self.lib, op, ".")
        if summary["experiment"] != op.experiment:
            return "summary names another experiment"
        if summary["seed"] != cfg.resolved_seed or summary["trials"] != cfg.resolved_trials:
            return "summary seed or trials differ from the config"
        rows = _rows(trials)
        if not rows:
            return "trials file has no rows"
        if op.experiment == "spin-born":
            return self._spin(cfg, rows, summary)
        if op.experiment == "position-born":
            return self._cell(cfg, rows, summary)
        names = IDENTITY_CHECKS.get(op.experiment)
        if names is None:
            return f"no recorded digest for {op.key}"
        checks = {c["name"]: c for c in summary["checks"]}
        for name in names:
            if not checks[name]["passed"]:
                return f"identity check {name} failed"
        return None

    def _sample(self, cfg) -> list[int]:
        n = cfg.resolved_trials
        picks = random.Random(cfg.resolved_seed).sample(range(n), min(REFERENCE_SAMPLES, n))
        return sorted({0, n - 1, *picks})

    def _spin(self, cfg, rows, summary) -> str | None:
        lib, p = self.lib, cfg.parameters
        np, sm = lib.np, lib.spin_measurement
        if len(rows) != cfg.resolved_trials:
            return "row count differs from trials"
        n_down = sum(r["result"] == "DOWN" for r in rows)
        measured = {c["name"]: c["measured"] for c in summary["checks"]}
        if measured["p_down_height_rule"] != n_down / len(rows):
            return "p_down in the summary disagrees with the trials file"
        params = sm.SpinWalkParams(
            dt=p["step_angle"], field_std=1.0, mu=1.0,
            absorb_eps=p["absorb_eps"], max_steps=p["max_steps"],
            seed=cfg.resolved_seed,
        )
        phi0 = np.array(_spinor(p["z0"]))
        for t in self._sample(cfg):
            out = sm.run_walk(phi0, params, stream_id=t)
            fin = out.final_state[None, :]
            z = (np.abs(fin[:, 1]) ** 2 - np.abs(fin[:, 0]) ** 2)[0]
            want = [str(t), out.result.value, str(out.steps), "%.17g" % float(z)]
            if list(rows[t].values()) != want:
                return f"trial {t} differs from run_walk: {want}"
        return None

    def _cell(self, cfg, rows, summary) -> str | None:
        lib, p = self.lib, cfg.parameters
        pm = lib.position_measurement
        if len(rows) != cfg.resolved_trials:
            return "row count differs from trials"
        resolved = sum(int(r["cell"]) >= 0 for r in rows)
        measured = {c["name"]: c["measured"] for c in summary["checks"]}
        if measured["resolved_fraction"] != resolved / len(rows):
            return "resolved fraction in the summary disagrees with the trials file"
        params = pm.PositionWalkParams(
            tau=p["tau"], v_std=p["v_std"], absorb_eps=p["absorb_eps"],
            max_steps=p["max_steps"], seed=cfg.resolved_seed,
        )
        state0 = pm.CellState(_cell_start(lib, cfg.resolved_seed, int(p["n_cells"])))
        for t in self._sample(cfg):
            out = pm.run_measurement(state0, params, stream_id=t)
            cell = -1 if out.cell is None else out.cell
            want = [str(t), str(cell), str(out.steps)]
            if list(rows[t].values()) != want:
                return f"trial {t} differs from run_measurement: {want}"
        return None


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def load_expected(path: Path) -> dict[str, str]:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["digests"]
