"""Frozen synthetic CMAPSS-style fleets for the benchmark.

This is a vectorised copy of the synthetic model in
``subtrack.dataset.generate_synthetic`` as it stood when the benchmark was
written: healthy rows are ``c + B z + noise`` on a per-regime affine subspace,
and after the onset cycle an off-subspace drift grows linearly until failure.
The benchmark keeps its own copy so that its inputs stay fixed while the
package's generator changes.

Two random streams feed a fleet:

* the *design* stream, fixed per fleet spec, draws what CMAPSS fixes per
  dataset: the regime geometry, every unit's lifetime and every test unit's
  truncation point (hence the true RULs);
* the *data* stream, seeded from the benchmark's ``--seed``, draws the sensor
  realisation: the per-cycle regime, the in-subspace state and the noise.

A fixed design keeps the workload size and the quality metrics comparable
from seed to seed; the seed still changes every sensor value in the files.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_SETTINGS = 3
N_SENSORS = 21


@dataclass(frozen=True)
class FleetSpec:
    n_train: int
    n_test: int
    n_regimes: int
    subspace_dim: int = 3
    noise_std: float = 0.01
    drift_onset_fraction: float = 0.5
    drift_rate: float = 0.02
    min_cycles: int = 150
    max_cycles: int = 300
    min_test_cycles: int = 30
    design_seed: int = 2008


SPECS = {
    "fd001": FleetSpec(n_train=100, n_test=100, n_regimes=1),
    "fd004": FleetSpec(n_train=249, n_test=248, n_regimes=6),
}


@dataclass(frozen=True)
class Unit:
    unit_id: int
    settings: np.ndarray  # (L, 3)
    sensors: np.ndarray  # (L, 21)

    def __len__(self) -> int:
        return len(self.sensors)


@dataclass(frozen=True)
class Fleet:
    train: list[Unit]
    test: list[Unit]
    truths: list[int]  # withheld cycles of each test unit, in unit order


def _regimes(spec: FleetSpec, rng: np.random.Generator):
    """Per-regime (settings, center, basis, spreads, drift direction),
    stacked along the first axis."""
    settings, centers, bases, spreads, drifts = [], [], [], [], []
    for _ in range(spec.n_regimes):
        settings.append(
            np.zeros(N_SETTINGS)
            if spec.n_regimes == 1
            else rng.uniform(0.0, 100.0, N_SETTINGS)
        )
        centers.append(rng.uniform(-2.0, 2.0, N_SENSORS))
        basis, _ = np.linalg.qr(rng.standard_normal((N_SENSORS, spec.subspace_dim)))
        bases.append(basis)
        spreads.append(rng.uniform(0.5, 2.0, spec.subspace_dim))
        raw = rng.standard_normal(N_SENSORS)
        drift = raw - basis @ (basis.T @ raw)
        drifts.append(drift / np.linalg.norm(drift))
    return tuple(np.array(a) for a in (settings, centers, bases, spreads, drifts))


def _sample_rows(spec, regimes, lengths, rng):
    """Rows of every unit in one draw; returns per-unit (settings, sensors)."""
    settings, centers, bases, spreads, drifts = regimes
    total = int(lengths.sum())
    if spec.n_regimes > 1:
        k = rng.integers(spec.n_regimes, size=total)
    else:
        k = np.zeros(total, dtype=int)
    z = rng.standard_normal((total, spec.subspace_dim)) * np.sqrt(spreads[k])
    sensors = centers[k] + rng.standard_normal((total, N_SENSORS)) * spec.noise_std
    for r in range(spec.n_regimes):
        sel = k == r
        sensors[sel] += z[sel] @ bases[r].T

    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    onsets = (spec.drift_onset_fraction * lengths).astype(int)
    cycle = np.arange(total) - np.repeat(starts, lengths) + 1
    past_onset = np.maximum(0, cycle - np.repeat(onsets, lengths))
    sensors += (spec.drift_rate * past_onset)[:, None] * drifts[k]

    bounds = np.cumsum(lengths)[:-1]
    return list(zip(np.split(settings[k], bounds), np.split(sensors, bounds)))


def generate(spec: FleetSpec, seed: int) -> Fleet:
    """Train fleet run to failure, truncated test fleet and true RULs.

    Every test unit is cut before the longest training unit ends, so each one
    has at least one full-overlap candidate at lag 1.
    """
    design = np.random.default_rng(spec.design_seed)
    regimes = _regimes(spec, design)
    span = (spec.min_cycles, spec.max_cycles + 1)
    train_len = design.integers(*span, size=spec.n_train)
    test_len = design.integers(*span, size=spec.n_test)
    longest = int(train_len.max())
    keep = np.array(
        [
            design.integers(min(spec.min_test_cycles, n - 1), min(n, longest))
            for n in test_len
        ]
    )

    data = np.random.default_rng(seed)
    rows = _sample_rows(spec, regimes, np.concatenate([train_len, test_len]), data)
    train = [Unit(i + 1, s, x) for i, (s, x) in enumerate(rows[: spec.n_train])]
    test = [
        Unit(i + 1, s[:n], x[:n])
        for i, ((s, x), n) in enumerate(zip(rows[spec.n_train :], keep))
    ]
    return Fleet(train=train, test=test, truths=[int(v) for v in test_len - keep])


def write_cmapss(units: list[Unit], path: Path) -> None:
    """26-column CMAPSS text; floats written with repr so they read back exactly."""
    lines = []
    for u in units:
        values = np.hstack([u.settings, u.sensors]).tolist()
        for cycle, row in enumerate(values, start=1):
            lines.append(f"{u.unit_id} {cycle} " + " ".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n")


def write_truths(truths: list[int], path: Path) -> None:
    path.write_text("".join(f"{t}\n" for t in truths))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(fleet: Fleet, out: Path, unit_files: int) -> None:
    """train.txt, plus either test.txt and RUL.txt or, with `unit_files`,
    unit_NNN.txt and RUL_NNN.txt for that many leading test units."""
    out.mkdir(parents=True)
    write_cmapss(fleet.train, out / "train.txt")
    if not unit_files:
        write_cmapss(fleet.test, out / "test.txt")
        write_truths(fleet.truths, out / "RUL.txt")
    for unit, truth in zip(fleet.test[:unit_files], fleet.truths):
        write_cmapss([unit], out / f"unit_{unit.unit_id:03d}.txt")
        write_truths([truth], out / f"RUL_{unit.unit_id:03d}.txt")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Write one seeded benchmark fleet.")
    parser.add_argument("--fleet", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--unit-files", type=int, default=0)
    args = parser.parse_args(argv)
    write_inputs(generate(SPECS[args.fleet], args.seed), args.out, args.unit_files)


if __name__ == "__main__":
    main()
