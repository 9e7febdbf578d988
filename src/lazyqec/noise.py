"""Circuit-level Pauli fault sampling and the perfect-measurement noise mode.

Every potential fault in a scheduled circuit is an entry of a *location
census*: one entry per ancilla preparation, per waiting qubit-timestep, per
CNOT and per ancilla measurement.  A preparation or wait faults with
probability ``p`` (Pauli uniform over X, Y, Z), a CNOT with probability ``p``
(uniform over the 15 non-identity two-qubit Paulis) and a measurement outcome
flips with probability ``2p/3``.

Randomness uses the counter-based Philox generator keyed on
``(seed, stream)``; derived streams, one per trial or per block of trials,
are therefore independent by construction and reproducible across runs and
worker counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .code_model import (
    CheckBasis,
    CircuitSchedule,
    Cnot,
    MeasureAncilla,
    PrepAncilla,
    Wait,
)


class NoiseMode(enum.Enum):
    CIRCUIT_LEVEL = "circuit"
    PERFECT_MEASUREMENT = "perfect"


@dataclass(frozen=True)
class NoiseParams:
    p: float
    mode: NoiseMode = NoiseMode.CIRCUIT_LEVEL

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"error rate must satisfy 0 <= p <= 1, got {self.p}")


class LocationKind(enum.Enum):
    PREP = "prep"
    WAIT = "wait"
    CNOT = "cnot"
    MEAS = "meas"


# Single-qubit Pauli choices and the 15 non-identity two-qubit Paulis, indexed
# by the sampler's choice integer.
SINGLE_PAULIS = ("X", "Y", "Z")
TWO_QUBIT_PAULIS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if not (a == "I" and b == "I")
)


@dataclass(frozen=True)
class FaultLocation:
    """One potential fault site in one round of the circuit."""

    index: int                 # index within the per-round census
    kind: LocationKind
    step: int                  # timestep the fault follows
    qubits: tuple[int, ...]    # one qubit, or (control, target) for a CNOT
    plaquette: int | None = None   # for measurement flips

    @property
    def n_choices(self) -> int:
        if self.kind is LocationKind.CNOT:
            return len(TWO_QUBIT_PAULIS)
        if self.kind is LocationKind.MEAS:
            return 1
        return len(SINGLE_PAULIS)

    def fault_probability(self, p: float) -> float:
        return 2.0 * p / 3.0 if self.kind is LocationKind.MEAS else p

    def pauli_label(self, choice: int) -> str:
        if self.kind is LocationKind.MEAS:
            return "MeasFlip"
        if self.kind is LocationKind.CNOT:
            return TWO_QUBIT_PAULIS[choice]
        return SINGLE_PAULIS[choice]


class FaultEvent(NamedTuple):
    """A sampled Pauli fault: where it happened and which Pauli it is."""

    round: int
    location: FaultLocation
    choice: int

    @property
    def pauli(self) -> str:
        return self.location.pauli_label(self.choice)


@lru_cache(maxsize=16)
def round_census(schedule: CircuitSchedule) -> tuple[FaultLocation, ...]:
    """Enumerate every fault location of a single extraction round."""
    out: list[FaultLocation] = []
    for step, events in enumerate(schedule.steps):
        for ev in events:
            if isinstance(ev, PrepAncilla):
                out.append(FaultLocation(len(out), LocationKind.PREP, step, (ev.qubit,)))
            elif isinstance(ev, Wait):
                out.append(FaultLocation(len(out), LocationKind.WAIT, step, (ev.qubit,)))
            elif isinstance(ev, Cnot):
                out.append(
                    FaultLocation(len(out), LocationKind.CNOT, step, (ev.control, ev.target))
                )
            elif isinstance(ev, MeasureAncilla):
                out.append(
                    FaultLocation(
                        len(out), LocationKind.MEAS, step, (ev.qubit,), plaquette=ev.plaquette
                    )
                )
    return tuple(out)


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands Philox its key as its seed sequence.  ``Philox(key=...)`` would
    first build a ``SeedSequence`` from OS entropy and then discard it."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


_COUNTER = np.zeros(4, dtype=np.uint64)   # copied by Philox: an array skips int parsing


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed on (seed, stream); the documented RNG of this package."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=_COUNTER))


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Disjoint per-trial stream derived from a master seed."""
    return make_rng(master_seed, trial + 1)


class FaultBlock(NamedTuple):
    """The faults of ``trials`` consecutive trials as parallel int arrays,
    one entry per fault, sorted by (trial, round, census index)."""

    trials: int
    trial: np.ndarray
    round: np.ndarray
    location: np.ndarray       # census index
    choice: np.ndarray


class FaultSampler:
    """Circuit-level faults over ``rounds`` repetitions of a location census.

    Each probability class, ``p`` (prep, wait, CNOT) and ``2p/3`` (measure),
    is one Bernoulli field over its flat (trial, round, location) indices,
    sampled exactly by geometric gaps from hit to hit.  The hits, merged in
    (trial, round, census index) order, then draw one uniform number each;
    ``u`` picks choice ``int(u * n_choices)``.
    """

    def __init__(self, census: tuple[FaultLocation, ...], rounds: int, p: float):
        self.census = census
        self.rounds = rounds
        self._n_choices = np.array([loc.n_choices for loc in census], dtype=np.int64)
        self._classes = []     # (probability, census indices)
        for q, meas in ((p, False), (2.0 * p / 3.0, True)):
            idx = [loc.index for loc in census if (loc.kind is LocationKind.MEAS) == meas]
            if q > 0.0 and idx and rounds:
                self._classes.append((q, np.array(idx, dtype=np.int64)))

    def sample_block(self, rng: np.random.Generator, trials: int) -> FaultBlock:
        """The faults of ``trials`` consecutive trials, drawn from one stream.

        Per class, the gaps come in batches of the mean hit count over the
        block plus four deviations, until the position passes the end; a gap
        past the end is clipped to it, which moves no hit and keeps the sum
        of a batch from overflowing.
        """
        span = self.rounds * len(self.census)   # sort keys of one trial
        keys = []
        for q, idx in self._classes:
            size = trials * self.rounds * idx.size
            batch = int(q * size + 4.0 * (q * size) ** 0.5) + 1
            pos = -1
            while pos < size:
                at = pos + np.cumsum(np.minimum(rng.geometric(q, batch), size + 1))
                pos = int(at[-1])
                at = at[: np.searchsorted(at, size)]
                row, j = np.divmod(at, idx.size)   # row = trial * rounds + round
                keys.append(row * len(self.census) + idx[j])
        key = np.sort(np.concatenate(keys)) if keys else np.zeros(0, dtype=np.int64)
        trial, rest = np.divmod(key, span)
        t, j = np.divmod(rest, len(self.census))
        choice = (rng.random(key.size) * self._n_choices[j]).astype(np.int64)
        return FaultBlock(trials, trial, t, j, choice)

    def sample(self, rng: np.random.Generator) -> list[FaultEvent]:
        """The faults of one trial: the one-trial view of ``sample_block``."""
        block = self.sample_block(rng, 1)
        census = self.census
        return [
            FaultEvent(t, census[j], c)
            for t, j, c in zip(block.round.tolist(), block.location.tolist(), block.choice.tolist())
        ]


def sample_faults(
    schedule: CircuitSchedule,
    rounds: int,
    noise: NoiseParams,
    seed: int,
    rng: np.random.Generator | None = None,
) -> list[FaultEvent]:
    """Sample circuit-level faults for ``rounds`` extraction rounds.

    Deterministic given ``(seed, schedule, rounds)``; pass ``rng`` to reuse an
    existing stream instead.
    """
    if noise.mode is not NoiseMode.CIRCUIT_LEVEL:
        raise ValueError("sample_faults requires circuit-level noise")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    return _schedule_sampler(schedule, rounds, noise.p).sample(make_rng(seed) if rng is None else rng)


@lru_cache(maxsize=16)
def _schedule_sampler(schedule: CircuitSchedule, rounds: int, p: float) -> FaultSampler:
    """Shared by every ``sample_faults`` call with these arguments: building a
    sampler walks the whole census, which cost several one-trial draws at
    d=5, and a sampler is never modified."""
    return FaultSampler(round_census(schedule), rounds, p)


@lru_cache(maxsize=None)
def _pauli_bits(label: str) -> tuple[int, int]:
    """(x, z) symplectic bits of a single-qubit Pauli label."""
    return {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[label]


def fault_pauli_bits(loc: FaultLocation, choice: int) -> tuple[tuple[int, int, int], ...]:
    """Expand a fault choice into per-qubit (qubit, x_bit, z_bit) entries.

    Measurement flips carry no Pauli frame and return an empty tuple.
    """
    if loc.kind is LocationKind.MEAS:
        return ()
    if loc.kind is LocationKind.CNOT:
        label = TWO_QUBIT_PAULIS[choice]
        out = []
        for q, ch in zip(loc.qubits, label):
            x, z = _pauli_bits(ch)
            if x or z:
                out.append((q, x, z))
        return tuple(out)
    x, z = _pauli_bits(SINGLE_PAULIS[choice])
    return ((loc.qubits[0], x, z),)
