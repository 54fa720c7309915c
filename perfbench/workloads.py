"""The benchmark's three workloads: set-up, one op, and its output check.

Each workload draws every input from a child seed of the workload
seed, so a seed names one exact set of inputs. One op is one unit of
user work, run serially in this process; see README.md for why each
workload exists and which layers it loads.

Workload code calls the program through module attributes
(``population.office_population``), never through names bound at
import, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import itertools
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.campaign import presets, runner, store
from repro.phy import backend_plan
from repro.protocol import population

#: Tier-1 gate of the hybrid vs all-Monte-Carlo round
#: (tests/test_population_scale.py).
DELIVERY_TOLERANCE = 0.03
BER_TOLERANCE = 0.02
#: The Fig. 17 shape check: PHY rate linear in device count.
LINEARITY_MIN_R = 0.99


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``full`` is what the benchmark measures; ``tiny``
    only proves that the harness and its schema work."""

    population_devices: int
    population_snr_scale_db: float
    device_counts: Tuple[int, ...]
    n_rounds: int
    warm_specs: int
    setup_repeats: int
    #: Ops whose hybrid round is re-run all-Monte-Carlo as a reference.
    reference_ops: Tuple[int, ...]


SCALES = {
    "full": Scale(
        population_devices=10_000,
        population_snr_scale_db=-26.0,
        device_counts=presets.DEFAULT_DEVICE_COUNTS,
        n_rounds=3,
        warm_specs=2,
        setup_repeats=3,
        reference_ops=(0, 10),
    ),
    "tiny": Scale(
        population_devices=1_000,
        population_snr_scale_db=-26.0,
        device_counts=(1, 16, 64),
        n_rounds=1,
        warm_specs=1,
        setup_repeats=1,
        reference_ops=(0,),
    ),
}


def child_seed(seed: int, *key: int) -> int:
    """A 63-bit seed derived from the workload seed and a key path."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(sequence.generate_state(1, dtype=np.uint64)[0] >> 1)


def calibrate_planner() -> None:
    """One planner calibration, persisted to the run's own file."""
    backend_plan.host_planner(force_recalibrate=True)


def backend_mix(backends: List[str]) -> str:
    """``"analytic:6,fft:4"`` — the planner's choices over a sweep."""
    counts: Dict[str, int] = {}
    for name in backends:
        counts[name] = counts.get(name, 0) + 1
    return ",".join(f"{name}:{n}" for name, n in sorted(counts.items()))


@dataclass
class OpResult:
    """What one op produced, for its output check and the metrics."""

    device_rounds: int
    value: object
    #: Planner backends over a campaign's sweep points (campaign ops).
    backend_mix: Optional[str] = None


class Workload:
    """Base: ``setup`` (repeatable), ``op(i)``, ``check(i, result)``."""

    name = ""

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed = int(seed)
        self.scale = scale
        self.workdir = workdir

    def setup(self) -> None:
        """Everything before the first timed op; may run repeatedly."""
        calibrate_planner()

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def check(self, index: int, result: OpResult) -> List[str]:
        """Problems with an op's output (empty when correct)."""
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Untimed checks made once after the measured ops."""
        return []

    def cleanup_op(self, index: int) -> None:
        """Untimed tidy-up after an op has been checked."""


class PopulationHybrid(Workload):
    """10^4-device office population scored by one hybrid round."""

    name = "population_hybrid"

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        self._checked: Dict[int, OpResult] = {}

    def _round(self, index: int, force_monte_carlo: bool = False):
        op_seed = child_seed(self.seed, 0, index)
        pop = population.office_population(
            self.scale.population_devices,
            rng=op_seed,
            snr_scale_db=self.scale.population_snr_scale_db,
        )
        return population.hybrid_population_round(
            pop,
            rule=population.FidelityRule(),
            seed=op_seed,
            force_monte_carlo=force_monte_carlo,
        )

    def op(self, index: int) -> OpResult:
        result = self._round(index)
        return OpResult(device_rounds=result.n_devices, value=result)

    def check(self, index: int, result: OpResult) -> List[str]:
        r = result.value
        problems = []
        if r.n_devices != self.scale.population_devices:
            problems.append(f"scored {r.n_devices} devices")
        if r.n_closed_form_devices + r.n_monte_carlo_devices != r.n_devices:
            problems.append("fidelity split does not cover the population")
        if not (0.0 <= r.delivery_ratio <= 1.0):
            problems.append(f"delivery ratio {r.delivery_ratio}")
        if not (0.0 <= r.bit_error_rate <= 1.0):
            problems.append(f"bit error rate {r.bit_error_rate}")
        if index in self.scale.reference_ops:
            self._checked[index] = result
        return problems

    def finish(self) -> List[str]:
        """Compare chosen ops with an all-Monte-Carlo reference round."""
        problems = []
        for index, result in sorted(self._checked.items()):
            hybrid = result.value
            reference = self._round(index, force_monte_carlo=True)
            delivery_gap = abs(hybrid.delivery_ratio - reference.delivery_ratio)
            ber_gap = abs(hybrid.bit_error_rate - reference.bit_error_rate)
            if delivery_gap > DELIVERY_TOLERANCE or ber_gap > BER_TOLERANCE:
                problems.append(
                    f"op {index}: hybrid vs Monte-Carlo gap delivery "
                    f"{delivery_gap:.4f}, BER {ber_gap:.4f}"
                )
        return problems


class _CampaignWorkload(Workload):
    def _spec(self, builder, spec_seed: int):
        return builder(
            rng=spec_seed,
            device_counts=self.scale.device_counts,
            n_rounds=self.scale.n_rounds,
            engine="auto",
        )

    def _device_rounds(self) -> int:
        return sum(self.scale.device_counts) * self.scale.n_rounds

    def _store_dir(self, label: str) -> Path:
        return self.workdir / f"store-{label}"


class Fig17Cold(_CampaignWorkload):
    """One fresh Fig. 17 campaign into a new, empty posix store."""

    name = "fig17_cold"

    def op(self, index: int) -> OpResult:
        spec = self._spec(presets.fig17_campaign, child_seed(self.seed, 0, index))
        campaign_store = store.CampaignStore(self._store_dir(f"op{index}"))
        run = runner.CampaignRunner(store=campaign_store).run(spec)
        return OpResult(
            device_rounds=self._device_rounds(),
            value=run,
            backend_mix=backend_mix([m.backend for m in run.metrics]),
        )

    def check(self, index: int, result: OpResult) -> List[str]:
        run = result.value
        n_points = len(self.scale.device_counts)
        problems = []
        if run.n_computed != n_points or run.n_cached != 0:
            problems.append(
                f"computed {run.n_computed}, cached {run.n_cached} "
                f"of {n_points} points in an empty store"
            )
        rates = [m.phy_rate_bps for m in run.metrics]
        r = float(np.corrcoef(self.scale.device_counts, rates)[0, 1])
        if not r > LINEARITY_MIN_R:
            problems.append(f"PHY rate vs devices r = {r:.4f}")
        return problems

    def cleanup_op(self, index: int) -> None:
        shutil.rmtree(self._store_dir(f"op{index}"), ignore_errors=True)


class Fig17Warm(_CampaignWorkload):
    """Fig. 17 and Fig. 18 re-run alternately over one populated store."""

    name = "fig17_warm"

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        self._setups = itertools.count()
        self._store: Optional[store.CampaignStore] = None
        self._expected: List[list] = []
        #: Backend mix of each spec's cold sweep in the last set-up.
        self.populate_mixes: List[str] = []

    def setup(self) -> None:
        """Calibrate and populate a new store with every spec the ops use."""
        super().setup()
        previous = self._store
        campaign_store = store.CampaignStore(
            self._store_dir(f"setup{next(self._setups)}")
        )
        expected, mixes = [], []
        for k in range(self.scale.warm_specs):
            spec = self._spec(presets.fig17_campaign, child_seed(self.seed, 0, k))
            run = runner.CampaignRunner(store=campaign_store).run(spec)
            expected.append([asdict(m) for m in run.metrics])
            mixes.append(backend_mix([m.backend for m in run.metrics]))
        self._store, self._expected = campaign_store, expected
        self.populate_mixes = mixes
        if previous is not None:
            shutil.rmtree(previous.root, ignore_errors=True)

    def op(self, index: int) -> OpResult:
        builder = (
            presets.fig17_campaign if index % 2 == 0 else presets.fig18_campaign
        )
        k = (index // 2) % self.scale.warm_specs
        spec = self._spec(builder, child_seed(self.seed, 0, k))
        run = runner.CampaignRunner(store=self._store).run(spec)
        return OpResult(
            device_rounds=self._device_rounds(),
            value=(k, run),
            backend_mix=backend_mix([m.backend for m in run.metrics]),
        )

    def check(self, index: int, result: OpResult) -> List[str]:
        k, run = result.value
        problems = []
        if run.n_computed != 0:
            problems.append(f"warm op computed {run.n_computed} points")
        if [asdict(m) for m in run.metrics] != self._expected[k]:
            problems.append("warm metrics differ from the cold run's")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (PopulationHybrid, Fig17Cold, Fig17Warm)
}
