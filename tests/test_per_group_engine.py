"""The hybrid round's Monte-Carlo tail against the per-group engine.

:func:`repro.protocol.population.hybrid_population_round` draws each
Monte-Carlo group's inputs as flat arrays from the group's seed and
decodes them on one planner-routed receiver per group size. The
reference in ``tests/oracles/per_group_engine.py`` builds a
``Deployment`` and an analytic-engine ``NetworkSimulator`` per group.
Both consume each group's generator in the same order and the
backends decide bit for bit alike, so the two rounds must agree
exactly: delivery, BER, routing reasons and audit gaps.
"""

from dataclasses import asdict

import numpy as np
import pytest

from oracles import per_group_engine as oracle
from repro.channel.deployment import Deployment
from repro.core.allocation import power_aware_allocation
from repro.core.config import NetScatterConfig
from repro.core.receiver import NetScatterReceiver
from repro.protocol.network import NetworkSimulator
from repro.protocol.population import (
    FidelityRule,
    assign_cluster,
    hybrid_population_round,
    office_population,
    split_fidelity,
)

CONFIG = NetScatterConfig(n_association_shifts=0)


def _assert_rounds_equal(result, reference):
    assert result.delivery_ratio == reference.delivery_ratio
    assert result.bit_error_rate == reference.bit_error_rate
    assert result.reasons == reference.reasons
    assert result.audit_gaps == reference.audit_gaps
    assert asdict(result) == asdict(reference)


def _mc_group_sizes(population, seed, force_monte_carlo):
    rule = FidelityRule()
    groups = assign_cluster(population.snr_db, CONFIG, rule.group_span_db)
    split = split_fidelity(
        population.snr_db, groups, rule, seed,
        force_monte_carlo=force_monte_carlo,
    )
    return [
        rows.size for rows, mc in zip(groups, split.monte_carlo) if mc
    ]


@pytest.mark.parametrize("force_monte_carlo", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_round_equals_per_group_engine_oracle(seed, force_monte_carlo):
    population = office_population(10_000, rng=seed, snr_scale_db=-26.0)
    result = hybrid_population_round(
        population, seed=seed, force_monte_carlo=force_monte_carlo
    )
    reference = oracle.hybrid_population_round(
        population, seed=seed, force_monte_carlo=force_monte_carlo
    )
    assert result.n_monte_carlo_groups > 0
    if not force_monte_carlo:
        assert result.n_closed_form_groups > 0
    _assert_rounds_equal(result, reference)


@pytest.mark.parametrize("force_monte_carlo", [False, True])
def test_short_last_group_equals_oracle(force_monte_carlo):
    # 700 devices: two full 256-device groups plus short remainders,
    # so the round needs more than one receiver layout.
    population = office_population(700, rng=4, snr_scale_db=-26.0)
    sizes = _mc_group_sizes(population, 4, force_monte_carlo)
    assert any(size < 256 for size in sizes)
    result = hybrid_population_round(
        population, seed=4, force_monte_carlo=force_monte_carlo
    )
    reference = oracle.hybrid_population_round(
        population, seed=4, force_monte_carlo=force_monte_carlo
    )
    _assert_rounds_equal(result, reference)


def _count_inits(monkeypatch, cls):
    built = []
    real = cls.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize(
    "n_devices, force_monte_carlo", [(10_000, False), (700, True)]
)
def test_one_receiver_per_group_size(
    n_devices, force_monte_carlo, monkeypatch
):
    population = office_population(n_devices, rng=2, snr_scale_db=-26.0)
    sizes = _mc_group_sizes(population, 2, force_monte_carlo)
    assert len(sizes) > len(set(sizes))  # some layout is shared
    simulators = _count_inits(monkeypatch, NetworkSimulator)
    deployments = _count_inits(monkeypatch, Deployment)
    receivers = _count_inits(monkeypatch, NetScatterReceiver)
    hybrid_population_round(
        population, seed=2, force_monte_carlo=force_monte_carlo
    )
    assert simulators == []
    assert deployments == []
    assert 1 <= len(receivers) <= len(set(sizes))


def test_tied_snrs_keep_their_own_shifts():
    # Equal SNRs reorder power_aware_allocation's ranking; the shared
    # receiver must still score each device at its own shift.
    population = office_population(600, rng=9, snr_scale_db=-26.0)
    snrs = population.snr_db
    snrs[::3] = np.round(snrs[::3])
    permuted = 0
    for rows in assign_cluster(snrs, CONFIG):
        ranked = list(power_aware_allocation(snrs[rows], CONFIG))
        permuted += ranked != list(range(rows.size))
    assert permuted > 0
    result = hybrid_population_round(
        population, seed=9, force_monte_carlo=True
    )
    reference = oracle.hybrid_population_round(
        population, seed=9, force_monte_carlo=True
    )
    _assert_rounds_equal(result, reference)
