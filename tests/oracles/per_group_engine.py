"""Per-group engine reference for the hybrid round's Monte-Carlo tail.

:func:`repro.protocol.population.hybrid_population_round` scores its
Monte-Carlo groups from flat arrays, through one planner-routed
receiver per group size. :func:`monte_carlo_group_metrics` here is the
route that replaced: every group builds its own
:class:`~repro.channel.deployment.Deployment` and a
:class:`~repro.protocol.network.NetworkSimulator` on the analytic
engine, seeded by the group's child seed. :func:`hybrid_population_round`
is the whole round over it, scored exactly as the fast round scores its
closed-form members, so ``tests/test_per_group_engine.py`` can compare
the two for equality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.deployment import Deployment
from repro.core.capacity import ook_link_law
from repro.core.config import NetScatterConfig
from repro.protocol.network import NetworkSimulator
from repro.protocol.population import (
    FidelityRule,
    Population,
    PopulationRoundResult,
    assign_cluster,
    split_fidelity,
)

_SEED_MASK = 2**63 - 1


def monte_carlo_group_metrics(
    snrs: np.ndarray,
    device_ids: np.ndarray,
    config: NetScatterConfig,
    seed: int,
    n_rounds: int,
):
    """Engine-level realised (delivered, BER) for one group."""
    deployment = Deployment.from_snrs(snrs, device_ids=device_ids)
    simulator = NetworkSimulator(
        deployment,
        config=config,
        power_control=False,
        rng=int(seed) & _SEED_MASK,
    )
    metrics = simulator.run_rounds(max(int(n_rounds), 1))
    return (
        metrics.delivery_ratio * snrs.size,
        metrics.bit_error_rate,
    )


def hybrid_population_round(
    population: Population,
    config: Optional[NetScatterConfig] = None,
    rule: Optional[FidelityRule] = None,
    seed: int = 0,
    force_monte_carlo: bool = False,
) -> PopulationRoundResult:
    """One hybrid round with one simulator per Monte-Carlo group."""
    if config is None:
        config = NetScatterConfig(n_association_shifts=0)
    if rule is None:
        rule = FidelityRule()
    snrs = population.snr_db
    groups = assign_cluster(snrs, config, rule.group_span_db)
    split = split_fidelity(
        snrs, groups, rule, seed, force_monte_carlo=force_monte_carlo
    )
    sizes = np.array([rows.size for rows in groups])
    audited = np.array(split.reasons) == "audit"
    scored = ~split.monte_carlo | audited
    delivered = np.zeros(len(groups))
    ber_sums = np.zeros(len(groups))
    if scored.any():
        members = np.concatenate([groups[g] for g in np.flatnonzero(scored)])
        link = ook_link_law(snrs[members], config.spreading_factor)
        starts = np.cumsum(sizes[scored]) - sizes[scored]
        delivered[scored] = np.add.reduceat(link.delivery(), starts)
        ber_sums[scored] = np.add.reduceat(link.scored_ber, starts)
    expected = delivered.copy()
    for g in np.flatnonzero(split.monte_carlo):
        rows = groups[g]
        delivered[g], group_ber = monte_carlo_group_metrics(
            snrs[rows],
            population.device_id[rows],
            config,
            int(split.group_seeds[g]),
            rule.monte_carlo_rounds,
        )
        ber_sums[g] = group_ber * rows.size
    audit_gaps = np.abs(expected - delivered)[audited] / sizes[audited]
    mc_devices = int(sizes[split.monte_carlo].sum())
    n = int(snrs.size)
    return PopulationRoundResult(
        n_devices=n,
        n_groups=len(groups),
        n_closed_form_groups=split.n_closed_form,
        n_monte_carlo_groups=split.n_monte_carlo,
        n_closed_form_devices=n - mc_devices,
        n_monte_carlo_devices=mc_devices,
        delivery_ratio=float(delivered.sum()) / n,
        bit_error_rate=float(ber_sums.sum()) / n,
        seed=int(seed),
        reasons=split.reasons,
        audit_gaps=audit_gaps.tolist(),
    )
