"""The closed-form OOK link law against its series reference.

:mod:`repro.core.capacity` evaluates the noncentral χ² CDF with
``scipy.special.chndtr`` and scores a whole hybrid round's closed-form
members in one :func:`~repro.core.capacity.ook_link_law` call. The
reference in ``tests/oracles/chi2_series.py`` is the 800-term
Poisson-mixture series, composed per function and applied group by
group; its Monte-Carlo groups run on the per-group engine reference
in ``tests/oracles/per_group_engine.py``. The two must agree to 1e-12 absolute everywhere the law is
used, and the round's routing must be identical.

The last test pins the lazy SciPy import: importing the package must
not load ``scipy.special``, which would add to every process's
start-up time.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from oracles import chi2_series as oracle
from oracles.per_group_engine import monte_carlo_group_metrics
from repro.core import capacity
from repro.core.capacity import (
    effective_bit_error_rate,
    noncentral_chi2_cdf,
    ook_link_law,
    packet_delivery_probability,
)
from repro.core.config import NetScatterConfig
from repro.protocol.population import (
    FidelityRule,
    assign_cluster,
    hybrid_population_round,
    office_population,
    split_fidelity,
)

TOL = 1e-12


def test_chi2_cdf_matches_series():
    # λ = 2ρ up to twice the saturation SNR (ρ = 300).
    lam = np.linspace(0.0, 600.0, 241)
    gate = 2.0 * 10.0**0.3  # the preamble detection gate
    x = np.concatenate([np.linspace(0.0, 700.0, 141), [gate]])
    grid_x, grid_lam = np.meshgrid(x, lam)
    np.testing.assert_allclose(
        noncentral_chi2_cdf(grid_x, grid_lam),
        oracle.noncentral_chi2_cdf(grid_x, grid_lam),
        rtol=0,
        atol=TOL,
    )
    # The on-bit OOK threshold 2 * 0.5 * (ρ + 1) at every λ = 2ρ.
    threshold = lam / 2.0 + 1.0
    np.testing.assert_allclose(
        noncentral_chi2_cdf(threshold, lam),
        oracle.noncentral_chi2_cdf(threshold, lam),
        rtol=0,
        atol=TOL,
    )


@pytest.mark.parametrize("spreading_factor", [7, 9, 12])
def test_link_law_matches_series_composition(spreading_factor):
    snrs = np.linspace(-45.0, 10.0, 2201)
    link = ook_link_law(snrs, spreading_factor)
    delivery = oracle.packet_delivery_probability(snrs, spreading_factor)
    ber = oracle.effective_bit_error_rate(snrs, spreading_factor)
    pairs = [
        (
            link.p_detect,
            oracle.preamble_detection_probability(snrs, spreading_factor),
        ),
        (link.delivery(), delivery),
        (link.scored_ber, ber),
        (packet_delivery_probability(snrs, spreading_factor), delivery),
        (effective_bit_error_rate(snrs, spreading_factor), ber),
    ]
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    # The grid spans the whole law: dead links, the transition, saturation.
    assert delivery.min() < 1e-6 and delivery.max() == 1.0


def _series_round(population, rule, seed, config):
    """The hybrid round scored group by group with the series law."""
    sf = config.spreading_factor
    snrs = population.snr_db
    groups = assign_cluster(snrs, config, rule.group_span_db)
    split = split_fidelity(snrs, groups, rule, seed)
    delivered = ber_weighted = 0.0
    audit_gaps = []
    for g, rows in enumerate(groups):
        member_snrs = snrs[rows]
        expected = float(
            np.sum(oracle.packet_delivery_probability(member_snrs, sf))
        )
        if split.monte_carlo[g]:
            group_delivered, group_ber = monte_carlo_group_metrics(
                member_snrs,
                population.device_id[rows],
                config,
                int(split.group_seeds[g]),
                rule.monte_carlo_rounds,
            )
            if split.reasons[g] == "audit":
                audit_gaps.append(
                    abs(expected - group_delivered) / rows.size
                )
        else:
            group_delivered = expected
            group_ber = float(
                np.mean(oracle.effective_bit_error_rate(member_snrs, sf))
            )
        delivered += group_delivered
        ber_weighted += group_ber * rows.size
    sizes = np.array([rows.size for rows in groups])
    return {
        "n_groups": len(groups),
        "reasons": split.reasons,
        "n_closed_form_groups": split.n_closed_form,
        "n_monte_carlo_groups": split.n_monte_carlo,
        "n_closed_form_devices": int(sizes[~split.monte_carlo].sum()),
        "n_monte_carlo_devices": int(sizes[split.monte_carlo].sum()),
        "delivery_ratio": delivered / snrs.size,
        "bit_error_rate": ber_weighted / snrs.size,
        "audit_gaps": audit_gaps,
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hybrid_round_matches_per_group_series(seed, monkeypatch):
    config = NetScatterConfig(n_association_shifts=0)
    # A raised audit fraction audits about half the closed-form-eligible
    # groups, so the audit gaps check the per-group sums one by one.
    rule = FidelityRule(audit_fraction=0.5)
    population = office_population(10_000, rng=seed, snr_scale_db=-26.0)

    calls = []
    real_cdf = capacity.noncentral_chi2_cdf

    def counted(*args, **kwargs):
        calls.append(1)
        return real_cdf(*args, **kwargs)

    monkeypatch.setattr(capacity, "noncentral_chi2_cdf", counted)
    result = hybrid_population_round(
        population, config=config, rule=rule, seed=seed
    )
    monkeypatch.undo()
    # One law call for the whole round: the on-bit miss and the
    # preamble gate, each evaluated once.
    assert len(calls) == 2

    reference = _series_round(population, rule, seed, config)
    assert result.n_groups == reference["n_groups"]
    assert result.reasons == reference["reasons"]
    assert result.n_closed_form_groups == reference["n_closed_form_groups"]
    assert result.n_monte_carlo_groups == reference["n_monte_carlo_groups"]
    assert result.n_closed_form_devices == reference["n_closed_form_devices"]
    assert result.n_monte_carlo_devices == reference["n_monte_carlo_devices"]
    assert result.n_closed_form_groups > 0
    assert result.audit_gaps
    assert result.delivery_ratio == pytest.approx(
        reference["delivery_ratio"], rel=0, abs=TOL
    )
    assert result.bit_error_rate == pytest.approx(
        reference["bit_error_rate"], rel=0, abs=TOL
    )
    np.testing.assert_allclose(
        result.audit_gaps, reference["audit_gaps"], rtol=0, atol=TOL
    )


def test_package_import_leaves_scipy_special_unloaded():
    code = (
        "import sys\n"
        "import repro, repro.protocol.population, repro.core.capacity\n"
        "import repro.campaign\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special loaded'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
