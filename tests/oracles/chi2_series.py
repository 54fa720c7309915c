"""Series reference for the closed-form OOK link law.

:func:`repro.core.capacity.noncentral_chi2_cdf` evaluates the 2-DoF
noncentral χ² CDF with ``scipy.special.chndtr``.
:func:`noncentral_chi2_cdf` here is the fixed-length Poisson-mixture
series that implementation replaced, and the functions below compose
the law the way it was written before ``ook_link_law`` existed: every
probability function recomputes its own χ² terms from the SNR. ``tests/test_ook_link_law.py`` compares the two
pointwise and through a whole hybrid population round.
"""

from __future__ import annotations

import numpy as np

from repro.core.capacity import (
    _SATURATION_RHO,
    OOK_DETECTION_SNR_DB,
    OOK_EFFECTIVE_PAYLOAD_BITS,
    OOK_OFF_BIT_CANDIDATES,
    OOK_PREAMBLE_SYMBOLS,
    post_despreading_snr,
)


def noncentral_chi2_cdf(
    x, noncentrality, max_terms: int = 800
) -> np.ndarray:
    """CDF of the 2-DoF noncentral χ² distribution, vectorised.

    ``P(χ²₂(λ) <= x)`` via the Poisson mixture of central χ² CDFs —
    the exact distribution of ``|A + n|²`` readout power (complex
    signal plus circular Gaussian noise), which is what every decision
    in the OOK link law reduces to. Both arguments broadcast.
    """
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(noncentrality, dtype=np.float64)
    x, lam = np.broadcast_arrays(x, lam)
    half_lam = lam / 2.0
    half_x = x / 2.0
    poisson = np.exp(-half_lam)
    term = np.exp(-half_x)
    tail = term.copy()
    cdf = np.zeros_like(half_x)
    for k in range(max_terms):
        cdf += poisson * (1.0 - tail)
        poisson = poisson * half_lam / (k + 1)
        term = term * half_x / (k + 1)
        tail = tail + term
    return np.clip(cdf, 0.0, 1.0)


def ook_bit_error_probabilities(rho):
    """Per-symbol OOK error probabilities ``(p_on_miss, p_off_false)``."""
    rho = np.asarray(rho, dtype=np.float64)
    safe = np.minimum(rho, _SATURATION_RHO)
    threshold = 0.5 * (safe + 1.0)
    p_on = noncentral_chi2_cdf(2.0 * threshold, 2.0 * safe)
    p_off = 1.0 - (1.0 - np.exp(-threshold)) ** OOK_OFF_BIT_CANDIDATES
    saturated = rho > _SATURATION_RHO
    return np.where(saturated, 0.0, p_on), np.where(saturated, 0.0, p_off)


def preamble_detection_probability(snr_db, spreading_factor):
    """Probability all six preamble symbols clear the detection gate."""
    rho = post_despreading_snr(snr_db, spreading_factor)
    safe = np.minimum(rho, _SATURATION_RHO)
    gate = 10.0 ** (OOK_DETECTION_SNR_DB / 10.0)
    p_symbol = 1.0 - noncentral_chi2_cdf(2.0 * gate, 2.0 * safe)
    p_detect = p_symbol**OOK_PREAMBLE_SYMBOLS
    return np.where(rho > _SATURATION_RHO, 1.0, p_detect)


def _symbol_ber(snr_db, spreading_factor):
    rho = post_despreading_snr(snr_db, spreading_factor)
    p_on, p_off = ook_bit_error_probabilities(rho)
    return 0.5 * (p_on + p_off)


def packet_delivery_probability(
    snr_db, spreading_factor, payload_bits=OOK_EFFECTIVE_PAYLOAD_BITS
):
    """P(preamble detected and every payload bit correct)."""
    symbol_ber = _symbol_ber(snr_db, spreading_factor)
    p_detect = preamble_detection_probability(snr_db, spreading_factor)
    return p_detect * (1.0 - symbol_ber) ** float(payload_bits)


def effective_bit_error_rate(snr_db, spreading_factor):
    """Engine-scored BER: an undetected round scores every bit wrong."""
    symbol_ber = _symbol_ber(snr_db, spreading_factor)
    p_detect = preamble_detection_probability(snr_db, spreading_factor)
    return 1.0 - p_detect * (1.0 - symbol_ber)
