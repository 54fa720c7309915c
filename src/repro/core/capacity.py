"""Multi-user Shannon capacity below the noise floor (Section 3.1).

The paper's information-theoretic framing: the multi-user uplink capacity
``C = BW * log2(1 + N * Ps / Pn)`` grows *linearly* in the device count
``N`` when ``N * Ps / Pn << 1`` — which is exactly the below-noise regime
backscatter operates in. NetScatter's linear throughput scaling (Fig. 17)
is this effect made practical.

This module also carries the *closed-form OOK link law* the hybrid
fidelity split (``repro.protocol.population``) aggregates uncontended
device groups with: per-device detection, bit-error and packet-delivery
probabilities as vectorised functions of the pre-despreading SNR. The
law is the exact noncentral-χ² statistics of a matched-filter OOK
decision, calibrated against the decode engine (two pinned constants
below); its validity envelope — where it tracks the engine and where
Monte-Carlo takes over — is documented in ``docs/SCALING.md``.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from repro.errors import LinkBudgetError
from repro.utils.conversions import db_to_linear


def multiuser_capacity_bps(
    bandwidth_hz: float, snr_per_device_db: float, n_devices: int
) -> float:
    """Exact multi-user AP capacity ``BW * log2(1 + N * snr)``."""
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    if n_devices < 0:
        raise LinkBudgetError("device count must be non-negative")
    snr = db_to_linear(snr_per_device_db)
    return bandwidth_hz * math.log2(1.0 + n_devices * snr)


def below_noise_approximation_bps(
    bandwidth_hz: float, snr_per_device_db: float, n_devices: int
) -> float:
    """Small-SNR linearisation ``BW/ln2 * N * snr`` (the paper's form)."""
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    if n_devices < 0:
        raise LinkBudgetError("device count must be non-negative")
    snr = db_to_linear(snr_per_device_db)
    return bandwidth_hz * n_devices * snr / math.log(2.0)


def approximation_error(
    snr_per_device_db: float, n_devices: int
) -> float:
    """Relative error of the linearisation at an operating point.

    Useful for validating where the "capacity scales linearly" claim
    holds: the error is below 5% whenever ``N * snr < 0.1``.
    """
    if n_devices == 0:
        return 0.0
    exact = multiuser_capacity_bps(1.0, snr_per_device_db, n_devices)
    approx = below_noise_approximation_bps(1.0, snr_per_device_db, n_devices)
    if exact == 0.0:
        raise LinkBudgetError("exact capacity is zero")
    return abs(approx - exact) / exact


def capacity_scaling_series(
    bandwidth_hz: float,
    snr_per_device_db: float,
    device_counts: Sequence[int],
) -> List[Dict[str, float]]:
    """Capacity vs device count, exact and linearised (analysis series)."""
    rows = []
    for n in device_counts:
        rows.append(
            {
                "n_devices": float(n),
                "capacity_bps": multiuser_capacity_bps(
                    bandwidth_hz, snr_per_device_db, n
                ),
                "linear_approx_bps": below_noise_approximation_bps(
                    bandwidth_hz, snr_per_device_db, n
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# closed-form OOK link law (the hybrid fidelity split's bulk path)
# ---------------------------------------------------------------------- #

#: Engine-calibration offset (dB) applied to the pre-despreading SNR
#: before the χ² law — absorbs the mean CFO/jitter straddle loss of the
#: decode engine's located-bin readout. Fitted against the measured
#: single-device engine curve (see docs/SCALING.md).
OOK_CALIBRATION_DB = -0.15

#: Effective number of *independent* payload bits in a 40-bit packet.
#: Bit errors within one round share the round's located-bin estimate,
#: so they are positively correlated and the all-bits-correct
#: probability exceeds ``(1 - ber)^40``; an effective length of 33
#: reproduces the engine's measured delivery curve.
OOK_EFFECTIVE_PAYLOAD_BITS = 33.0

#: Receiver constants mirrored from :class:`repro.core.receiver`:
#: detection threshold over the noise estimate (dB), preamble symbols
#: voted for detection, and near-bin candidates an off bit can
#: false-alarm on (located ``±1``).
OOK_DETECTION_SNR_DB = 3.0
OOK_PREAMBLE_SYMBOLS = 6
OOK_OFF_BIT_CANDIDATES = 3

#: Post-despreading SNR above which every probability saturates to
#: exactly 0/1; P(error) < 1e-30 there.
_SATURATION_RHO = 300.0


def noncentral_chi2_cdf(x, noncentrality) -> np.ndarray:
    """CDF of the 2-DoF noncentral χ² distribution, vectorised.

    ``P(χ²₂(λ) <= x)`` — the exact distribution of ``|A + n|²`` readout
    power (complex signal plus circular Gaussian noise), which is what
    every decision in the OOK link law reduces to. Both arguments
    broadcast. Evaluated by ``scipy.special.chndtr``; SciPy is imported
    on first call, not with the package. The Poisson-mixture series
    this replaced is the test oracle (``tests/oracles/chi2_series.py``).

    >>> float(round(noncentral_chi2_cdf(2.0, 0.0), 4))   # central case
    0.6321
    >>> float(noncentral_chi2_cdf(1e3, 0.0)) == 1.0
    True
    """
    from scipy.special import chndtr

    return np.clip(chndtr(x, 2.0, noncentrality), 0.0, 1.0)


def post_despreading_snr(
    snr_db, spreading_factor: int, calibration_db: float = OOK_CALIBRATION_DB
) -> np.ndarray:
    """Linear per-device SNR after the ``2^SF`` despreading gain.

    The deployment convention (``repro.channel.awgn``): ``snr_db`` is
    the pre-despreading in-band SNR, and dechirping concentrates the
    signal into one bin for a ``10 log10(2^SF)`` processing gain. The
    result is independent of the concurrent round's noise floor —
    each device's readout SNR depends only on its own link.
    """
    gain_db = 10.0 * math.log10(2.0**spreading_factor)
    return 10.0 ** (
        (np.asarray(snr_db, dtype=np.float64) + gain_db + calibration_db)
        / 10.0
    )


def ook_bit_error_probabilities(rho: np.ndarray):
    """Per-symbol OOK error probabilities ``(p_on_miss, p_off_false)``.

    ``rho`` is the linear post-despreading SNR. The decision threshold
    sits midway between the expected on power ``(1 + rho)·σ²`` and the
    noise power ``σ²``: an on bit is missed when its noncentral-χ²
    power falls below it; an off bit false-alarms when any of the
    ``OOK_OFF_BIT_CANDIDATES`` near-located noise bins exceeds it.
    """
    rho = np.asarray(rho, dtype=np.float64)
    safe = np.minimum(rho, _SATURATION_RHO)
    threshold = 0.5 * (safe + 1.0)
    p_on = noncentral_chi2_cdf(2.0 * threshold, 2.0 * safe)
    p_off = 1.0 - (1.0 - np.exp(-threshold)) ** OOK_OFF_BIT_CANDIDATES
    saturated = rho > _SATURATION_RHO
    return np.where(saturated, 0.0, p_on), np.where(saturated, 0.0, p_off)


def preamble_detection_probability(
    snr_db,
    spreading_factor: int,
    detection_snr_db: float = OOK_DETECTION_SNR_DB,
) -> np.ndarray:
    """Probability the 6-symbol preamble clears the detection gate.

    Every preamble symbol's located-bin power must exceed the noise
    estimate by ``detection_snr_db`` (the receiver's minimum-over-
    preamble vote), so detection is the product of six independent
    per-symbol exceedances.

    >>> float(preamble_detection_probability(0.0, 9)) == 1.0
    True
    """
    rho = post_despreading_snr(snr_db, spreading_factor)
    safe = np.minimum(rho, _SATURATION_RHO)
    gate = 10.0 ** (detection_snr_db / 10.0)
    p_symbol = 1.0 - noncentral_chi2_cdf(2.0 * gate, 2.0 * safe)
    p_detect = p_symbol**OOK_PREAMBLE_SYMBOLS
    return np.where(rho > _SATURATION_RHO, 1.0, p_detect)


class OokLink(NamedTuple):
    """Per-device ``(p_detect, symbol_ber)`` of the OOK link law; the
    delivery and engine-scored BER derive from the pair."""

    p_detect: np.ndarray
    symbol_ber: np.ndarray

    def delivery(self, payload_bits: float = OOK_EFFECTIVE_PAYLOAD_BITS):
        """P(preamble detected *and* ``payload_bits`` bits correct)."""
        return self.p_detect * (1.0 - self.symbol_ber) ** float(payload_bits)

    @property
    def scored_ber(self) -> np.ndarray:
        """BER as the engine scores it: undetected rounds miss every bit."""
        return 1.0 - self.p_detect * (1.0 - self.symbol_ber)


def ook_link_law(snr_db, spreading_factor: int) -> OokLink:
    """Closed-form ``(p_detect, symbol_ber)`` per device, vectorised.

    Each noncentral-χ² term (on-bit miss, preamble gate) is evaluated
    once, so delivery and BER over a whole population cost one pass.

    >>> link = ook_link_law([0.0, -40.0], 9)
    >>> link.delivery().round(3).tolist()
    [1.0, 0.0]
    """
    rho = post_despreading_snr(snr_db, spreading_factor)
    p_on, p_off = ook_bit_error_probabilities(rho)
    return OokLink(
        p_detect=preamble_detection_probability(snr_db, spreading_factor),
        symbol_ber=0.5 * (p_on + p_off),
    )


def packet_delivery_probability(
    snr_db,
    spreading_factor: int,
    payload_bits: float = OOK_EFFECTIVE_PAYLOAD_BITS,
) -> np.ndarray:
    """Closed-form probability a device's packet is delivered.

    Delivery requires preamble detection *and* every payload bit
    correct (the CRC convention of ``NetworkSimulator.run_rounds``).
    ``payload_bits`` defaults to the engine-calibrated effective
    independent length (see :data:`OOK_EFFECTIVE_PAYLOAD_BITS`).

    >>> float(packet_delivery_probability(0.0, 9)) == 1.0
    True
    >>> float(packet_delivery_probability(-40.0, 9)) < 1e-3
    True
    """
    return ook_link_law(snr_db, spreading_factor).delivery(payload_bits)


def effective_bit_error_rate(snr_db, spreading_factor: int) -> np.ndarray:
    """Expected scored BER of a device, matching the engine's scoring.

    ``NetworkSimulator.run_rounds`` counts a bit correct only when its
    device's preamble was detected, so an undetected round scores every
    bit wrong: ``1 - p_detect * (1 - symbol_ber)``.
    """
    return ook_link_law(snr_db, spreading_factor).scored_ber


def netscatter_utilisation(
    achieved_bps: float, bandwidth_hz: float
) -> float:
    """Fraction of the ``BW`` aggregate-throughput ceiling achieved.

    Distributed CSS tops out at ``BW`` bits/s (every bin carrying one OOK
    bit per symbol); the deployed SKIP = 2 halves it.
    """
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    if achieved_bps < 0:
        raise LinkBudgetError("throughput must be non-negative")
    return achieved_bps / bandwidth_hz
