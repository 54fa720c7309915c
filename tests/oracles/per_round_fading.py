"""Round-by-round reference for batched fading rounds.

:class:`repro.protocol.network.NetworkSimulator` advances every
device's AR(1) shadow-fading track a whole batch at a time and decodes
the batch in one engine call. :class:`PerRoundFadingSimulator` is the
execution that path replaced: each fading round steps every device's
Markov state, draws its own jitter/CFO/phases/bits and is decoded on
its own. The two consume the generator in different orders, so they
agree statistically rather than bitwise; the equivalence test in
``tests/test_protocol_ap_network.py`` gates the agreement.
"""

from __future__ import annotations

import numpy as np

from repro.core.receiver import RoundsDecode
from repro.hardware.mcu import McuTimingModel
from repro.hardware.oscillator import tag_oscillator
from repro.protocol.network import (
    FADING_ROUND_INTERVAL_S,
    NetworkSimulator,
    decode_batch,
)


class PerRoundFadingSimulator(NetworkSimulator):
    """A simulator whose fading batches run one round at a time."""

    def _run_batch(self, n_rounds: int, fading: bool):
        if not fading:
            return super()._run_batch(n_rounds, fading)
        parts = [self._run_fading_round() for _ in range(n_rounds)]
        decode = RoundsDecode.concatenate([p[0] for p in parts])
        payload = np.concatenate([p[1] for p in parts])
        floors = np.concatenate([p[2] for p in parts])
        return decode, payload, floors

    def _run_fading_round(self):
        """Draw and decode one fading round on its own."""
        bins, amplitudes, phases, payload, floor = self._draw_round_inputs()
        inputs = (
            bins[None],
            amplitudes[None],
            phases[None],
            payload[None],
            np.array([floor]),
        )
        decode = decode_batch(
            self._receiver,
            self._engine,
            *inputs,
            self._structure.n_preamble_upchirps,
            self._rng,
            self._readout_dtype,
        )
        return decode, inputs[3], inputs[4]

    def _draw_round_inputs(self):
        """One fading round's (bins, amps, phases, bits, floor SNR)."""
        effective = [
            e
            + dev.step_channel(FADING_ROUND_INTERVAL_S, self._rng)
            - dev.uplink_snr_db
            for e, dev in zip(
                self.effective_snrs_db(), self._deployment.devices
            )
        ]
        # Reference device: the weakest. Its amplitude is 1.0 and the
        # channel noise realises its SNR; others scale up from there.
        floor_snr = min(effective)
        rel_gains_db = np.asarray(effective) - floor_snr

        n_devices = self._deployment.n_devices
        params = self._params
        delays = McuTimingModel().sample_latencies_s(n_devices, self._rng)
        # The receiver synchronises to the concurrent preamble, which
        # locks onto the population's common-mode delay; only per-device
        # deviations from it survive as residual bin offsets.
        delays = delays - delays.mean()
        # One drift draw per device, each on top of its fixed cut error.
        osc = tag_oscillator()
        drift_ppm = np.array(
            [
                self._rng.normal(scale=osc.drift_ppm_std)
                for _ in range(n_devices)
            ]
        )
        cfos = (self._cut_ppm + drift_ppm) * 1e-6 * osc.nominal_freq_hz
        effective_bins = (
            np.array(
                [self._assignments[i] for i in range(n_devices)],
                dtype=float,
            )
            - delays * params.bandwidth_hz
            + cfos * params.n_samples / params.bandwidth_hz
        )
        amplitudes = 10.0 ** (rel_gains_db / 20.0)
        phases = self._rng.uniform(0.0, 2.0 * np.pi, size=n_devices)
        payload_bits = self._rng.integers(
            0, 2, size=(self._payload_bits, n_devices)
        )
        return effective_bins, amplitudes, phases, payload_bits, floor_snr
