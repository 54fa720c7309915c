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
from repro.protocol.network import FADING_ROUND_INTERVAL_S, NetworkSimulator


class PerRoundFadingSimulator(NetworkSimulator):
    """A simulator whose fading batches run one round at a time."""

    def _run_batch(self, n_rounds: int, fading: bool):
        if not fading or n_rounds == 1:
            return super()._run_batch(n_rounds, fading)
        parts = [self._run_batch(1, True) for _ in range(n_rounds)]
        decode = RoundsDecode.concatenate([p[0] for p in parts])
        payload = np.concatenate([p[1] for p in parts])
        floors = np.concatenate([p[2] for p in parts])
        return decode, payload, floors

    def _draw_batch_inputs(self, n_rounds: int, fading: bool):
        if not fading:
            return super()._draw_batch_inputs(n_rounds, fading)
        draws = [self._draw_round_inputs() for _ in range(n_rounds)]
        return (
            np.stack([d[0] for d in draws]),
            np.stack([d[1] for d in draws]),
            np.stack([d[2] for d in draws]),
            np.stack([d[3] for d in draws]),
            np.array([d[4] for d in draws]),
        )

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
        delays = self._timing.sample_latencies_s(n_devices, self._rng)
        # The receiver synchronises to the concurrent preamble, which
        # locks onto the population's common-mode delay; only per-device
        # deviations from it survive as residual bin offsets.
        delays = delays - delays.mean()
        cfos = np.array(
            [osc.offset_hz(self._rng) for osc in self._oscillators]
        )
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
