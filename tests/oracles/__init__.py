"""Test-side reference implementations (oracles).

Each module here is a compact, independent implementation of one
protocol step that ``src/`` implements only once, in its fast form.
The equivalence suites run the same operation sequences through both
and compare every observable. Nothing in ``src/`` imports these.

* :mod:`oracles.object_protocol` — the per-device-object allocation
  table, association controller and group scheduler, plus an
  :class:`~repro.protocol.ap.AccessPoint` built over them.
* :mod:`oracles.per_round_fading` — a network simulator that draws and
  decodes every fading round on its own.
"""
