"""Test-side reference implementations (oracles).

Each module here is a compact, independent implementation of one
protocol step or link law that ``src/`` implements only once, in its
fast form.
The equivalence suites run the same operation sequences through both
and compare every observable. Nothing in ``src/`` imports these.

* :mod:`oracles.object_protocol` — the per-device-object allocation
  table, association controller and group scheduler, plus an
  :class:`~repro.protocol.ap.AccessPoint` built over them.
* :mod:`oracles.per_round_fading` — a network simulator that draws and
  decodes every fading round on its own.
* :mod:`oracles.chi2_series` — the closed-form OOK link law over the
  fixed-length Poisson-mixture χ² series, each probability function
  evaluating its own χ² terms.
* :mod:`oracles.per_group_engine` — the hybrid population round with
  one ``Deployment`` and analytic-engine ``NetworkSimulator`` per
  Monte-Carlo group.
"""
