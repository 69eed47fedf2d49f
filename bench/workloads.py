"""The benchmark's workloads: one packaged scenario each, at a stated size.

Each workload is a run configuration in the same form as a ``roughwave``
YAML file, minus ``master_seed``, which the benchmark passes per run.
Only the repeat counts and the grids that make one call cost more than a
whole benchmark run are reduced; every workload still goes through the
scenario's public ``run_*`` entry point at ``jobs=1`` and is gated by all
of that scenario's own checks.  Plain data only: the parent process
imports this module without importing roughwave.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 20260816


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    overrides: dict = field(default_factory=dict)
    why: str = ""
    fixed_seed: int | None = None     # master seed used whatever the run's

    def master_seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    def config(self, seed: int) -> dict:
        """The mapping ``roughwave.cli.parse_config`` validates."""
        return {"scenario": self.scenario,
                "master_seed": self.master_seed(seed),
                self.scenario: dict(self.overrides)}


WORKLOADS = {w.name: w for w in [
    Workload(
        "random-speed", "random-speed-wave",
        # one default seed costs about 29 s, more than a whole run; half
        # the horizon and the two finest default ladder levels keep every
        # kind of solve work (the finest level sets the window sizes, and
        # coarser finest levels fail final-gap-vs-discretization)
        {"n_seeds": 1, "horizon": 0.25,
         "ladder": {"eps0": 0.1, "ratio": 0.5, "count": 2}},
        "only workload through hypsolve.solve_system: determinacy sizing, "
        "feet, Picard sweeps and smoothed-speed evaluation at scattered feet"),
    Workload(
        "additive-noise", "additive-noise-wave",
        # eps 0.02 with a four-level Cauchy ladder ending at the same
        # scale quarters the cell count of both slabs
        {"n_samples": 1000, "eps": 0.02,
         "cauchy_ladder": {"eps0": 0.16, "ratio": 0.5, "count": 4}},
        "only workload that draws and pairs white noise; cone-tab "
        "quadrature, no solver and almost no kernel work"),
    Workload(
        "geometric", "geometric-wave", {},
        "default spec; per-point kernel cost on 10^4-10^5-point batches "
        "building arclength charts, with no solver and no noise",
        # brownian-solution-limit demands a strictly monotone ladder on one
        # Brownian path and fails on most other master seeds (20 of 0-29),
        # so every call runs the default spec's own path and is gated
        # against the reference CSVs instead
        fixed_seed=DEFAULT_SEED),
]}
