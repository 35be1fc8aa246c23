"""Per-section experiment drivers.

Each module reproduces one section of the paper's evaluation and exposes
functions that return the rows/series of the corresponding tables and
figures:

* :mod:`repro.experiments.static` -- Section 3: static shaping sweeps
  (Table 2, Figures 1-3),
* :mod:`repro.experiments.disruption` -- Section 4: transient capacity drops
  (Figures 4-6),
* :mod:`repro.experiments.competition` -- Section 5: competition with other
  VCAs, TCP and streaming applications (Figures 8-14),
* :mod:`repro.experiments.modality` -- Section 6: participant counts and
  viewing modes (Figure 15),
* :mod:`repro.experiments.registry` -- the experiment-id -> driver map used
  by the benchmark harness and the examples.

Every driver accepts ``duration_s`` / ``repetitions`` / grid arguments so the
full paper-scale campaign and the reduced benchmark campaign share the same
code path.

The registry imports every driver and :mod:`repro.barometer`, so it is
loaded on first use of one of its names (PEP 562): importing one driver,
e.g. :mod:`repro.experiments.scenario`, does not import the others.
"""

from typing import Any

__all__ = ["EXPERIMENTS", "get_experiment", "list_experiments"]


def __getattr__(name: str) -> Any:
    if name in __all__:
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
