"""Joint calibration of the competition model against the paper's figures.

The paper's competition results (Figures 8, 10, 12, 14) are *jointly*
constrained: the same controller constants must simultaneously make Zoom
queue-filling-aggressive (fig8, fig14), Teams passive on the downlink
(fig10b) and against TCP (fig12), and Meet deferential to Zoom (fig8).
Tweaking one constant against one figure silently breaks another -- raising
Zoom's loss threshold fixes the Teams pair but flips Zoom-vs-Netflix -- so
this package scores every candidate constant set against *all* recorded
figure targets at once, the way MacMillan et al. (IMC 2021) calibrate
against externally visible behaviour.

Layout
------

* :mod:`repro.calibrate.constants` -- :class:`CompetitionConstants`, the
  sweepable constant set, and the committed (winning) values the relay
  estimators and controllers read at construction time.
* :mod:`repro.calibrate.targets` -- every recorded paper claim as a
  :class:`Target` (a scenario's metric against a threshold): the figure
  targets over the Section 5 calibration cells, the scenario targets over
  registered netem scenarios, and the one scorer both use.
* :mod:`repro.calibrate.sweep` -- the sweep and ``verify_committed``: a
  campaign of the Section 5 figure units (candidates x cells x
  repetitions, store-aware like every paper driver) scored into
  ``CALIBRATION.json``.
* :mod:`repro.calibrate.verify` -- ``verify_scenarios``, which scores the
  committed scenario targets (result-store-aware, so an unchanged scenario
  pack re-scores from cache).

``sweep`` and ``verify`` are imported lazily (``import
repro.calibrate.sweep``) because they pull in the experiment drivers;
importing them here would cycle back into :mod:`repro.vca.sfu.node`, which
reads the active constants at import time.
"""

from repro.calibrate.constants import (
    COMMITTED_CONSTANTS,
    CompetitionConstants,
    active_constants,
    set_active_constants,
)
from repro.calibrate.targets import FIGURE_TARGETS, SCENARIO_TARGETS, Target, score_targets

__all__ = [
    "CompetitionConstants",
    "COMMITTED_CONSTANTS",
    "active_constants",
    "set_active_constants",
    "Target",
    "FIGURE_TARGETS",
    "SCENARIO_TARGETS",
    "score_targets",
]
