"""Bundled scenario plugins.

Each submodule is a self-contained scenario family registered through
:mod:`repro.registry` — the same decorators third-party plugins use via
the ``repro.plugins`` entry-point group or the ``REPRO_PLUGINS``
environment variable:

* :mod:`repro.plugins.virtual` — virtual hackathons with the reduced
  tie-formation and session-engagement observed by Mendes et al. 2022
  (arXiv:2204.12274), beyond the plain uniform ``virtual`` mode.
* :mod:`repro.plugins.hybrid` — hybrid plenaries with per-participant
  attendance-mode lanes (arXiv:2508.07301).
* :mod:`repro.plugins.adversarial` — adversarial participants:
  free-riders and knowledge withholders.

Every module exposes ``PLUGIN_NAME``, ``HEADLINE_KPI`` and a
``headline_check(seed=...)`` returning the family's characteristic KPI
comparison.
"""

__all__ = ["virtual", "hybrid", "adversarial"]
