"""repro — collaboration dynamics in large collaborative projects.

A simulation framework reproducing the MegaM@Rt2 internal-hackathon
case study (Sadovykh et al., DATE 2019).  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured record.

Typical entry points:

>>> from repro import megamart2, RngHub
>>> consortium = megamart2(RngHub(42))
>>> consortium.composition().beneficiaries
27

Run a full hackathon-vs-traditional comparison:

>>> from repro.simulation import (megamart_timeline, baseline_timeline,
...                               compare_scenarios)
>>> result = compare_scenarios(megamart_timeline(), baseline_timeline(),
...                            seeds=range(5))  # doctest: +SKIP
"""

from repro.consortium import Consortium, megamart2, small_consortium
from repro.core import HackathonConfig, HackathonEvent
from repro.errors import ReproError
from repro.framework import build_framework
from repro.rng import RngHub
from repro.simulation import (
    LongitudinalRunner,
    Scenario,
    baseline_timeline,
    compare_scenarios,
    megamart_timeline,
)

__version__ = "1.0.1"

# Imported after __version__ is bound: the store fingerprints scenarios
# with the model version, so it reads it back off this module.
from repro.store import BlobStore, RunCache, scenario_fingerprint

# The facade pulls in the store and the service client, so it must come
# after the store import above.
from repro import api

__all__ = [
    "BlobStore",
    "Consortium",
    "HackathonConfig",
    "HackathonEvent",
    "LongitudinalRunner",
    "ReproError",
    "RngHub",
    "RunCache",
    "Scenario",
    "__version__",
    "api",
    "baseline_timeline",
    "build_framework",
    "compare_scenarios",
    "megamart2",
    "megamart_timeline",
    "scenario_fingerprint",
    "small_consortium",
]
