"""Bearing-based leader-follower formation control with internal-model
disturbance rejection for double-integrator agents."""

import os

__all__ = [
    "disturbance",
    "errors",
    "formation_graph",
    "internal_model",
    "scenario",
    "sim_engine",
    "bundled_scenario",
]

__version__ = "0.1.0"


def bundled_scenario(name):
    """Filesystem path of a scenario shipped with the package
    (e.g. ``square_known`` or ``square_known.json``)."""
    if not name.endswith(".json"):
        name = name + ".json"
    path = os.path.join(os.path.dirname(__file__), "data", name)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return path
