"""honeysim: adaptive honeypot exposure under a budget, simulated end to end.

Discrete-time episodes alternate an attacker phase and a defender phase. The
attacker advances a scripted exploitation chain only when its target service
is exposed; the defender sees nothing but synthetic IDS alerts and must keep
the right services reachable while predicting how deep the attack has gone.
"""

# a name is imported from the module that defines it; ``import honeysim`` loads them all, so
# ``honeysim.engine.run_episode`` works after it
from . import attackers, catalog, engine, harness, llm, metrics, policies, telemetry  # noqa: F401

__version__ = "0.1.0"
