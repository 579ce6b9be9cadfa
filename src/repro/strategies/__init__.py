"""Schedule-driven elasticity controllers.

The Simple day/night baseline of Figures 12/13 and the manual
provisioning overlay of Section 1.  Like the predictive
(:class:`~repro.serve.control.OnlineControlLoop`) and reactive
(:class:`~repro.core.controller.ReactiveController`) controllers, they
implement the ``ElasticityController`` protocol and run on the capacity
simulator and the engine simulator alike; a static allocation is no
controller at all.
"""

from repro.strategies.manual import ManualOverrideStrategy, ProvisioningWindow
from repro.strategies.simple import SimpleStrategy

__all__ = [
    "ManualOverrideStrategy",
    "ProvisioningWindow",
    "SimpleStrategy",
]
