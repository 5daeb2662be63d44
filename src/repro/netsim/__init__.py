"""The simulated network: DNS resolution and origin-server routing.

The :class:`Network` plays the role of the Internet between the
measurement browser and the websites: it resolves hostnames, routes
:class:`~repro.httpkit.Request` objects to registered
:class:`OriginServer` instances, and passes along the visitor context
(vantage point) that real servers would derive from geo-IP.
"""

from repro.netsim.network import Network, VisitorContext
from repro.netsim.server import OriginServer

__all__ = ["Network", "VisitorContext", "OriginServer"]
