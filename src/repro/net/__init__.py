"""Network substrate: addressing, wire format, links, topology, transports.

This package stands in for the paper's physical home network (Wi-Fi between
phone, desktop and TV) and its ZeroMQ messaging layer, plus a broker-relayed
transport used as the architectural counterexample.
"""

from .address import Address, parse_endpoint
from .broker import BrokeredTransport
from .link import WAN_METRO, WAN_REGIONAL, WIFI_HOME, Link, LinkSpec
from .message import KIND_SIGNAL, Message
from .resilience import CircuitBreaker, CircuitBreakerPolicy, RetryPolicy
from .rpc import RpcClient, RpcServer
from .topology import Topology
from .transport import BrokerlessTransport, Transport
from .wire import payload_size

__all__ = [
    "Address",
    "BrokeredTransport",
    "BrokerlessTransport",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "KIND_SIGNAL",
    "Link",
    "LinkSpec",
    "Message",
    "RetryPolicy",
    "RpcClient",
    "RpcServer",
    "Topology",
    "Transport",
    "WAN_METRO",
    "WAN_REGIONAL",
    "WIFI_HOME",
    "parse_endpoint",
    "payload_size",
]
