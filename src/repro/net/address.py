"""Endpoint addressing.

The paper's pipeline configuration names endpoints with strings such as
``"bind#tcp://*:5861"`` (Listing 1). :func:`parse_endpoint` accepts exactly
that syntax; :class:`Address` is the resolved (device, port) pair used for
routing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import AddressError

_ENDPOINT_RE = re.compile(
    r"^(?P<mode>bind|connect)#(?P<proto>tcp|inproc)://(?P<host>[\w.*-]+):(?P<port>\d+)$"
)


@dataclass(frozen=True, slots=True)
class Address:
    """A routable address: a device name plus a numeric port."""

    device: str
    port: int

    def __post_init__(self) -> None:
        if not self.device:
            raise AddressError("address requires a device name")
        if not 0 < self.port < 65536:
            raise AddressError(f"port {self.port} out of range")

    def __str__(self) -> str:
        return f"{self.device}:{self.port}"


@dataclass(frozen=True, slots=True)
class EndpointSpec:
    """A parsed endpoint string.

    ``mode`` is ``bind`` (listen on this device) or ``connect`` (dial a
    remote); ``host`` is ``*`` for bind-any or a device name.
    """

    mode: str
    proto: str
    host: str
    port: int

    def resolve(self, local_device: str) -> Address:
        """Turn the spec into a concrete :class:`Address`.

        A ``bind`` spec with host ``*`` resolves to the local device; a
        ``connect`` spec must name its target host explicitly.
        """
        if self.mode == "bind":
            device = local_device if self.host == "*" else self.host
            return Address(device, self.port)
        if self.host == "*":
            raise AddressError("connect endpoint requires an explicit host")
        return Address(self.host, self.port)

    def __str__(self) -> str:
        return f"{self.mode}#{self.proto}://{self.host}:{self.port}"


def parse_endpoint(text: str) -> EndpointSpec:
    """Parse an endpoint string like ``"bind#tcp://*:5861"``.

    Raises :class:`~repro.errors.AddressError` on malformed input.
    """
    match = _ENDPOINT_RE.match(text.strip())
    if match is None:
        raise AddressError(
            f"malformed endpoint {text!r}; expected e.g. 'bind#tcp://*:5861'"
        )
    port = int(match["port"])
    # port 0 means "assign at deployment" (only valid in endpoint specs,
    # never in resolved addresses)
    if not 0 <= port < 65536:
        raise AddressError(f"port {port} out of range in {text!r}")
    return EndpointSpec(match["mode"], match["proto"], match["host"], port)

