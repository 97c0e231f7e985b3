"""Service discovery.

"The list of services that the application can use is predefined" (§3.1):
the registry tracks which devices host which services (and their RPC
addresses), and answers the deployer's placement queries — most importantly
*"is this service available on this device?"*, the condition for
co-location.
"""

from __future__ import annotations

from ..errors import ServiceError
from ..net.address import Address
from .host import ServiceHost


class ServiceRegistry:
    """Name → hosts mapping across the whole home."""

    def __init__(self) -> None:
        self._hosts: dict[str, list[ServiceHost]] = {}

    def register(self, host: ServiceHost) -> None:
        hosts = self._hosts.setdefault(host.service_name, [])
        if any(h.device.name == host.device.name for h in hosts):
            raise ServiceError(
                f"service {host.service_name!r} already registered on"
                f" {host.device.name!r}"
            )
        hosts.append(host)

    def unregister(self, host: ServiceHost) -> None:
        hosts = self._hosts.get(host.service_name, [])
        if host in hosts:
            hosts.remove(host)

    # -- queries ---------------------------------------------------------------
    def service_names(self) -> list[str]:
        return sorted(name for name, hosts in self._hosts.items() if hosts)

    def hosts_of(self, service_name: str) -> list[ServiceHost]:
        return list(self._hosts.get(service_name, []))

    def host_on(self, service_name: str, device_name: str) -> ServiceHost | None:
        """The host of *service_name* on *device_name*, if co-located."""
        for host in self.hosts_of(service_name):
            if host.device.name == device_name:
                return host
        return None

    def any_host(self, service_name: str) -> ServiceHost:
        """Some host of the service; raises if none exist."""
        hosts = self.hosts_of(service_name)
        if not hosts:
            raise ServiceError(f"no host registered for service {service_name!r}")
        return hosts[0]

    def address_of(self, service_name: str, device_name: str | None = None) -> Address:
        """The RPC address of a host (optionally on a specific device)."""
        if device_name is not None:
            host = self.host_on(service_name, device_name)
            if host is None:
                raise ServiceError(
                    f"service {service_name!r} is not hosted on {device_name!r}"
                )
            return host.address
        return self.any_host(service_name).address

    def __contains__(self, service_name: str) -> bool:
        return bool(self._hosts.get(service_name))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ServiceRegistry {self.service_names()}>"
