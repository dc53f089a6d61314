"""Address-based access control lists.

The paper points out that when the only wireless security is an address-based
ACL, link-layer spoofing grants immediate access — which is exactly the attack
the SecureAngle signature check defeats.  The ACL model is therefore kept
deliberately simple (allow-list / deny-list of MAC addresses); it represents
the *existing* security mechanism SecureAngle operates alongside.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.mac.address import MacAddress


class AccessControlList:
    """A MAC-address allow/deny list.

    In allow-list mode only listed addresses are admitted; in deny-list mode
    everything except listed addresses is admitted.
    """

    def __init__(self, allowed: Iterable[MacAddress] = (), denied: Iterable[MacAddress] = (),
                 default_allow: bool = False):
        self._allowed: Set[MacAddress] = set(allowed)
        self._denied: Set[MacAddress] = set(denied)
        self.default_allow = bool(default_allow)
        overlap = self._allowed & self._denied
        if overlap:
            raise ValueError(f"addresses cannot be both allowed and denied: {overlap}")

    def allow(self, address: MacAddress) -> None:
        """Add ``address`` to the allow list (removing it from the deny list)."""
        self._denied.discard(address)
        self._allowed.add(address)

    def deny(self, address: MacAddress) -> None:
        """Add ``address`` to the deny list (removing it from the allow list)."""
        self._allowed.discard(address)
        self._denied.add(address)

    def remove(self, address: MacAddress) -> None:
        """Remove ``address`` from both lists."""
        self._allowed.discard(address)
        self._denied.discard(address)

    def permits(self, address: MacAddress) -> bool:
        """True when a frame from ``address`` passes the ACL."""
        if address in self._denied:
            return False
        if address in self._allowed:
            return True
        return self.default_allow

    def __len__(self) -> int:
        return len(self._allowed) + len(self._denied)

    def __contains__(self, address: MacAddress) -> bool:
        return address in self._allowed or address in self._denied
