"""Unit tests for endpoint parsing and addresses."""

import pytest

from repro.errors import AddressError
from repro.net import Address, parse_endpoint


class TestParseEndpoint:
    def test_parses_paper_listing_syntax(self):
        spec = parse_endpoint("bind#tcp://*:5861")
        assert spec.mode == "bind"
        assert spec.proto == "tcp"
        assert spec.host == "*"
        assert spec.port == 5861

    def test_parses_connect_with_host(self):
        spec = parse_endpoint("connect#tcp://desktop:5862")
        assert spec.mode == "connect"
        assert spec.host == "desktop"
        assert spec.port == 5862

    def test_parses_inproc(self):
        assert parse_endpoint("bind#inproc://*:100").proto == "inproc"

    def test_whitespace_tolerated(self):
        assert parse_endpoint("  bind#tcp://*:5861 ").port == 5861

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "tcp://*:5861",
            "listen#tcp://*:5861",
            "bind#udp://*:5861",
            "bind#tcp://*:port",
            "bind#tcp://*",
            "bind#tcp://*:99999",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            parse_endpoint(bad)

    def test_port_zero_means_auto_assign(self):
        assert parse_endpoint("bind#tcp://*:0").port == 0

    def test_roundtrip_str(self):
        text = "connect#tcp://tv:7000"
        assert str(parse_endpoint(text)) == text


class TestResolve:
    def test_bind_star_resolves_to_local_device(self):
        spec = parse_endpoint("bind#tcp://*:5861")
        assert spec.resolve("phone") == Address("phone", 5861)

    def test_bind_explicit_host_kept(self):
        spec = parse_endpoint("bind#tcp://desktop:5861")
        assert spec.resolve("phone") == Address("desktop", 5861)

    def test_connect_resolves_to_named_host(self):
        spec = parse_endpoint("connect#tcp://tv:5863")
        assert spec.resolve("phone") == Address("tv", 5863)

    def test_connect_star_rejected(self):
        spec = parse_endpoint("connect#tcp://*:5863")
        # constructed via regex; '*' is a valid host char but cannot resolve
        with pytest.raises(AddressError):
            spec.resolve("phone")


class TestAddress:
    def test_str_form(self):
        assert str(Address("tv", 5863)) == "tv:5863"

    def test_empty_device_rejected(self):
        with pytest.raises(AddressError):
            Address("", 80)

    def test_bad_port_rejected(self):
        with pytest.raises(AddressError):
            Address("tv", 0)
        with pytest.raises(AddressError):
            Address("tv", 70000)

    def test_hashable_and_comparable(self):
        assert len({Address("a", 1), Address("a", 1), Address("b", 1)}) == 2
