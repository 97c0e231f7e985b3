"""Unit tests for device specs and the catalog."""

import pytest

from repro.devices import CATALOG, DeviceSpec, make_spec
from repro.devices.catalog import desktop, flagship_phone_2018, smart_tv_4k
from repro.errors import DeviceError


class TestDeviceSpec:
    def test_validation(self):
        with pytest.raises(DeviceError):
            DeviceSpec(name="")
        with pytest.raises(DeviceError):
            DeviceSpec(name="x", cpu_factor=0)
        with pytest.raises(DeviceError):
            DeviceSpec(name="x", cores=0)
        with pytest.raises(DeviceError):
            DeviceSpec(name="x", memory_mb=0)

    def test_compute_time_scales_by_factor(self):
        spec = DeviceSpec(name="slow", cpu_factor=2.5)
        assert spec.compute_time(0.040) == pytest.approx(0.100)

    def test_negative_compute_rejected(self):
        with pytest.raises(DeviceError):
            DeviceSpec(name="x").compute_time(-1.0)


class TestCatalog:
    def test_paper_phone_matches_section_5_1(self):
        phone = flagship_phone_2018()
        assert phone.memory_mb == 6144  # "6GB of main memory"
        assert phone.kind == "phone"
        assert not phone.supports_containers

    def test_desktop_is_the_reference_machine(self):
        spec = desktop()
        assert spec.cpu_factor == 1.0
        assert spec.supports_containers

    def test_tv_runs_modules_but_not_containers(self):
        tv = smart_tv_4k()
        assert not tv.supports_containers
        assert tv.cpu_factor > 1.0

    def test_constrained_devices_are_slower(self):
        order = [make_spec(k).cpu_factor for k in ("desktop", "laptop", "phone", "tv", "fridge", "watch")]
        assert order == sorted(order)

    def test_make_spec_renames(self):
        assert make_spec("phone", name="pixel").name == "pixel"

    def test_make_spec_unknown_kind(self):
        with pytest.raises(ValueError):
            make_spec("mainframe")

    def test_every_catalog_entry_constructs(self):
        for kind in CATALOG:
            spec = make_spec(kind)
            assert spec.cores >= 1
