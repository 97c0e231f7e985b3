"""Unit tests for the module class registry."""

import pytest

from repro.errors import ConfigError
from repro.runtime import (
    Module,
    create_module,
    register_module,
    registered_modules,
)


class TestRegisterModule:
    def test_register_and_create(self):
        @register_module("./TestOnlyModuleA.js")
        class ModuleA(Module):
            def __init__(self, value=1):
                self.value = value

            def event_received(self, ctx, event):
                pass

        assert "./TestOnlyModuleA.js" in registered_modules()
        instance = create_module("./TestOnlyModuleA.js", value=7)
        assert isinstance(instance, ModuleA)
        assert instance.value == 7

    def test_reregistering_same_class_is_idempotent(self):
        @register_module("./TestOnlyModuleB.js")
        class ModuleB(Module):
            def event_received(self, ctx, event):
                pass

        register_module("./TestOnlyModuleB.js")(ModuleB)  # no error

    def test_conflicting_registration_rejected(self):
        @register_module("./TestOnlyModuleC.js")
        class ModuleC(Module):
            def event_received(self, ctx, event):
                pass

        with pytest.raises(ConfigError, match="already registered"):
            @register_module("./TestOnlyModuleC.js")
            class Other(Module):
                def event_received(self, ctx, event):
                    pass

    def test_non_module_rejected(self):
        with pytest.raises(ConfigError):
            register_module("./NotAModule.js")(dict)

    def test_unknown_include_raises(self):
        with pytest.raises(ConfigError, match="no module registered"):
            create_module("./Ghost.js")

    def test_paper_modules_are_registered(self):
        import repro.apps  # noqa: F401 - triggers registration

        for include in (
            "./VideoStreamingModule.js",
            "./PoseDetectorModule.js",
            "./ActivityDetectorModule.js",
            "./RepCounterModule.js",
            "./DisplayModule.js",
            "./GestureControlModule.js",
            "./FallDetectorModule.js",
        ):
            assert include in registered_modules(), include

    def test_registry_copy_is_isolated(self):
        snapshot = registered_modules()
        snapshot["./Fake.js"] = Module
        assert "./Fake.js" not in registered_modules()
