"""Integration tests for pipeline deployment through the facade."""

import pytest

from repro.core import VideoPipe
from repro.errors import ConfigError, DeploymentError
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.runtime import Module, register_module
from repro.runtime.module import FunctionModule
from repro.services import FunctionService


@register_module("./DeployTestProducer.js")
class Producer(Module):
    def __init__(self, count=3):
        self.count = count

    def init(self, ctx):
        for i in range(self.count):
            ctx._runtime.kernel.schedule(0.01 * (i + 1),
                                         lambda i=i: ctx.call_next({"n": i}))

    def event_received(self, ctx, event):
        pass


@register_module("./DeployTestConsumer.js")
class Consumer(Module):
    def __init__(self):
        self.seen = []

    def event_received(self, ctx, event):
        def flow():
            result = yield ctx.call_service("echo", event.payload)
            self.seen.append(result)

        return flow()


@pytest.fixture
def home():
    home = VideoPipe.paper_testbed(seed=0)
    home.deploy_service(FunctionService("echo", lambda p, c: p,
                                        default_port=7200), "desktop")
    return home


def two_stage_config():
    return PipelineConfig(
        name="deploytest",
        modules=[
            ModuleConfig(name="producer", include="./DeployTestProducer.js",
                         next_modules=["consumer"], device="phone",
                         endpoint="bind#tcp://*:6100"),
            ModuleConfig(name="consumer", include="./DeployTestConsumer.js",
                         services=["echo"], endpoint="bind#tcp://*:6101"),
        ],
    )


class TestDeploy:
    def test_colocated_deploy_and_run(self, home):
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone")
        assert pipeline.device_of("producer") == "phone"
        assert pipeline.device_of("consumer") == "desktop"  # follows echo
        home.run(until=1.0)
        consumer = pipeline.module_instance("consumer")
        assert consumer.seen == [{"n": 0}, {"n": 1}, {"n": 2}]

    def test_module_instances_override_registry(self, home):
        seen = []
        override = FunctionModule(lambda ctx, e: seen.append(e.payload))
        pipeline = home.deploy_pipeline(
            two_stage_config(),
            default_device="phone",
            module_instances={"consumer": override},
        )
        home.run(until=1.0)
        assert len(seen) == 3
        assert pipeline.module_instance("consumer") is override

    def test_port_zero_assigns_ephemeral(self, home):
        config = two_stage_config()
        config.modules[1].endpoint = "bind#tcp://*:0"
        pipeline = home.deploy_pipeline(config, default_device="phone")
        assert pipeline.wiring.address_of("consumer").port >= 49152

    def test_explicit_host_endpoint_must_match_placement(self, home):
        config = two_stage_config()
        config.modules[1].endpoint = "bind#tcp://tv:6101"
        with pytest.raises(DeploymentError, match="placement"):
            home.deploy_pipeline(config, default_device="phone")

    def test_invalid_dag_rejected_before_deploy(self, home):
        config = two_stage_config()
        config.modules[0].next_modules = ["ghost"]
        with pytest.raises(ConfigError):
            home.deploy_pipeline(config, default_device="phone")

    def test_failed_deploy_rolls_back(self, home):
        config = two_stage_config()
        config.modules[1].include = "./GhostModule.js"  # unknown include
        with pytest.raises(ConfigError):
            home.deploy_pipeline(config, default_device="phone")
        # the producer deployed first must have been rolled back
        assert home.device("phone").runtime.deployed_names() == []

    def test_stop_undeploys_all(self, home):
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone")
        pipeline.stop()
        assert home.device("phone").runtime.deployed_names() == []
        assert home.device("desktop").runtime.deployed_names() == []
        pipeline.stop()  # idempotent

    def test_two_pipelines_coexist(self, home):
        home.deploy_pipeline(two_stage_config(), default_device="phone")
        second = two_stage_config()
        second.name = "deploytest2"
        for i, module in enumerate(second.modules):
            module.name += "_2"
            module.endpoint = f"bind#tcp://*:{6200 + i}"
        second.modules[0].next_modules = ["consumer_2"]
        second.source = "producer_2"
        home.deploy_pipeline(second, default_device="phone")
        home.run(until=1.0)
        assert len(home.device("desktop").runtime.deployed_names()) == 2
