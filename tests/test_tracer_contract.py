"""The benchmark's tracer can still rebind every entry point it names.

``perfbench/tracer.py`` rebinds a fixed list of cavsim functions and
methods by name. A renamed or moved one makes ``perfbench/run.py`` exit 3
before it measures anything; here it fails the test suite instead. The
tracer's counting hooks also rely on two return types: ``V2XChannel.send``
returns a bool (a falsy result counts a drop) and ``deliver_to`` a dict
(``len()`` counts the deliveries).
"""

import importlib.util
from pathlib import Path

from cavsim.network import ChannelModel, V2XChannel
from cavsim.types import Beacon, TrajectoryEstimate, VehicleState

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _tracer()
    tracer.check_targets()
    assert len(tracer.TARGETS) > 0


def test_send_returns_a_bool_and_deliver_to_a_dict():
    state = VehicleState(0.0, 1.0, 0.0, 5.0, "a")
    estimate = TrajectoryEstimate(0.0, 0.1, 1.0, 0.0, (1.0,), (0.1,))
    for model in (
        ChannelModel(delay_mean=0.0, delay_std=0.0, loss_prob=0.0),
        ChannelModel(loss_prob=1.0),
    ):
        channel = V2XChannel(model)
        sent = channel.send(Beacon(0, 0.0, state, estimate), 1, 0.0)
        assert type(sent) is bool
        for receiver in (1, 2):
            got = channel.deliver_to(receiver, 1.0)
            assert type(got) is dict
            assert len(got) == (1 if sent and receiver == 1 else 0)
