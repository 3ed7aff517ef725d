import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from flowrl import diffnet, envsuite, trainer

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def two_mode_1d():
    """Pretrained 1-D two-mode model shared by the sampler tests."""
    task = envsuite.TaskSpec(
        num_modes=2, radius=1.5, mode_var=0.09, context_count=2, state_dim=1
    )
    config = trainer.TrainConfig(task=task, pretrain_steps=4000, seed=11, pretrain_batch=128)
    arch = config.architecture()
    assert arch == diffnet.for_task(1, 2)
    return task, arch, trainer.pretrain(config)


@pytest.fixture()
def small_arch():
    return diffnet.Architecture(input_dim=7, hidden_dims=(8,), output_dim=2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(module, name)`` replaces ``module.name`` for the test by
    a wrapper and returns the list that gains one entry per call."""
    def install(module, name):
        calls = []
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return install
