"""Every expanded job's params bind to its driver's ``run()`` signature.

The runner executes a job as ``run(**params)`` on the driver module its
spec names, so an expansion that renames or drops a keyword fails here,
without executing anything.
"""

from __future__ import annotations

import functools
import importlib
import inspect

import pytest

from repro.core.config import GoldMineConfig
from repro.runner import RunOptions, experiment_names, get_experiment
from repro.runner.specs import _run_driver

OPTIONS = {
    "full": RunOptions(),
    "smoke": RunOptions(smoke=True),
    "overrides": RunOptions(config=GoldMineConfig(engine="tiered"),
                            seeds=(0, 3), seed_cycles=0, max_iterations=2),
}


def driver_run(experiment: str):
    execute = get_experiment(experiment).execute
    assert isinstance(execute, functools.partial) and execute.func is _run_driver
    return importlib.import_module(f"repro.experiments.{execute.args[0]}").run


@pytest.mark.parametrize("options", OPTIONS.values(), ids=list(OPTIONS))
@pytest.mark.parametrize("experiment", experiment_names())
def test_job_params_bind_to_driver_run(experiment, options):
    signature = inspect.signature(driver_run(experiment))
    jobs = get_experiment(experiment).expand(options)
    assert jobs
    for job in jobs:
        signature.bind(**job.params)
