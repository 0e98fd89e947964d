"""One engine config from the runner to every object a job builds.

For every registered experiment: the expanded jobs carry exactly the
``RunOptions`` config as their ``"config"`` param, and executing the first
job in-process hands that config's engine settings to every
``CoverageClosure`` and ``FormalVerifier`` the job constructs.  A driver
that drops or restates a knob fails here.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.formal.checker import FormalVerifier
from repro.runner import RunOptions, experiment_names, get_experiment

#: Every engine knob off its default, so a dropped knob is visible.
CONFIG = GoldMineConfig(engine="tiered", induction_k=4, formal_query_timeout=30.0)

#: The config fields a driver must pass through untouched.
ENGINE_FIELDS = ("engine", "induction_k", "formal_workers",
                 "formal_query_timeout", "formal_proof_cache")


@pytest.fixture
def built(monkeypatch):
    """Record the effective constructor arguments of every spied class."""
    calls: dict[str, list[dict]] = {}
    for cls in (CoverageClosure, FormalVerifier):
        original = cls.__init__
        log = calls.setdefault(cls.__name__, [])

        def spy(self, *args, __original=original, __log=log, **kwargs):
            bound = inspect.signature(__original).bind(self, *args, **kwargs)
            bound.apply_defaults()
            __log.append(dict(bound.arguments))
            __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    return calls


@pytest.mark.parametrize("experiment", experiment_names())
def test_jobs_carry_the_config(experiment, built):
    jobs = get_experiment(experiment).expand(RunOptions(smoke=True, config=CONFIG))
    assert jobs
    assert all(job.params["config"] == CONFIG.to_json() for job in jobs)

    get_experiment(experiment).execute(jobs[0].params)

    closures = built["CoverageClosure"]
    assert closures, f"{experiment} built no CoverageClosure"
    for arguments in closures:
        config = arguments["config"]
        assert {name: getattr(config, name) for name in ENGINE_FIELDS} == \
            {name: getattr(CONFIG, name) for name in ENGINE_FIELDS}
    for arguments in built["FormalVerifier"]:
        assert (arguments["engine"], arguments["induction_k"],
                arguments["workers"], arguments["query_timeout"]) == \
            ("tiered", 4, 1, 30.0)
