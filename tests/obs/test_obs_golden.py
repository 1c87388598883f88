"""Every driver's observability artifacts replay a committed golden.

``tests/golden/obs_artifacts.json`` holds one sha256 per artifact of a
representative run of each driver — the native and Trident-pv runners,
a service cell, an audited 2-node tenant shard — plus the per-run drops
of ``repro experiment figure9 --quick --metrics-out``.  Replaying the
runs through ``scripts/gen_obs_golden.py`` must reproduce every byte:
when each driver audits, samples the timeline, scrapes, and what its
``metrics.json``, Chrome trace, HTML report, scrape stream and record
contain.

Regenerate the golden (only after an *intentional* behaviour change)
with ``PYTHONPATH=src python scripts/gen_obs_golden.py``.
"""

import importlib.util
import json
import os

import pytest

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


def _load_generator():
    path = os.path.join(REPO, "scripts", "gen_obs_golden.py")
    spec = importlib.util.spec_from_file_location("gen_obs_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()


@pytest.fixture(scope="module")
def golden():
    with open(GEN.GOLDEN_PATH) as f:
        return json.load(f)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(GEN.CASES)


@pytest.mark.parametrize("case", sorted(GEN.CASES))
def test_artifacts_match_golden(case, golden, tmp_path):
    assert GEN.collect(case, str(tmp_path)) == golden[case]
