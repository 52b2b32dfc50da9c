import dataclasses
import importlib.util
import pathlib
from typing import NamedTuple

import pytest

from localforms.atlas import SamplePlan
from localforms.bundle_io import load_bundle

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
TOOLS = ROOT / "tools"


def fixture_path(name):
    return str(FIXTURES / name)


def load_fixture(name, grid=None, random=None, seed=None):
    """Load a bundle fixture, optionally overriding its sample plan (most
    unit tests run on a smaller plan than the one stored in the file)."""
    data = load_bundle(fixture_path(name))
    plan = data.sample_plan
    plan = SamplePlan(
        plan.grid if grid is None else grid,
        plan.n_random if random is None else random,
        plan.seed if seed is None else seed)
    return dataclasses.replace(data, sample_plan=plan)


class Case(NamedTuple):
    """An error-message row whose test id names the case by `label`, and
    whose message must contain `needle`; pass `ids=case_id`."""
    label: str
    needle: str


def case_id(value):
    return value.label if isinstance(value, Case) else None


def expected(needle):
    """The needle of a row: a Case's, or the plain string itself."""
    return needle.needle if isinstance(needle, Case) else needle


def load_tool(name):
    """Import a script from tools/ as a module."""
    path = TOOLS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def abelian():
    return load_fixture("abelian.json", grid=6, random=6)


@pytest.fixture
def monopole():
    return load_fixture("monopole_k1.json", grid=5, random=5)
