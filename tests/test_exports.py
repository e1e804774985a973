"""The package's top-level names are exactly the public names of its six
library modules, so a name removed from a module cannot stay exported, and
a name added to one cannot be left out. Its dataclasses that hold arrays
compare and hash by identity, so ``==`` never asks an array for its truth."""

import copy
import inspect

import pytest

import pslearn
from pslearn import hv, network, problems, sampling, scalarization, trainer


def test_package_exports_the_modules_public_names():
    exported = {name for name, value in vars(pslearn).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    public = set()
    for module in (hv, network, problems, sampling, scalarization, trainer):
        public.update(module.__all__)
    assert exported == public


@pytest.mark.parametrize("make", [
    pytest.param(lambda: problems.get_problem("zdt3"), id="Problem"),
    pytest.param(lambda: problems.pareto_front("zdt3", 10), id="ParetoFrontData"),
    pytest.param(lambda: sampling.das_dennis(2, 4), id="DirectionSet"),
    pytest.param(lambda: network.init_network((2, 3, 2), 0), id="NetworkParams"),
    pytest.param(lambda: network.init_adam(network.init_network((2, 3, 2), 0)), id="AdamState"),
])
def test_array_holding_dataclasses_compare_and_hash_by_identity(make):
    value = make()
    twin = copy.deepcopy(value)
    assert value == value and value != twin
    assert len({value, twin, value}) == 2
