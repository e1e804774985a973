"""The package's top-level names are exactly the public names of its six
library modules, so a name removed from a module cannot stay exported, and
a name added to one cannot be left out."""

import inspect

import pslearn
from pslearn import hv, network, problems, sampling, scalarization, trainer


def test_package_exports_the_modules_public_names():
    exported = {name for name, value in vars(pslearn).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    public = set()
    for module in (hv, network, problems, sampling, scalarization, trainer):
        public.update(module.__all__)
    assert exported == public
