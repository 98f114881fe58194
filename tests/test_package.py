"""The package namespace re-exports each module's public names."""

import multiphase
from multiphase import cli, inference, numerics, pde_oracle, phase_kernel, pricing

MODULES = (numerics, phase_kernel, pde_oracle, inference, pricing, cli)


def test_all_is_the_union_of_the_modules_all():
    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert multiphase.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(multiphase, name) is getattr(module, name)
    assert isinstance(multiphase.__version__, str)
