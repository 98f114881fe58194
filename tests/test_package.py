"""The package namespace re-exports each module's public names, and each
subcommand loads only the SciPy subpackages its own path calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


#: The README's examples of the subcommands that run on numpy alone, then the
#: cdf example, whose array normal cdf adds scipy.special.
README_PRICING_PATH = [
    ["pdf", "--model", "two-phase", "--sigma1", "0.2", "--sigma2", "0.3", "--q", "-0.1",
     "--t", "1.0", "--x-grid", "-1:1:401", "--include-normal"],
    ["moments", "--model", "two-phase", "--sigma1", "0.025", "--sigma2", "0.05",
     "--t", "21", "--q-grid", "-0.5:0.5:101"],
    ["moments", "--model", "three-phase", "--sigma1", "0.2", "--sigma2", "0.3",
     "--sigma3", "0.25", "--q1", "0.4", "--q2", "-0.3", "--t", "1"],
    ["sample", "--sigma1", "0.01", "--sigma2", "0.035", "--q", "-0.02", "--t", "1",
     "--n", "100000", "--seed", "7"],
    ["price", "--sigma1", "0.3", "--sigma2", "0.4", "--q", "-0.02", "--s", "100",
     "--k", "80", "--r", "0.05", "--tau-days", "17"],
    ["surface", "--sigma1", "0.3", "--sigma2", "0.4", "--q", "-0.02", "--s", "100",
     "--r", "0.05", "--strikes", "80:115:5", "--taus", "17,45,80,136,227,318"],
    ["cdf", "--model", "three-phase", "--sigma1", "0.2", "--sigma2", "0.3", "--sigma3",
     "0.25", "--q1", "0.4", "--q2", "-0.3", "--t", "1", "--x-grid", "-1.5:1.5:61"],
]

#: Runs each argv of argv[1] (JSON) through cli.run and, after each, lists
#: which of the SciPy subpackages the package imports on first use are loaded.
PROBE = """
import io, json, sys
from multiphase.cli import run
deferred = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse",
            "scipy.special")
loaded = []
for argv in json.loads(sys.argv[1]):
    assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0, argv
    loaded.append([name for name in deferred if name in sys.modules])
print(json.dumps(loaded))
"""


def loaded_after(*argvs):
    """For each argv, run in order in one fresh process, the deferred SciPy
    subpackages loaded once it has run."""
    env = dict(os.environ, PYTHONPATH=str(Path(multiphase.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert fresh.returncode == 0, fresh.stderr
    return json.loads(fresh.stdout)


def test_pricing_path_loads_numpy_and_scipy_special_only():
    loaded = loaded_after(*README_PRICING_PATH)
    assert loaded == [[]] * (len(README_PRICING_PATH) - 1) + [["scipy.special"]]


def test_fit_loads_no_quadrature(tmp_path):
    """fit loads no SciPy subpackage at all: its refinement is an in-house
    Brent search and its normal tails are math.erfc."""
    returns = tmp_path / "returns.csv"
    gen = np.random.Generator(np.random.PCG64(4))
    returns.write_text("\n".join(f"{v:.8f}" for v in gen.normal(0, 0.02, 200)))
    assert loaded_after(["fit", "--input", str(returns), "--unit", "fraction"]) == [[]]


def test_check_pde_loads_no_quadrature_or_optimizer():
    [loaded] = loaded_after(["check-pde", "--sigma1", "0.2", "--sigma2", "0.3",
                             "--q", "-0.1", "--nx", "201", "--dt", "1e-2"])
    assert "scipy.integrate" not in loaded and "scipy.optimize" not in loaded


def test_semigroup_and_identity_checks_load_no_scipy():
    """check-ck and check-identities run on numpy alone: their quadrature is
    the in-house vector Gauss-Kronrod rule."""
    loaded = loaded_after(
        ["check-ck", "--sigma1", "0.2", "--sigma2", "0.3", "--q", "-0.1",
         "--s-mid", "0.4", "--t", "1.0"],
        ["check-identities", "--trials", "2", "--seed", "1"],
    )
    assert loaded == [[], []]
