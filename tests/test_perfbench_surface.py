"""The widlaws names the benchmark harness in perfbench/ depends on.

The tracer wraps module-level functions by name and the workloads import
a few more; a renamed or deleted one would otherwise surface only when
the harness itself runs.  tracing.py is read and executed in a fresh
namespace, so nothing is written under perfbench/.
"""

import importlib
import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_boundary_resolves():
    tracing = _tracing()
    boundaries = [target for targets in tracing.LAYERS.values() for target in targets]
    for module_name, qualname in boundaries + [tracing.DRAW_FACTORY]:
        tracing._resolve(module_name, qualname)


@pytest.mark.parametrize(
    "module_name,name",
    [
        ("widlaws.characters", "SolenoidCharacter"),
        ("widlaws.measures", "ft_quadruplet"),
        ("widlaws.cli", "parse_config"),
        ("widlaws.verification", "quadruplet_sampler"),
        ("widlaws.sampling", "make_rng"),
    ],
)
def test_names_the_workloads_import_resolve(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


@pytest.mark.parametrize("name", ["char_mean", "combine_samples", "quadruplet_sampler"])
def test_the_engine_binds_the_traced_sampling_functions_themselves(name):
    # the tracer rebinds each function wherever its object is bound, so the
    # engine's names must be the sampling module's objects, not forwarders
    verification = importlib.import_module("widlaws.verification")
    sampling = importlib.import_module("widlaws.sampling")
    assert getattr(verification, name) is getattr(sampling, name)
