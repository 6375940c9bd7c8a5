"""Public API hygiene: every ``__all__`` name exists, is importable, and
every public callable is documented."""

import importlib
import inspect
import os
import subprocess
import sys
import textwrap

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.nn", "repro.nn.functional", "repro.nn.quantize",
    "repro.nn.profiler", "repro.nn.blas",
    "repro.data", "repro.data.transforms",
    "repro.core",
    "repro.moe", "repro.moe.adaptive",
    "repro.cascade",
    "repro.comm",
    "repro.distributed", "repro.distributed.election",
    "repro.distributed.failover", "repro.distributed.forked",
    "repro.distributed.integrity",
    "repro.edge", "repro.edge.loadsim",
    "repro.experiments", "repro.experiments.plots",
    "repro.store", "repro.store.artifact", "repro.store.checkpoint",
    "repro.testkit", "repro.testkit.crash", "repro.testkit.integrity",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists " \
                                      f"{name!r} but it does not exist"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, \
        f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if obj.__module__.startswith("repro") and not obj.__doc__:
                undocumented.append(name)
    assert not undocumented, \
        f"{module_name}: undocumented public objects: {undocumented}"


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


def test_experiment_registry_matches_design():
    """Every experiment in DESIGN.md's index has a driver and vice versa."""
    from repro.experiments import ALL_EXPERIMENTS
    expected = {"fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2"}
    assert set(ALL_EXPERIMENTS) == expected


def test_int8_is_an_archive_format_not_an_engine():
    """Quantized weights ship and store as int8 but load as float; no
    forward path takes a ``quantize`` switch."""
    from repro.core.inference import ENGINES, compiled_expert_for
    from repro.nn import quantize
    from repro.nn.executor import compile_expert
    from repro.nn.serialize import model_to_bytes, save_model
    from repro.store import CheckpointStore
    assert ENGINES == ("tape", "compiled")
    for fn in (compile_expert, compiled_expert_for):
        assert "quantize" not in inspect.signature(fn).parameters
    assert set(quantize.__all__) == {
        "quantize_array", "dequantize_array", "quantize_state_dict",
        "dequantize_state_dict", "quantized_size_bytes", "quantize_model",
        "quantization_error", "AlreadyQuantizedError"}
    for fn in (model_to_bytes, save_model):
        assert "quantize" in inspect.signature(fn).parameters
    for fn in (CheckpointStore.save, CheckpointStore.save_experts):
        assert "quantize_experts" in inspect.signature(fn).parameters


def test_runtime_option_counts_only_shrink():
    """A guard against option creep on the two runtime entry points.

    ROADMAP item 4 aims for at most 6 constructor options.  A change that
    adds an option must raise these counts here, in plain sight; a
    change that removes one lowers them."""
    from repro.distributed import TeamNetMaster, deploy_local_team
    master = inspect.signature(TeamNetMaster.__init__).parameters
    assert len(master) - 1 == 16     # without ``self``
    assert len(inspect.signature(deploy_local_team).parameters) == 10


def _fresh_interpreter(code: str) -> None:
    """Run ``code`` in a new interpreter that imports this checkout's
    ``repro``; its own asserts decide the outcome."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_serving_imports_stay_lean():
    """A serving node loads numpy and the runtime, never scipy or the
    training/experiment stack."""
    _fresh_interpreter("""
        import sys
        import repro.distributed, repro.core, repro.comm, repro.nn
        loaded = [name for name in ("scipy", "repro.experiments",
                                    "repro.cascade", "repro.edge",
                                    "repro.store") if name in sys.modules]
        assert not loaded, loaded
    """)


def test_star_import_binds_every_subpackage_and_data_loads_scipy():
    _fresh_interpreter("""
        import sys
        import repro
        from repro import *
        for name in repro.__all__:
            assert name in globals(), name
        assert "scipy" not in sys.modules
        assert len(data.synthetic_mnist(8)) == 8
        assert len(data.synthetic_cifar(8)) == 8
        assert "scipy" in sys.modules
    """)
