"""TeamNet: A Collaborative Inference Framework on the Edge.

A complete reproduction of Fang, Jin & Zheng (ICDCS 2019), built from
scratch on numpy: the competitive/selective training algorithm, the
arg-min-gate distributed inference runtime over TCP sockets, the MPI and
Sparsely-Gated MoE baselines, and an edge-device simulation that
regenerates every table and figure in the paper's evaluation.

Quickstart::

    from repro.core import TeamNet
    from repro.data import synthetic_mnist, train_test_split
    from repro.nn import mlp_spec

    train, test = train_test_split(synthetic_mnist(2000))
    team = TeamNet.from_reference(mlp_spec(depth=8), num_experts=4)
    team.fit(train)
    print(team.accuracy(test))

Importing ``repro`` loads no subpackage: a serving node pays only for
what it imports (``repro.distributed`` needs numpy alone, not scipy or the
experiment stack).  Subpackages load on first use, and ``from repro
import *`` still binds every one named in ``__all__``.
"""

__version__ = "1.0.0"

__all__ = ["nn", "data", "core", "moe", "cascade", "comm", "distributed",
           "edge", "experiments", "store", "__version__"]


def __getattr__(name: str):
    # ``import repro; repro.core`` keeps working: subpackages load on
    # first attribute access instead of at package import.
    if name in __all__:
        import importlib
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
