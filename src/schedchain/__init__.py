"""Markov-chain toolkit for quantum-based process scheduling schemes.

A scheduler moves over a ring of ``m`` process slots and one absorbing
deadlock state.  The package evaluates per-quantum state probabilities three
independent ways (exact matrix propagation, closed forms, seeded Monte Carlo)
and derives deadlock/fairness analytics for comparing schemes.  Each module's
``__all__`` is the one list of its public names; the package re-exports them.
The engine modules load on first use: ``import schedchain`` imports none of
them, and a name is resolved from the module lists when it is first read.
"""

from importlib import import_module, machinery

__version__ = "0.1.0"

#: The engine modules, in the order their ``__all__`` lists are searched.
_MODULES = ("model", "schemes", "montecarlo", "analysis")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        value = ["__version__"]
        for module in _MODULES:
            value.extend(import_module(f".{module}", __name__).__all__)
    elif machinery.PathFinder.find_spec(f"{__name__}.{name}", __path__) is not None:
        # cli or __main__: ``from schedchain import cli`` asks here before importing it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for module in _MODULES:
            engine = import_module(f".{module}", __name__)
            if name in engine.__all__:
                value = getattr(engine, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    names = {name for name in globals() if name.startswith("__")}
    return sorted(names.union(_MODULES, __getattr__("__all__")))
