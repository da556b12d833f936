"""Per-layer call counts and self times, recorded from outside the library.

`Tracer.install` wraps public functions of the a1degrees modules in place:
every module-level name and class attribute bound to the original function
is rebound to the wrapper, so calls between modules are seen as well.  A
function's self time is its span minus the spans of the traced calls made
inside it.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of each traced function, grouped by layer.
TRACED = (
    ("poly", "groebner_basis"), ("poly", "normal_form"),
    ("poly", "saturation"), ("poly", "ideal_quotient"),
    ("poly", "standard_monomials"), ("poly", "parse_polynomial"),
    ("degrees", "bezoutian_matrix"), ("degrees", "BezoutianMatrix.determinant"),
    ("degrees", "global_a1_degree"), ("degrees", "local_a1_degree"),
    ("forms", "diagonalize"), ("forms", "hasse_witt_invariant"),
    ("forms", "hilbert_symbol"), ("forms", "get_signature"),
    ("forms", "get_discriminant"), ("forms", "make_gw_class"),
    ("fields", "factorize"), ("fields", "gf_construct"),
    ("witt", "anisotropic_part"), ("witt", "anisotropic_dimension_qp"),
    ("witt", "sum_decomposition"),
    ("cli", "main"), ("cli", "gwclass_to_json"),
)


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._child_time: list[float] = []  # one entry per open span

    def wrap(self, name: str, fn, observe=None):
        stat = self.stats.setdefault(name, Stat())
        child_time = self._child_time
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat.calls += 1
                stat.self_s += span - child_time.pop()
                if child_time:
                    child_time[-1] += span
        return traced

    def install(self, package: str, observers=None) -> None:
        """Wrap every function in TRACED that exists in the loaded package."""
        observers = observers or {}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, qualname in TRACED:
            name = f"{mod_name}.{qualname}"
            owner = sys.modules.get(f"{package}.{mod_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.stats.setdefault(name, Stat())  # reported as never called
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            if path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
