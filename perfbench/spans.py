"""Span tracer that wraps the ycalc modules at run time.

`install()` finds, by introspection, every public function, every method
of a public class (public names, constructors, arithmetic operators and
`__call__`) and every property defined in a `ycalc` module.  It wraps
each one and rebinds every reference to the original object: module
globals of every `ycalc` module and of the package, and values of
module-level dicts such as dispatch tables.  Calls made through any import
alias are therefore counted.  The library itself is not edited.

Each wrapped call is a span.  Its self time is its duration minus the
time of the spans it caused.  Spans are aggregated in memory by function
and written out once, by the caller of `Tracer.snapshot()`.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import pkgutil
import time

# Dunder methods that a user calls through an operator or a call.
_OPERATORS = frozenset(
    "__init__ __call__ __add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ "
    "__truediv__ __rtruediv__ __pow__ __neg__".split()
)

# Kernels the benchmark reports on: metric prefix -> (module, qualname
# pattern, whether to count distinct argument tuples).  A kernel whose
# pattern matches nothing reports 0 calls.
KERNELS = {
    "series.mul": ("series", "*.__mul__", False),
    "moments.pieri": ("moments", "pieri_coefficients", True),
    "moments.corner": ("moments", "corner_binomials", True),
    "moments.content_ratio": ("moments", "content_ratio_series", False),
    "moments.cor52": ("moments", "cor52_coefficient", True),
    "shifted.f_npk": ("shifted", "f_npk", True),
    "shifted.d_k": ("shifted", "d_k", True),
    "coefficients.npbi": ("coefficients", "npbi", True),
    "symfunc.monomial": ("symfunc", "monomial", False),
    "partitions.add_cell": ("partitions", "Partition.add_cell", False),
    "growth.sample": ("growth", "sample_growth", False),
    "growth.added_content": ("growth", "added_content", False),
    "growth.distribution_after": ("growth", "distribution_after", False),
}


def kernel_keys(prefix: str, keys) -> list[str]:
    """Function keys ("ycalc.module:qualname") that make up one kernel."""
    module, pattern, _ = KERNELS[prefix]
    return [
        key
        for key in keys
        if key.partition(":")[0] == f"ycalc.{module}"
        and fnmatch.fnmatchcase(key.partition(":")[2], pattern)
    ]


def _remember(seen: set, args, kwargs) -> None:
    key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
    try:
        seen.add(key)
    except TypeError:
        seen.add(repr(key))


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.draws = 0
        self.jobs: dict[str, dict] = {}
        self.hook_errors: list[str] = []
        self._stack: list[float] = []

    def wrap(self, fn, key: str, distinct: bool, hook=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        calls[key] = 0
        self_s[key] = 0.0
        seen = self.distinct.setdefault(key, set()) if distinct else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if seen is not None:
                _remember(seen, args, kwargs)
            if hook is not None:
                try:
                    hook(self, fn, args, kwargs, result, elapsed)
                except (KeyError, TypeError, AttributeError) as exc:
                    self.hook_errors.append(f"{key}: {exc!r}")
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            "functions": {
                key: {
                    "calls": self.calls[key],
                    "self_s": self.self_s[key],
                    "distinct": len(self.distinct[key]) if key in self.distinct else None,
                }
                for key in self.calls
            },
            "draws": self.draws,
            "jobs": self.jobs,
            "hook_errors": self.hook_errors,
        }


def _count_draws(tracer, fn, args, kwargs, result, elapsed):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    tracer.draws += bound["paths"] * bound["steps"]


def _record_job(tracer, fn, args, kwargs, result, elapsed):
    identity = inspect.signature(fn).bind(*args, **kwargs).arguments["identity"]
    job = tracer.jobs.setdefault(identity, {"s": 0.0, "cases": 0})
    job["s"] += elapsed
    job["cases"] += result.cases


# Extra per-call records: growth.draws and verify.<id>.{s,cases}.
_HOOKS = {
    "ycalc.growth:sample_growth": _count_draws,
    "ycalc.verify:run_identity": _record_job,
}


def _ycalc_modules():
    package = importlib.import_module("ycalc")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__, "ycalc."):
        modules.append(importlib.import_module(info.name))
    return modules


def _wrap_member(tracer, raw, key, distinct):
    """Wrap one class-dict entry, keeping its descriptor kind."""
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(tracer.wrap(raw.__func__, key, distinct))
    if isinstance(raw, property):
        if raw.fget is None:
            return None
        return property(tracer.wrap(raw.fget, key, distinct), raw.fset, raw.fdel, raw.__doc__)
    if inspect.isfunction(raw):
        return tracer.wrap(raw, key, distinct)
    return None


def _counts_distinct(key: str) -> bool:
    return any(distinct and kernel_keys(prefix, [key]) for prefix, (_, _, distinct) in KERNELS.items())


def install() -> Tracer:
    """Wrap the ycalc modules in place and return the tracer that counts."""
    tracer = Tracer()
    modules = _ycalc_modules()
    replaced: dict[int, object] = {}
    for module in modules:
        modname = module.__name__
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != modname or name.startswith("_"):
                continue
            if getattr(obj, "__name__", name) != name:
                continue
            if inspect.isclass(obj):
                for member, raw in list(vars(obj).items()):
                    if member.startswith("_") and member not in _OPERATORS:
                        continue
                    key = f"{modname}:{name}.{member}"
                    wrapped = _wrap_member(tracer, raw, key, _counts_distinct(key))
                    if wrapped is not None:
                        setattr(obj, member, wrapped)
            elif callable(obj):
                key = f"{modname}:{name}"
                replaced[id(obj)] = tracer.wrap(obj, key, _counts_distinct(key), _HOOKS.get(key))

    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, name, replaced[id(value)])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in replaced:
                        value[k] = replaced[id(v)]
    return tracer
