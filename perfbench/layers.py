"""Per-layer host time from a cProfile run of one bar.

A *layer* is a package module of ``repro``, found by the longest prefix
of the function's dotted module name in :data:`LAYER_PREFIXES`.  Mapping
by module path means code moved between modules of one package needs no
edit here.  Everything under ``repro`` that no narrower prefix claims
(machine assembly, result collection, config) is ``other``.

Functions outside ``repro`` -- C builtins such as ``next``, ``dict.get``
and ``heapq.heappush``, and standard-library Python code such as
``random`` -- are not a layer of their own.  Their self time is split
over the callers that spent it, using the per-caller-edge times cProfile
records, so there is no "builtins" bucket and the layer self times sum
to the profiled total.  Time with no caller under the profiler (the
benchmark's own frames) goes to ``other``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

#: Dotted module prefix -> layer, matched longest first.
LAYER_PREFIXES = {
    "repro.processor": "processor",
    "repro.system.memiface": "system.memiface",
    "repro.coherence.directory": "coherence.directory",
    "repro.coherence": "coherence.protocol",
    "repro.caches": "caches",
    "repro.interconnect": "interconnect",
    "repro.sim": "sim",
    "repro.sync": "sync",
    "repro.apps": "apps",
    "repro.tango": "apps",
    "repro.memlayout": "memlayout",
    "repro.consistency": "consistency",
    "repro": "other",
}

#: Layers reported with ``.self_s`` and ``.calls``, in report order.
TRACED_LAYERS = (
    "processor",
    "system.memiface",
    "coherence.protocol",
    "coherence.directory",
    "caches",
    "interconnect",
    "sim",
    "sync",
    "apps",
    "memlayout",
    "consistency",
)

#: A pstats function key: (filename, line number, function name).
Func = Tuple[str, int, str]


def layer_of_module(module: str) -> str:
    """The layer owning a dotted ``repro`` module name."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    raise ValueError(f"{module!r} is not a repro module")


def module_of_file(path: Path, package_dir: Path) -> Optional[str]:
    """Dotted module name of ``path`` inside the ``repro`` package at
    ``package_dir``, or ``None`` for a file outside it."""
    try:
        relative = path.resolve().relative_to(package_dir)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts])


def file_layer_resolver(package_dir: Path) -> Callable[[str], Optional[str]]:
    """A cached ``filename -> layer`` lookup (``None`` outside ``repro``)."""
    package_dir = package_dir.resolve()
    cache: Dict[str, Optional[str]] = {}

    def resolve(filename: str) -> Optional[str]:
        if filename not in cache:
            module = None
            if filename.endswith(".py"):
                module = module_of_file(Path(filename), package_dir)
            cache[filename] = None if module is None else layer_of_module(module)
        return cache[filename]

    return resolve


def attribute(stats: dict, layer_of_file: Callable[[str], Optional[str]]):
    """Split a ``pstats.Stats(...).stats`` table into layers.

    Returns ``(self_s, calls)``: self seconds per layer, and per layer
    the number of calls entering it from a function of another layer.
    """
    memo: Dict[Func, Dict[str, float]] = {}
    in_progress = set()

    def shares(func: Func) -> Dict[str, float]:
        """How ``func``'s time divides over layers (weights sum to 1).
        Outside ``repro`` that follows the callers, weighted by the
        cumulative time each caller edge carries."""
        layer = layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if func in in_progress or total <= 0:
            return {"other": 1.0}
        in_progress.add(func)
        result: Dict[str, float] = {}
        for caller, edge in callers.items():
            for owner, share in shares(caller).items():
                result[owner] = result.get(owner, 0.0) + share * edge[3] / total
        in_progress.discard(func)
        memo[func] = result
        return result

    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of_file(func[0])
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tottime
            for caller, edge in callers.items():
                if _dominant(shares(caller)) != layer:
                    calls[layer] = calls.get(layer, 0) + edge[0]
            continue
        # Outside repro: each caller edge carries the self time spent on
        # that caller's behalf; any remainder had no profiled caller.
        charged = 0.0
        for caller, edge in callers.items():
            charged += edge[2]
            for owner, share in shares(caller).items():
                self_s[owner] = self_s.get(owner, 0.0) + share * edge[2]
        self_s["other"] = self_s.get("other", 0.0) + tottime - charged
    return self_s, calls


def _dominant(shares: Dict[str, float]) -> str:
    return max(shares.items(), key=lambda item: item[1])[0]
