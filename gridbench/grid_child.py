"""Run one twoarm grid in a fresh interpreter and report what it cost.

    python3 grid_child.py SRC CONFIG RESULT MODE

SRC is the directory that holds the ``twoarm`` package, CONFIG a
``key=value`` grid config and RESULT the JSON file this script writes.
MODE is one of

* ``grid``      - run ``twoarm.cli.main`` on the config;
* ``trace``     - the same run with timing spans around each layer;
* ``reference`` - run a fixed numpy and pure-Python kernel that uses no
  twoarm code, and report how long it took (SRC and CONFIG are unused).

``ready`` in the result is the moment set-up ended, on entry to
``twoarm.cli.run_grid``.  Both it and ``end`` come from
``time.monotonic()``, which on Linux reads the system-wide
CLOCK_MONOTONIC, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from pathlib import Path

# (module, attribute, span name, count).  Each attribute is the name
# through which twoarm.cli or twoarm.montecarlo calls a layer, so
# patching it times every call that the grid makes.  A count is
# (metric name, work done by one call given its bound arguments and
# result).
# empirical_quantile is left alone on purpose: it runs once per bootstrap
# resample, and a wrapper there would cost more than the work it times.
_ELEMENTS = lambda args, result: int(result.size)  # noqa: E731
SPANS = (
    ("cli", "run_grid", "cli.run_grid", None),
    ("cli", "write_rows", "cli.write_rows", None),
    ("cli", "emit_plot_data", "cli.emit_plot_data", None),
    ("cli", "draw_covariates", "response.draw_covariates", None),
    ("cli", "substream", "streams.substream", None),
    ("cli", "build_blocking", "designs.build_blocking", None),
    ("cli", "greedy_pair_switch", "designs.greedy_pair_switch",
     ("designs.greedy_pair_switch.restarts", lambda args, result: int(args["restarts"]))),
    ("cli", "mahalanobis_distances", "matching.mahalanobis_distances", None),
    ("cli", "match_heuristic", "matching.match_heuristic", None),
    ("cli", "run_cell", "montecarlo.run_cell",
     ("montecarlo.replicates", lambda args, result: int(args["cfg"].n_reps))),
    ("montecarlo", "substream", "streams.substream", None),
    ("montecarlo", "simulate_squared_errors", "montecarlo.simulate_squared_errors", None),
    ("montecarlo", "potential_means", "response.potential_means", None),
    ("montecarlo", "draw_outcomes", "response.draw_outcomes", ("response.draw_outcomes.variates", _ELEMENTS)),
    ("montecarlo", "sample_allocations", "designs.sample_allocations", ("designs.sample_allocations.signs", _ELEMENTS)),
    ("montecarlo", "bootstrap_ci", "montecarlo.bootstrap_ci",
     ("montecarlo.bootstrap_ci.resamples", lambda args, result: int(args["n_resamples"]))),
)


class Tracer:
    """Nested timing spans swapped onto module attributes.

    A span's self time is its duration minus the time of the spans it
    encloses, so self times add up without counting any interval twice.
    """

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self._open: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, count) -> None:
        original = getattr(module, attr)
        span = self.spans.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        if count is not None:
            count_name, work = count
            span.setdefault(count_name, 0)
            signature = inspect.signature(original)
        stack = self._open

        def timed(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span["calls"] += 1
                span["total_s"] += elapsed
                span["self_s"] += elapsed - inner[0]
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[count_name] += work(bound.arguments, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, timed)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _tree_usage() -> tuple[float, int]:
    """CPU seconds and peak RSS (KiB) of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def reference_kernel(rounds: int = 14000) -> float:
    """Fixed work in the grid's mix: short numpy calls in a Python loop
    (like a bootstrap interval), bulk random draws (like the outcome
    draws) and dict updates (like the blossom matcher).

    Its time tracks how fast the host runs Python and numpy right now;
    it does not depend on twoarm, so no change to twoarm moves it.
    """
    import numpy as np

    rng = np.random.default_rng(2024)
    x = rng.random(1000)
    total = 0.0
    for _ in range(rounds):
        s = x[rng.integers(0, 1000, 1000)]
        total += float(np.partition(s, 949)[949]) + float(s.mean()) + float(s.std(ddof=1))
    for _ in range(rounds // 100):
        total += float(rng.beta(2.0, 5.0, size=100_000).sum())
    table: dict[int, int] = {}
    for i in range(rounds * 100):
        table[i % 997] = table.get(i % 997, 0) + i
    return total + len(table)


def main(argv: list[str]) -> int:
    src, config, result_path, mode = argv
    if mode == "reference":
        import numpy  # noqa: F401  (imported before the clock starts)

        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        Path(result_path).write_text(json.dumps({"elapsed_s": elapsed}), encoding="utf-8")
        return 0
    sys.path.insert(0, src)
    import twoarm.cli as cli
    import twoarm.montecarlo as montecarlo

    source_file = Path(cli.__file__).resolve()
    if Path(src).resolve() not in source_file.parents:
        raise SystemExit(f"twoarm was imported from {source_file}, not from {src}")
    result: dict = {}
    if mode in ("grid", "trace"):
        tracer = Tracer()
        if mode == "trace":
            modules = {"cli": cli, "montecarlo": montecarlo}
            for module, attr, name, count in SPANS:
                tracer.wrap(modules[module], attr, name, count)
        run_grid = cli.run_grid
        start: dict = {}

        def stamped(grid):
            start.update(ready=time.monotonic(), cpu=_tree_usage()[0], out=grid.out_dir)
            return run_grid(grid)

        cli.run_grid = stamped
        try:
            cli.main([config])
        finally:
            cli.run_grid = run_grid
            tracer.restore()
        result["end"] = time.monotonic()
        cpu, rss_kib = _tree_usage()
        result.update(
            ready=start["ready"],
            cpu_s=cpu - start["cpu"],
            peak_rss_kib=rss_kib,
        )
        if mode == "trace":
            result["spans"] = tracer.spans
            out = Path(start["out"])
            result["output_bytes"] = sum(
                f.stat().st_size for f in out.rglob("*") if f.is_file()
            )
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
