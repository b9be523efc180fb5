"""Experiment harness: one module per paper table/figure, plus the sweeps.

Each figure/table module (``fig07_latency``, ``tab03_idle_node``, ...)
exposes ``run(...) -> result`` and ``format_report(result)``; the
benchmark suite (``benchmarks/``) and ``repro run <name>`` execute them
and print the same rows/series the paper reports.  See DESIGN.md for the
experiment index.  They are imported on demand, not here, so a sweep
never pays for a figure's dependencies.

The sweep modules each declare one :class:`~repro.experiments.base.Sweep`
— a module-level ``scenario(params, seed)``, a ``Point`` dataclass, and
the parameter list, axis and report columns — and register it at import
time, so importing this package fills the registry behind
:func:`repro.sweep.run_sweep` and the ``repro <sweep>`` subcommands.
"""

from . import (
    base,
    autoscale_sweep,
    chaos_sweep,
    gpu_scaling_sweep,
    loadstorm_sweep,
    manager_failover_sweep,
    memdurability_sweep,
)

__all__ = [
    "base",
    "autoscale_sweep",
    "chaos_sweep",
    "gpu_scaling_sweep",
    "loadstorm_sweep",
    "manager_failover_sweep",
    "memdurability_sweep",
]
