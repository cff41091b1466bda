"""The serving options, declared once.

``repro serve``, ``repro cluster`` and the cluster worker
(``python -m repro.cluster.worker``) parse the same serving flags
through :meth:`ServeOptions.add_arguments`; ``Cluster`` and
``Supervisor`` carry them as one :class:`ServeOptions` value, and
:meth:`ServeOptions.argv` renders that value back into every worker's
command line, so a spawn and each respawn get the same flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interaction import DEFAULT_TIMEOUT

__all__ = ["ServeOptions"]

# Field name -> (flag, add_argument keywords).  The parser default is
# the field's default; ``--no-metrics`` is the one negated flag.
_FLAGS = {
    "timeout": ("--timeout", {
        "type": float, "help": "motionless timeout in (virtual) seconds",
    }),
    "max_sessions": ("--max-sessions", {"type": int}),
    "metrics": ("--no-metrics", {
        "action": "store_true",
        "help": "disable the metrics registry (stats replies carry null; "
        "on a cluster, every worker's and the router's)",
    }),
    "registry": ("--registry", {
        "help": "model-registry directory: the source of --model and of "
        "swap ops",
    }),
    "model_cache": ("--model-cache", {
        "type": int, "metavar": "N",
        "help": "keep at most N swapped-in models resident per pool (LRU; "
        "evicted models reload from --registry on next use)",
    }),
    "quality": ("--quality", {
        "action": "store_true",
        "help": "attach recognition-quality telemetry (margins, rejection "
        "distances, eagerness, drift; merged fleet-wide in stats)",
    }),
    "quality_sample": ("--quality-sample", {
        "type": float, "metavar": "RATE",
        "help": "score a deterministic fraction of sessions, keyed on the "
        "session id (default 1.0 = every session; replay-stable)",
    }),
    "quality_seed": ("--quality-seed", {
        "type": int, "metavar": "N",
        "help": "seed for the sampling hash (same seed => same sampled "
        "set, fleet-wide and across restarts)",
    }),
}


@dataclass(frozen=True)
class ServeOptions:
    """What a served session pool is configured with, beyond its model."""

    timeout: float = DEFAULT_TIMEOUT
    max_sessions: int = 4096
    metrics: bool = True
    registry: str | None = None
    model_cache: int | None = None
    quality: bool = False
    quality_sample: float = 1.0
    quality_seed: int = 0

    def __post_init__(self):
        if self.model_cache is not None and self.registry is None:
            raise ValueError("--model-cache needs --registry to reload from")
        if self.quality and not 0.0 <= self.quality_sample <= 1.0:
            raise ValueError(
                f"--quality-sample must lie in [0, 1], got {self.quality_sample}"
            )

    def check_workers(self) -> None:
        """Worker-only rule: a worker has no tracer, so quality telemetry
        lands nowhere unless metrics collect it."""
        if self.quality and not self.metrics:
            raise ValueError("--quality needs metrics; drop --no-metrics")

    @classmethod
    def add_arguments(cls, parser, names=tuple(_FLAGS)) -> None:
        """Declare the flags for the fields in ``names`` on ``parser``."""
        for name in names:
            flag, kwargs = _FLAGS[name]
            if name != "metrics":
                kwargs = {"default": getattr(cls, name), **kwargs}
            parser.add_argument(flag, **kwargs)

    @classmethod
    def from_args(cls, ns, *, workers: bool = False) -> "ServeOptions":
        """The options a namespace from :meth:`add_arguments` holds; flags
        it lacks keep their defaults.  ``workers=True`` adds the worker
        rule.  A bad combination exits with a one-line error."""
        values = {
            name: getattr(ns, name)
            for name in _FLAGS
            if name != "metrics" and hasattr(ns, name)
        }
        values["metrics"] = not getattr(ns, "no_metrics", False)
        try:
            options = cls(**values)
            if workers:
                options.check_workers()
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        return options

    def argv(self) -> list[str]:
        """The flags that reproduce these options (non-defaults only)."""
        out = []
        for name, (flag, _) in _FLAGS.items():
            value = getattr(self, name)
            if value == getattr(ServeOptions, name):
                continue
            out += [flag] if isinstance(value, bool) else [flag, str(value)]
        return out

    def observer(self, recognizer, tracer=None, profiler=None):
        """The pool observer these options ask for, or None if nothing
        observes.  Without a tracer, quality telemetry stays deferred: the
        monitor stages raw snapshots and its registry collector hook folds
        them in whenever the metrics are snapshotted."""
        from ..obs import MetricsRegistry, PoolObserver, QualityMonitor

        metrics = MetricsRegistry() if self.metrics else None
        quality = (
            QualityMonitor(
                recognizer,
                metrics=metrics,
                tracer=tracer,
                sample=self.quality_sample,
                sample_seed=self.quality_seed,
            )
            if self.quality
            else None
        )
        if all(x is None for x in (metrics, tracer, quality, profiler)):
            return None
        return PoolObserver(
            metrics=metrics, tracer=tracer, quality=quality, profiler=profiler
        )

    def server(self, recognizer, observer=None, **kwargs):
        """A :class:`~repro.serve.GestureServer` configured by these options."""
        from .server import GestureServer

        return GestureServer(
            recognizer,
            timeout=self.timeout,
            max_sessions=self.max_sessions,
            observer=observer,
            registry=self.registry,
            model_cache=self.model_cache,
            **kwargs,
        )
