"""The serving options: one declaration from the CLI to every worker."""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.cluster import Supervisor
from repro.cluster.worker import build_parser as worker_parser
from repro.serve import ServeOptions


def _flags(parser) -> dict:
    return {
        flag: action.default
        for action in parser._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


def _subcommand(name: str):
    return build_parser()._subparsers._group_actions[0].choices[name]


_SERVING = {
    "--timeout": 0.2,
    "--max-sessions": 4096,
    "--no-metrics": False,
    "--registry": None,
    "--model-cache": None,
    "--quality": False,
    "--quality-sample": 1.0,
    "--quality-seed": 0,
}
_MODEL_SOURCE = {
    "--recognizer": None,
    "--model": None,
    "--family": None,
    "--examples": 15,
    "--seed": 7,
    "--host": "127.0.0.1",
}


def test_flag_sets_are_pinned():
    # Every option string each entry point accepts, with its default.
    # The worker's --timeout used to default to None, which it resolved
    # to the same 0.2 s motionless timeout.
    assert _flags(_subcommand("serve")) == {
        **_MODEL_SOURCE,
        **_SERVING,
        "--port": 7391,
        "--trace": None,
        "--profile": False,
        "--record": None,
    }
    assert _flags(_subcommand("cluster")) == {
        **_MODEL_SOURCE,
        **_SERVING,
        "--port": 7392,
        "--workers": 2,
        "--min-workers": 1,
        "--max-workers": None,
        "--autoscale": False,
    }
    assert _flags(_subcommand("loadgen")) == {
        "--family": "notes",
        "--clients": 64,
        "--gestures": 4,
        "--examples": 12,
        "--seed": 3,
        "--mode": "both",
        "--cluster": None,
        "--fault-seed": None,
        "--fault-rate": 0.02,
        "--metrics": False,
        "--metrics-out": None,
        "--trace": None,
        "--quality": False,
        "--quality-sample": 1.0,
        "--quality-seed": 0,
        "--profile": False,
        "--record": None,
        "--modal": False,
    }
    assert _flags(worker_parser()) == {
        **_SERVING,
        "--recognizer": None,
        "--shard": None,
        "--host": "127.0.0.1",
        "--port": 0,
        "--heartbeat": 2.0,
    }


def test_defaults_parse_to_default_options():
    args = _subcommand("cluster").parse_args([])
    assert ServeOptions.from_args(args) == ServeOptions()
    assert ServeOptions().argv() == []


def test_supervisor_argv_round_trips_through_the_worker_parser():
    # Every field off its default: what the supervisor spawns a worker
    # with must parse back to the very same options.
    options = ServeOptions(
        timeout=0.35,
        max_sessions=17,
        metrics=False,
        registry="/models",
        model_cache=3,
        quality_sample=0.25,
        quality_seed=9,
    )
    quality = ServeOptions(quality=True, quality_sample=0.5, quality_seed=4)
    for opts in (options, quality):
        supervisor = Supervisor("model.json", ["w0"], opts)
        cmd = supervisor.command("w0")
        assert cmd[1:3] == ["-m", "repro.cluster.worker"]
        args = worker_parser().parse_args(cmd[3:])
        assert ServeOptions.from_args(args, workers=True) == opts
        assert args.shard == "w0"


def test_cross_flag_rules():
    with pytest.raises(ValueError, match="--registry"):
        ServeOptions(model_cache=2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ServeOptions(quality=True, quality_sample=1.5)
    # Serving alone, quality without metrics still feeds a trace...
    ServeOptions(quality=True, metrics=False)
    # ...but a worker has no tracer, so a fleet refuses it up front.
    with pytest.raises(ValueError, match="--no-metrics"):
        Supervisor("model.json", ["w0"], ServeOptions(quality=True, metrics=False))
    args = worker_parser().parse_args(
        ["--recognizer", "m", "--shard", "w0", "--quality", "--no-metrics"]
    )
    with pytest.raises(SystemExit, match="metrics"):
        ServeOptions.from_args(args, workers=True)


def test_observer_builds_only_what_is_asked(directions_recognizer):
    recognizer = directions_recognizer
    assert ServeOptions(metrics=False).observer(recognizer) is None
    observer = ServeOptions().observer(recognizer)
    assert observer.metrics is not None and observer.quality is None
    observer = ServeOptions(quality=True, quality_sample=0.5).observer(recognizer)
    assert observer.quality.metrics is observer.metrics
    assert observer.quality.sample_rate == 0.5
