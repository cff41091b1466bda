"""Differential fuzzing over the modal families: cluster vs single pool.

The tentpole's serving claim is that modalities ride the protocol
*unchanged*: a cluster serving tap/hold/scroll/swipe traffic — and
two-finger ``:a``/``:b`` pair sessions — replies byte-identically to a
scripted single ``SessionPool``, chaos included.  The event weaving is
the same machinery as ``test_differential``; only the traffic (and the
trained model) is modal.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cluster import workload_ticks
from repro.eager import train_eager_recognizer
from repro.modal import generate_pair_workload
from repro.serve import generate_workload
from repro.synth import GestureGenerator, modal_templates, pinch_templates
from repro.synth.modal import swipe_templates

from .inproc import InProcessCluster, drive_script, reference_script
from .test_cluster import DT, assert_byte_identical, end_time
from .test_differential import (
    BAD_LINES,
    RESPELLINGS,
    build_script,
    respell_specs,
)

_TEMPLATES = {
    "modal": modal_templates,
    "swipes": swipe_templates,
    "pinch": pinch_templates,
}


@pytest.fixture(scope="session")
def modal_cluster_recognizers():
    return {
        family: train_eager_recognizer(
            GestureGenerator(factory(), seed=601).generate_strokes(10)
        ).recognizer
        for family, factory in _TEMPLATES.items()
    }


def _modal_workload(family: str, clients: int, gestures: int, seed: int):
    if family == "pinch":
        return generate_pair_workload(
            clients=clients, pairs_per_client=gestures, seed=seed
        )
    return generate_workload(
        _TEMPLATES[family](),
        clients=clients,
        gestures_per_client=gestures,
        seed=seed,
    )


@st.composite
def modal_cases(draw):
    workers = draw(st.integers(min_value=2, max_value=3))
    crash = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.1, max_value=0.9),
                st.integers(min_value=0, max_value=workers - 1),
            ),
        )
    )
    drain = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.2, max_value=0.8),
                st.integers(min_value=0, max_value=workers - 1),
            ),
        )
    )
    if crash is not None and drain is not None and crash[1] == drain[1]:
        drain = None
    return {
        "family": draw(st.sampled_from(sorted(_TEMPLATES))),
        "workers": workers,
        "clients": draw(st.integers(min_value=2, max_value=3)),
        "gestures": draw(st.integers(min_value=1, max_value=2)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "crash": crash,
        "drain": drain,
        "join": None,
        "scale": None,
        "swap": None,
        "rawop_at": None,
        "respell": draw(respell_specs),
        "bads": draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=1.0),
                    st.sampled_from(BAD_LINES),
                ),
                max_size=2,
            )
        ),
        "sweeps": draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.1, max_value=0.9),
                    st.sampled_from([1e9, 0.5, 0.05]),
                ),
                max_size=2,
            )
        ),
        "churn": draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=1)
        ),
    }


def _run_modal_case(case, recognizers) -> None:
    recognizer = recognizers[case["family"]]
    workload = _modal_workload(
        case["family"], case["clients"], case["gestures"], case["seed"]
    )
    ticks = workload_ticks(workload, dt=DT)
    end_t = end_time(ticks)
    script = build_script(case, ticks, end_t)
    expected = reference_script(recognizer, script)
    async def run():
        async with InProcessCluster(
            recognizer,
            case["workers"],
        ) as cluster:
            return await drive_script(cluster, script)

    replies = asyncio.run(run())
    assert_byte_identical(replies, expected)


def _drained_pinch(**overrides):
    """A drain-by-migration pinch case: a paired session that was eagerly
    recognized on w0 migrates into w1 after w1's clock passed its
    opening point by the motionless timeout."""
    case = {
        "family": "pinch",
        "workers": 2,
        "clients": 2,
        "gestures": 1,
        "seed": 0,
        "crash": None,
        "drain": (0.5, 0),
        "join": None,
        "scale": None,
        "swap": None,
        "rawop_at": None,
        "respell": None,
        "bads": [],
        "sweeps": [],
        "churn": [0.75],
    }
    case.update(overrides)
    return case


@given(case=modal_cases())
@example(case=_drained_pinch())
@example(case=_drained_pinch(seed=1))
@example(case=_drained_pinch(churn=[0.9]))
@example(
    case=_drained_pinch(drain=(0.625, 0), sweeps=[(0.5, 1e9)], churn=[0.6875])
)
@example(case=_drained_pinch(gestures=2, drain=(0.6875, 0), churn=[0.8125]))
def test_differential_modal_cluster_vs_pool(case, modal_cluster_recognizers):
    _run_modal_case(case, modal_cluster_recognizers)


@pytest.mark.parametrize("family", sorted(_TEMPLATES))
def test_modal_differential_pilots(family, modal_cluster_recognizers):
    """One fixed chaotic case per family that always runs: a crash, a
    drain, malformed lines, churn, a mid-run sweep and half the ops
    respelled, over modal (and, for pinch, paired two-finger) traffic.
    Debuggable sans hypothesis."""
    case = {
        "family": family,
        "workers": 3,
        "clients": 3,
        "gestures": 2,
        "seed": 37,
        "crash": (0.35, 1),
        "drain": (0.6, 2),
        "join": None,
        "scale": None,
        "swap": None,
        "rawop_at": None,
        "respell": (11, 0.5, list(RESPELLINGS)),
        "bads": [(0.15, BAD_LINES[0]), (0.7, BAD_LINES[2])],
        "sweeps": [(0.5, 1e9)],
        "churn": [0.4],
    }
    _run_modal_case(case, modal_cluster_recognizers)
