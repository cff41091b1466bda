"""The three workloads: their inputs, their recognizer and their scoring.

Every input is a pure function of the workload spec and ``--seed``.
The recognizer is trained from ``repro.synth`` examples drawn with a
fixed seed, the same way ``repro cluster --family F --examples N
--seed S`` trains it, so every workload is served by the same model on
every run and only the traffic changes with ``--seed``.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass

# Training set: `repro cluster --examples 15 --seed 7` (the CLI defaults).
EXAMPLES = 15
TRAIN_SEED = 7
DT = 0.01  # 100 Hz pen sampling
TIMEOUT = 0.2  # the paper's motionless timeout, the CLI default


@dataclass(frozen=True)
class Spec:
    family: str
    clients: int  # concurrent sessions (pens)
    gestures: int  # gestures each client draws, back to back
    dwell_every: int  # every n-th gesture holds still mid-stroke (0: never)
    transport: str  # "pool" (in process) or "tcp" (repro cluster)
    paced: bool = False  # open loop on the real clock


WORKLOADS = {
    "pool-notes": Spec("notes", 256, 16, 0, "pool"),
    "wire-gdp": Spec("gdp", 128, 24, 4, "tcp"),
    "paced-gdp": Spec("gdp", 128, 8, 4, "tcp", paced=True),
}


def workload_seed(seed: int) -> int:
    """The traffic's generator seed; distinct from the training seed."""
    return 1000 + seed


def training_examples(spec: Spec):
    from repro.serve import family_templates
    from repro.synth import GestureGenerator

    return GestureGenerator(
        family_templates(spec.family), seed=TRAIN_SEED
    ).generate_strokes(EXAMPLES)


def train(examples):
    from repro.eager import train_eager_recognizer

    return train_eager_recognizer(examples).recognizer


@dataclass
class Traffic:
    ticks: list  # [(t, [(op, key, x, y), ...]), ...], one per 10 ms tick
    end_t: float  # a final tick past every possible motionless timeout
    classes: dict  # stroke key -> the class the generator drew
    points: dict  # stroke key -> gesture points (down + moves)

    @property
    def n_points(self) -> int:
        return sum(len(group) for _, group in self.ticks)

    @property
    def n_ops(self) -> int:
        """Ops a pass sends: every point, every tick barrier, and the
        closing tick and sweep."""
        return self.n_points + len(self.ticks) + 2


def traffic(spec: Spec, seed: int) -> Traffic:
    """Generate the workload's traffic for ``seed``."""
    from repro.cluster import workload_ticks
    from repro.serve import family_templates, generate_workload

    script = generate_workload(
        family_templates(spec.family),
        clients=spec.clients,
        gestures_per_client=spec.gestures,
        seed=workload_seed(seed),
        dwell_every=spec.dwell_every,
    )
    return from_ticks(spec, workload_ticks(script, dt=DT))


def from_ticks(spec: Spec, ticks) -> Traffic:
    """Rebuild the traffic from its ticks (as a parent process sent them)."""
    from repro.serve import family_templates

    # generate_workload cycles client ci's gesture gi through the
    # family's classes: class index (ci + gi) mod #classes.
    names = list(family_templates(spec.family))
    classes = {}
    points: dict = {}
    for _, group in ticks:
        for op, key, _x, _y in group:
            if op == "down":
                ci, gi = _KEY.fullmatch(key).groups()
                classes[key] = names[(int(ci) + int(gi)) % len(names)]
            if op != "up":
                points[key] = points.get(key, 0) + 1
    end_t = len(ticks) * DT + TIMEOUT + DT
    return Traffic(ticks, end_t, classes, points)


_KEY = re.compile(r"c(\d+)g(\d+)")


def recognition_quality(recogs, traffic: Traffic) -> dict:
    """The paper's measures over ``(key, class, eager, points_seen)``.

    ``accuracy_pct``: recognitions naming the drawn class; ``eager_pct``:
    recognitions made eagerly; ``seen_pct``: mean share of a stroke's
    gesture points seen when it was recognized.
    """
    n = right = eager = 0
    seen = 0.0
    for key, name, was_eager, points_seen in recogs:
        n += 1
        right += name == traffic.classes[key]
        eager += bool(was_eager)
        seen += points_seen / traffic.points[key]
    if n == 0:
        raise ValueError("no recognitions to score")
    return {
        "accuracy_pct": 100.0 * right / n,
        "eager_pct": 100.0 * eager / n,
        "seen_pct": 100.0 * seen / n,
    }


def encode_ticks(traffic: Traffic) -> tuple[list, bytes]:
    """The client's byte stream, pre-encoded: one chunk per tick (its
    ops, then its ``tick`` barrier), and a tail that fires the last
    timeouts, sweeps, and asks for ``stats`` as a completion barrier.

    The lines are exactly what :func:`repro.cluster.drive_cluster`
    writes for the same ticks.
    """
    chunks = []
    for t, group in traffic.ticks:
        lines = [
            json.dumps({"op": name, "stroke": key, "x": x, "y": y, "t": t})
            for name, key, x, y in group
        ]
        lines.append(json.dumps({"op": "tick", "t": t}))
        chunks.append(("\n".join(lines) + "\n").encode())
    tail = (
        "\n".join(
            [
                json.dumps({"op": "tick", "t": traffic.end_t}),
                json.dumps({"op": "sweep", "max_idle": 0.0}),
                json.dumps({"op": "stats"}),
            ]
        )
        + "\n"
    ).encode()
    return chunks, tail


def causing_tick(tick_ts: list, t: float) -> int:
    """Index of the first tick at or after a reply's ``t``.

    ``tick_ts`` ends with the tail's ``end_t``; a reply stamped later
    than every tick (none should be) is charged to the tail.
    """
    i = bisect_left(tick_ts, t - 1e-9)
    return min(i, len(tick_ts) - 1)
