"""Op lists of the three workloads, generated from the workload seed.

An op is one `spinchain` CLI invocation. The seed only varies what does not
change the amount of work in a pass (op order, output format, the small-|q|
parameter grids, initial conditions and projection data), so that the
timings of two seeds are comparable; the grids that carry the known defects
are fixed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

LEVEL_NS = tuple(range(21))
LEVEL_AS = (0.5, 1.0, 2.0)

CHART_ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.7, 3.0, 5.0)
CHART_Q_MAGNITUDES = (1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4)
TABLE_ORDERS = "0,0.5,1,1.5,2,2.7,3,5"

CLASSICAL_STEPS = 10_000
CLASSICAL_STEP = 1e-3
PROJECT_ROWS = 10_000

# rows `roots` returns at the seed commit where a level is short, for
# n = first_short, first_short + 1, ..., 20 (n + 1 are expected)
SHORT_LEVEL_ROWS = {
    0.5: (11, (11, 12, 11, 12, 12, 10, 11, 13, 10, 9)),
    1.0: (13, (13, 13, 13, 11, 13, 13, 12, 11)),
    2.0: (13, (13, 14, 14, 13, 13, 15, 13, 12)),
}
CONVERGENCE_EXIT = "exit: 3"  # ConvergenceError at large q
OFF_BAND = "reference: outside band"  # fractional order on another branch

# Op times of a workload go as the speed kernel's to this power (speed.py)
SPEED_EXPONENT = {"levels": 1.0, "mathieu-chart": 0.4, "trajectories": 1.0}


def _known_defects() -> dict[str, str]:
    defects = {}
    for a, (first_short, counts) in SHORT_LEVEL_ROWS.items():
        for n, rows in enumerate(counts, start=first_short):
            defects[f"roots n={n} A={a:g}"] = f"rows: {rows} of {n + 1}"
    for sign in (1, -1):
        for mag in (1e2, 1e3):
            for nu in (1.5, 2.7):
                defects[f"mathieu nu={nu:g} q={sign * mag:g} ce"] = OFF_BAND
        defects[f"mathieu nu=2.7 q={sign * 1e4:g} ce"] = OFF_BAND
        for nu, parity in ((0.0, "ce"), (1.0, "ce"), (1.0, "se"), (1.5, "ce")):
            defects[f"mathieu nu={nu:g} q={sign * 1e4:g} {parity}"] = CONVERGENCE_EXIT
    return defects


def _reason_class(reason: str) -> str:
    """A failure reason without the values a reference miss quotes."""
    kind, _, rest = reason.partition(": ")
    if kind == "exit":
        return f"exit: {rest.split()[0]}"
    if kind == "reference":
        return OFF_BAND if " outside band " in rest else "reference: value"
    return reason


def known_failure(key: str, reason: str) -> bool:
    """True if op `key` fails with the defect KNOWN_DEFECTS records for it.

    A short level may return more rows than at the seed commit, not fewer;
    any other failure must match the recorded one exactly.
    """
    expected = KNOWN_DEFECTS.get(key)
    if expected is None:
        return False
    got = _reason_class(reason)
    if expected.startswith("rows: ") and got.startswith("rows: "):
        rows, _, total = got[6:].partition(" of ")
        seed_rows, _, seed_total = expected[6:].partition(" of ")
        return total == seed_total and int(rows) >= int(seed_rows)
    return got == expected


# Ops that fail at the seed commit, by op key, with the failure reason each
# shows. A run whose failures all match (see known_failure) is still
# `correct`; another failure is a regression. A fix shows as a higher ok_frac.
KNOWN_DEFECTS = _known_defects()


@dataclass
class Op:
    """One CLI invocation; `argv` lacks `--out`, which the runner adds."""

    key: str
    kind: str
    argv: list[str]
    fmt: str
    meta: dict = field(default_factory=dict)


def _formats(rng: np.random.Generator, count: int) -> list[str]:
    start = int(rng.integers(2))
    return [("csv", "json")[(start + i) % 2] for i in range(count)]


def _shuffled(rng: np.random.Generator, ops: list[Op], first_key: str) -> list[Op]:
    """Seeded order of the ops, except that the op `first_key` comes first.

    The first op is also the one a cold process runs to measure set-up.
    """
    first = next(op for op in ops if op.key == first_key)
    rest = [op for op in ops if op is not first]
    return [first] + [rest[i] for i in rng.permutation(len(rest))]


def levels(seed: int, workdir: str) -> list[Op]:
    """`roots --n n --A A` for n = 0..20 and A in {0.5, 1, 2}."""
    rng = np.random.default_rng(seed)
    pairs = [(n, a) for a in LEVEL_AS for n in LEVEL_NS]
    ops = []
    for (n, a), fmt in zip(pairs, _formats(rng, len(pairs))):
        ops.append(
            Op(
                key=f"roots n={n} A={a:g}",
                kind="roots",
                argv=["roots", "--n", str(n), "--A", repr(a)] + ["--format", fmt],
                fmt=fmt,
                meta={"n": n, "A": a},
            )
        )
    # a small level that still reaches the Newton solver, so that set-up
    # includes its lazy imports
    first_a = LEVEL_AS[int(rng.integers(len(LEVEL_AS)))]
    return _shuffled(rng, ops, f"roots n=2 A={first_a:g}")


def _chart_op(nu: float, q: float, parity: str, fmt: str) -> Op:
    return Op(
        key=f"mathieu nu={nu:g} q={q:g} {parity}",
        kind="mathieu",
        argv=["mathieu", "--nu", repr(nu), "--q", repr(q), "--parity", parity]
        + ["--format", fmt],
        fmt=fmt,
        meta={"nu": nu, "q": q, "parity": parity},
    )


def mathieu_chart(seed: int, workdir: str) -> list[Op]:
    """Stability-chart points, off-/in-plane tables and sampled functions."""
    rng = np.random.default_rng(seed)
    specs: list[tuple] = []
    for nu in CHART_ORDERS:
        integer = nu == round(nu)
        parities = ("ce",) if not integer or nu == 0 else ("ce", "se")
        for parity in parities:
            for mag in CHART_Q_MAGNITUDES:
                for sign in (1.0, -1.0):
                    specs.append(("mathieu", nu, sign * mag, parity))
    # table grids keep |q| small: offplane q = -A/32, inplane q = B/4
    for a in np.sort(rng.uniform(0.5, 20.0, size=6)):
        specs.append(("offplane", float(a)))
    for b in np.sort(rng.uniform(-40.0, 40.0, size=6)):
        specs.append(("inplane", float(b)))
    # sampled eigenfunctions: integer orders, so a full period is sampled
    for _ in range(8):
        nu = float(rng.choice([0.0, 1.0, 2.0, 3.0, 5.0]))
        q = float(rng.uniform(-25.0, 25.0))
        samples = int(rng.choice([128, 256]))
        specs.append(("samples", nu, q, samples))

    fmts = _formats(rng, len(specs))
    ops = []
    for spec, fmt in zip(specs, fmts):
        if spec[0] == "mathieu":
            _, nu, q, parity = spec
            ops.append(_chart_op(nu, q, parity, fmt))
        elif spec[0] in ("offplane", "inplane"):
            command, value = spec
            flag = "--A" if command == "offplane" else "--B"
            ops.append(
                Op(
                    key=f"{command} {flag[2:]}={value!r}",
                    kind=command,
                    argv=[command, flag, repr(value), "--orders", TABLE_ORDERS,
                          "--parity", "both"] + ["--format", fmt],
                    fmt=fmt,
                    meta={flag[2:]: value},
                )
            )
        else:
            _, nu, q, samples = spec
            ops.append(
                Op(
                    key=f"samples nu={nu:g} q={q!r} N={samples}",
                    kind="samples",
                    argv=["mathieu", "--nu", repr(nu), "--q", repr(q),
                          "--samples", str(samples)] + ["--format", fmt],
                    fmt=fmt,
                    meta={"nu": nu, "q": q, "samples": samples},
                )
            )
    # a small fractional-order point: it needs scipy.linalg
    return _shuffled(rng, ops, "mathieu nu=0.5 q=1 ce")


def _well_state(rng: np.random.Generator) -> dict:
    """Initial condition with B = 0, P^2 + Q^2 < 1 and H < 0.

    V <= 0 vanishes only on the equator P^2 + Q^2 = 1, so a state with
    H < 0 can never reach it and stays in the bounded inner well.
    """
    a = float(rng.uniform(0.5, 4.0))
    r = 0.9 * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    p, q = r * math.cos(theta), r * math.sin(theta)
    u = p * p + q * q
    d = 1.0 + u
    v = -0.25 * a * (1.0 - u) ** 2 / (d * d)
    kinetic = rng.uniform(0.1, 0.6) * -v
    phi = rng.uniform(0.0, 2.0 * math.pi)
    speed = math.sqrt(2.0 * kinetic) / d
    return {"A": a, "P": p, "Q": q, "PiP": speed * math.cos(phi), "PiQ": speed * math.sin(phi)}


def _write_spin_file(rng: np.random.Generator, path: str) -> None:
    s = rng.normal(size=(PROJECT_ROWS, 3))
    s /= np.linalg.norm(s, axis=1)[:, None]
    poles = rng.choice(PROJECT_ROWS, size=40, replace=False)
    s[poles[:20]] = (0.0, 0.0, -1.0)  # exact south poles map to infinity
    s[poles[20:]] = (0.0, 0.0, 1.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("S1,S2,S3\n")
        fh.writelines(f"{float(x)!r},{float(y)!r},{float(z)!r}\n" for x, y, z in s)


def _write_plane_file(rng: np.random.Generator, path: str) -> None:
    pq = rng.standard_cauchy(size=(PROJECT_ROWS, 2))
    at_inf = np.zeros(PROJECT_ROWS, dtype=bool)
    at_inf[rng.choice(PROJECT_ROWS, size=20, replace=False)] = True
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P,Q,at_infinity\n")
        for (p, q), inf in zip(pq, at_inf):
            fh.write(",,true\n" if inf else f"{float(p)!r},{float(q)!r},false\n")


def trajectories(seed: int, workdir: str) -> list[Op]:
    """RK4 runs in the bounded well, batch projections, nlsm checks."""
    rng = np.random.default_rng(seed)
    specs: list[tuple] = []
    for _ in range(14):
        specs.append(("classical", _well_state(rng)))
    inputs = {"spin": [], "plane": []}
    for i in range(2):
        inputs["spin"].append(os.path.join(workdir, f"spins{i}.csv"))
        inputs["plane"].append(os.path.join(workdir, f"plane{i}.csv"))
        _write_spin_file(rng, inputs["spin"][-1])
        _write_plane_file(rng, inputs["plane"][-1])
    # each kind's ops are consecutive and even in number, so the alternating
    # formats give every kind as many csv as json ops, whatever the seed
    for direction, paths in inputs.items():
        for path in paths:
            specs.extend([("project", path, direction)] * 5)
    for _ in range(10):
        specs.append(("nlsm", int(rng.integers(1_000_000))))

    fmts = _formats(rng, len(specs))
    ops = []
    for spec, fmt in zip(specs, fmts):
        if spec[0] == "classical":
            st = spec[1]
            argv = ["classical", "--A", repr(st["A"]), "--B", "0"]
            for name in ("P", "Q", "PiP", "PiQ"):
                argv += [f"--{name}", repr(st[name])]
            span = CLASSICAL_STEPS * CLASSICAL_STEP
            argv += ["--z-span", "0", repr(span), "--step", repr(CLASSICAL_STEP)]
            key = "classical " + " ".join(f"{k}={v:.6g}" for k, v in st.items())
            ops.append(Op(key=key, kind="classical",
                          argv=argv + ["--format", fmt], fmt=fmt, meta=st))
        elif spec[0] == "project":
            _, path, direction = spec
            ops.append(Op(key=f"project {os.path.basename(path)}", kind="project",
                          argv=["project", "--batch", path] + ["--format", fmt], fmt=fmt,
                          meta={"path": path, "direction": direction}))
        else:
            s = spec[1]
            ops.append(Op(key=f"nlsm seed={s}", kind="nlsm",
                          argv=["verify", "--suite", "nlsm", "--seed", str(s)] + ["--format", fmt],
                          fmt=fmt, meta={"seed": s}))
    return _shuffled(rng, ops, "project spins0.csv")


BUILDERS = {
    "levels": levels,
    "mathieu-chart": mathieu_chart,
    "trajectories": trajectories,
}
