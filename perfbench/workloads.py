"""Seeded request generators for the benchmark workloads.

Each workload is a list of ``Request`` objects built from a seed alone.
The program sees only ``argv`` (plus ``--out``, added by the driver);
``expect`` holds what the checker needs to judge the output.  Floats are
written with ``repr(float(x))``: numpy 2 prints ``np.float64(...)``,
which the expression parser rejects.

Requests come in fixed rounds of request types whose shapes (AST sizes,
grid and trajectory lengths) do not depend on the seed, so the cost of a
round barely does either.  Each round is weighted so that the median and
the tail request fall inside one request type rather than between two,
whatever the number of rounds a run completes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify-grid", "residual-scan", "trajectories")

# Requests generated per workload.  A run walks the list in order, in
# whole rounds, until its time is up; the list is longer than any run
# needs, so a request is rarely sent twice.
LIST_LENGTH = 480
ROUND = {"verify-grid": 10, "residual-scan": 6, "trajectories": 4}

BLOW_UP_T0 = 2.0 * math.sqrt(3.0) * math.pi / 9.0  # u' = u^3 + 1 from u(0) = 0


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple
    fmt: str  # "csv" or "json", the format of the file written to --out
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _shift(var: str, c: float) -> str:
    """``(var - c)`` written without a doubled sign."""
    return f"({var} - {_num(c)})" if c >= 0.0 else f"({var} + {_num(-c)})"


def _grid(axes) -> tuple[str, list]:
    """Grid spec for the CLI and its (lo, hi, n) axes for the checker."""
    spec = ",".join(f"x{i}={_num(lo)}:{_num(hi)}:{n}" for i, (lo, hi, n) in enumerate(axes, 1))
    return spec, [list(a) for a in axes]


# ---------------------------------------------------------------------------
# Field pairs


def _exp_quadratic(rng: random.Random) -> str:
    """exp of a quadratic in x1..x4 with 15 terms; positive and O(1) on
    the box [-0.4, 0.4]^4.  Signs are written as + or -, never as a unary
    minus, so every such field has the same AST size."""
    text = _num(rng.uniform(0.0, 0.2))
    monomials = [(0.25, f"x{i}") for i in range(1, 5)]
    monomials += [(0.08, f"x{i}*x{j}") for i in range(1, 5) for j in range(i, 5)]
    for width, monomial in monomials:
        c = rng.uniform(-width, width)
        text += f" {'-' if c < 0.0 else '+'} {_num(abs(c))}*{monomial}"
    return f"exp({text})"


def _sum_of_squares(rng: random.Random) -> str:
    terms = [_num(rng.uniform(0.9, 1.5))]
    terms += [f"{_num(rng.uniform(0.1, 0.5))}*x{i}^2" for i in range(1, 5)]
    return "(" + " + ".join(terms) + ")/2"


def _einstein_pair(kind: str, rng: random.Random, half_width: float):
    """(sigma, rho, A) of an Einstein pair that stays positive on the box
    [-half_width, half_width]^4 (x1 shifted to t > 0 for the profiles)."""
    w = half_width
    if kind in ("s2xs2", "h2xh2"):
        c = [rng.uniform(-0.05, 0.05) for _ in range(4)]
        if kind == "s2xs2":
            curv, sign = rng.uniform(0.5, 2.0), "+"
        else:
            # K r^2 <= 0.41 on the box, so both factors stay >= 0.29 and the
            # FD oracle's O(h^2) error stays well inside the verify tolerance
            curv, sign = rng.uniform(0.5, 1.0), "-"
        k = _num(curv)
        sigma = f"(1 {sign} {k}*({_shift('x1', c[0])}^2 + {_shift('x2', c[1])}^2))/2"
        rho = f"(1 {sign} {k}*({_shift('x3', c[2])}^2 + {_shift('x4', c[3])}^2))/2"
        return sigma, rho, curv if sign == "+" else -curv
    # t = x1 + shift >= 0.8 on the box keeps the FD error of these 1/t^2
    # metrics an order below the verify tolerance
    shift = _num(w + rng.uniform(0.8, 1.3))
    if kind == "hyperbolic":
        c = rng.uniform(0.5, 2.0)
        field = f"{_num(c)}*(x1 + {shift})"
        return field, field, -3.0 * c * c
    if kind == "ricci-flat":
        a = rng.uniform(0.5, 2.0)
        return f"{_num(a)}*(x1 + {shift})^0.25", f"(x1 + {shift})^-0.5", 0.0
    raise ValueError(kind)


EINSTEIN_KINDS = ("s2xs2", "h2xh2", "hyperbolic", "ricci-flat")


# ---------------------------------------------------------------------------
# Workloads


def verify_grid(rng: random.Random, tiny: bool = False) -> list[Request]:
    """``biconf verify`` on 3^4 grids.  A round is six random positive
    pairs and the four Einstein pairs.  The pairs with an exp field come
    three times, so the tail request is one of them, and the
    sum-of-squares pair three times, between the Einstein pairs and
    those in cost, so the median request is one of them."""
    n = 2 if tiny else 3
    random_kinds = (
        (_exp_quadratic, _exp_quadratic),
        (_exp_quadratic, _exp_quadratic),
        (_exp_quadratic, _sum_of_squares),
        (_sum_of_squares, _sum_of_squares),
        (_sum_of_squares, _sum_of_squares),
        (_sum_of_squares, _sum_of_squares),
    )
    out = []
    while len(out) < LIST_LENGTH:
        for slot in range(10):
            w = rng.uniform(0.25, 0.35)
            if slot < 6:
                make_s, make_r = random_kinds[slot]
                sigma, rho = make_s(rng), make_r(rng)
            else:
                sigma, rho, _ = _einstein_pair(EINSTEIN_KINDS[slot - 6], rng, w)
            spec, axes = _grid([(-w, w, n)] * 4)
            argv = ("verify", "--sigma", sigma, "--rho", rho, "--grid", spec)
            out.append(Request("verify", argv, "csv", {"grid": axes, "tol": 1e-4}))
    return out


def residual_scan(rng: random.Random, tiny: bool = False) -> list[Request]:
    """``biconf residual --format json`` on 6^4 grids of Einstein pairs; a
    round is the four pairs with the two (costlier) products twice."""
    n = 2 if tiny else 6
    out = []
    while len(out) < LIST_LENGTH:
        for kind in EINSTEIN_KINDS + ("s2xs2", "h2xh2"):
            w = rng.uniform(0.25, 0.4)
            sigma, rho, a_const = _einstein_pair(kind, rng, w)
            spec, axes = _grid([(-w, w, n)] * 4)
            argv = (
                "residual", "--sigma", sigma, "--rho", rho, "--A", _num(a_const),
                "--grid", spec, "--format", "json",
            )
            expect = {"grid": axes, "A": a_const, "tol": 1e-8}
            out.append(Request("residual", argv, "json", expect))
    return out


def trajectories(rng: random.Random, tiny: bool = False) -> list[Request]:
    """A round of the complete and the blow-up branch of ``solve-family``,
    the Ricci-flat profile, and ``solve-warped``, sized to cost about the
    same each, so the warped system carries a quarter of the time.

    kappa = |alpha| beta^2 sets the time scale of a family member, so
    fixing it keeps every family trajectory near 10^4 samples.  ``tiny``
    takes ten times larger steps (three times on the blow-up branch, whose
    blow-up time must stay within the checker's tolerance).
    """
    dt_scale = 10.0 if tiny else 1.0
    dt_family, dt_warped = 1e-3 * dt_scale, 1e-4 * dt_scale
    dt_blow_up = 3e-4 if tiny else 1e-4
    out = []
    while len(out) < LIST_LENGTH:
        # complete branch: alpha < 0, beta > 0, rho -> beta
        kappa, beta, b = rng.uniform(0.97, 1.03), rng.uniform(0.8, 1.25), rng.uniform(0.5, 2.0)
        alpha = -kappa / beta**2
        t_max = 10.0 / kappa
        fd_every = round(rng.uniform(700, 1300) / dt_scale)
        argv = (
            "solve-family", "--alpha", _num(alpha), "--beta", _num(beta), "--b", _num(b),
            "--dt", _num(dt_family), "--t-max", _num(t_max), "--fd-every", str(fd_every),
        )
        expect = {"alpha": alpha, "beta": beta, "b": b, "dt": dt_family, "t_max": t_max,
                  "fd_every": fd_every, "h": 1e-3}
        out.append(Request("complete", argv, "csv", expect))

        # blow-up branch: alpha > 0, beta < 0, t0 = 2 sqrt3 pi / (9 alpha beta^2)
        kappa, beta, b = rng.uniform(1.17, 1.24), -rng.uniform(0.8, 1.25), rng.uniform(0.5, 2.0)
        alpha = kappa / beta**2
        t0 = BLOW_UP_T0 / (alpha * beta * beta)
        t_max = t0 * rng.uniform(1.2, 1.6)
        argv = (
            "solve-family", "--alpha", _num(alpha), "--beta", _num(beta), "--b", _num(b),
            "--dt", _num(dt_blow_up), "--t-max", _num(t_max), "--format", "json",
        )
        expect = {"alpha": alpha, "beta": beta, "b": b, "dt": dt_blow_up, "t_max": t_max,
                  "t0": t0}
        out.append(Request("blow-up", argv, "json", expect))

        # Ricci-flat profile sigma = a t^(1/4), rho = t^(-1/2)
        a, t_min = rng.uniform(0.5, 2.0), rng.uniform(0.3, 0.8)
        t_max = t_min + rng.uniform(4.9, 5.1)
        argv = (
            "solve-family", "--ricci-flat", "--a", _num(a), "--t-min", _num(t_min),
            "--t-max", _num(t_max), "--dt", _num(dt_family),
        )
        expect = {"a": a, "t_min": t_min, "t_max": t_max, "dt": dt_family}
        out.append(Request("ricci-flat", argv, "csv", expect))

        # warped system from states that reach t_max (Ctilde > 0, delta0 <= 0)
        state = {
            "alpha0": rng.uniform(0.8, 1.5),
            "gamma0": rng.uniform(0.5, 1.5),
            "delta0": rng.uniform(-0.3, 0.0),
            "Ctilde": rng.uniform(0.05, 0.4),
        }
        t_max = rng.uniform(2.1, 2.2)
        argv = ("solve-warped",)
        for key, value in state.items():
            argv += (f"--{key}", _num(value))
        argv += ("--dt", _num(dt_warped), "--t-max", _num(t_max))
        out.append(Request("warped", argv, "csv", {"dt": dt_warped, "t_max": t_max}))
    return out


_GENERATORS = {
    "verify-grid": verify_grid,
    "residual-scan": residual_scan,
    "trajectories": trajectories,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    """The request list of ``workload`` for ``seed``; ``tiny`` shrinks every
    grid and trajectory for the harness smoke test."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, tiny)[:LIST_LENGTH]
