"""Seeded command schedules for the three benchmark workloads.

A workload is a fixed cycle of command templates. Cycle ``c`` of seed ``s``
draws every random choice (dimensions, coefficients, family lengths and the
``--seed`` passed to the CLI) from ``numpy.random.default_rng([s, c, slot])``,
so the same seed always yields the same commands and input files, while the
mix of command kinds is the same for every seed. Keeping the mix fixed and
varying only the values is what keeps run-to-run spread small.

Input files are plain JSON documents in the CLI's own schemas; the runner
writes them before the command and substitutes their paths into ``argv``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Command:
    """One CLI invocation plus what the benchmark needs to account for it."""

    kind: str
    argv: list[str]
    instances: int
    trials: int
    files: dict[str, dict] = field(default_factory=dict)
    # search only: the form file name and outer exponent, for the lhs re-check
    cert_form: str | None = None
    cert_p: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    templates: tuple
    # cycles in a run's batch: enough distinct commands that the figures
    # average over inputs, few enough that a run repeats the batch
    batch_cycles: int

    def commands(self, seed: int, cycle: int) -> list[Command]:
        return [make(np.random.default_rng([seed, cycle, slot]))
                for slot, make in enumerate(self.templates)]

    def batch(self, seed: int) -> list[Command]:
        return [cmd for c in range(self.batch_cycles)
                for cmd in self.commands(seed, c)]


def _cli_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _values(rng, shape, is_complex: bool) -> list:
    a = rng.standard_normal(shape)
    if is_complex:
        return np.stack([a, rng.standard_normal(shape)], axis=-1).tolist()
    return a.tolist()


def _form_doc(rng, dims, field_name: str, exponents) -> dict:
    dims = [int(m) for m in dims]
    return {
        "field": field_name,
        "dims": dims,
        "domain_exponents": list(exponents),
        "coeffs": _values(rng, (int(np.prod(dims)),), field_name == "complex"),
    }


def _dims(rng, order: int, lo: int, hi: int) -> list[int]:
    return [int(rng.integers(lo, hi + 1)) for _ in range(order)]


# ---------------------------------------------------------------------------
# verify-sweep


def _verify_random(suite, count, m, field_name=None, order=None):
    def make(rng):
        argv = ["verify", suite, "--random", str(count), "--m", str(m),
                "--seed", _cli_seed(rng)]
        if order is not None:
            argv += ["--order", str(order)]
        if field_name is not None:
            argv += ["--field", field_name]
        kind = " ".join(["verify", suite, field_name or "default",
                         f"order{order or 2}"])
        # inclusion lifts one random family per instance
        trials = count if suite == "inclusion" else 0
        return Command(kind, argv, instances=count, trials=trials)
    return make


def _verify_dv(field_name, order, dim_hi):
    def make(rng):
        dims = _dims(rng, order, 2, dim_hi)
        length = int(rng.integers(4, 15))
        form = _form_doc(rng, dims, field_name, ["inf"] * order)
        family = {"columns": [
            {"field": field_name, "dim": m, "exponent": "inf",
             "vectors": _values(rng, (length, m), field_name == "complex")}
            for m in dims
        ]}
        return Command(f"verify dv {field_name} order{order}",
                       ["verify", "dv", "form.json", "family.json"],
                       instances=1, trials=1,
                       files={"form.json": form, "family.json": family})
    return make


VERIFY_SWEEP = Workload(
    name="verify-sweep",
    templates=(
        _verify_random("littlewood", 40, 8),
        _verify_random("littlewood", 30, 6, "complex"),
        _verify_random("general", 40, 8),
        _verify_random("general", 30, 5, "complex"),
        _verify_random("extended", 20, 6),
        _verify_random("bh", 30, 4, order=3),
        _verify_random("bh", 12, 3, "complex", order=3),
        _verify_random("inclusion", 20, 4),
        _verify_dv("real", 2, 8),
        _verify_dv("complex", 2, 6),
        _verify_dv("real", 3, 4),
        _verify_dv("complex", 3, 3),
    ),
    batch_cycles=12,
)


# ---------------------------------------------------------------------------
# search-sup and search-lp


def _search(field_name, order, dim_lo, dim_hi, exponents, p, qs, budget,
            jmax=None):
    def make(rng):
        dims = _dims(rng, order, dim_lo, dim_hi)
        form = _form_doc(rng, dims, field_name, exponents)
        argv = ["search", "form.json", "--p", p, "--qs", qs,
                "--budget", str(budget), "--seed", _cli_seed(rng)]
        if jmax is not None:
            argv += ["--jmax", str(jmax)]
        domain = "x".join(f"l_{s}" for s in exponents)
        return Command(f"search {field_name} {domain} m{dim_lo}-{dim_hi}", argv,
                       instances=1, trials=budget, files={"form.json": form},
                       cert_form="form.json", cert_p=p)
    return make


def _experiment(p, q, m_lo, m_hi, budget, field_name):
    def make(rng):
        m = int(rng.integers(m_lo, m_hi + 1))
        argv = ["experiment", "--p", p, "--q", q, "--m", str(m), "--count", "1",
                "--budget", str(budget), "--jmax", "4", "--field", field_name,
                "--seed", _cli_seed(rng)]
        return Command(f"experiment {field_name} l_{p}xl_{q}", argv,
                       instances=1, trials=budget)
    return make


SEARCH_SUP = Workload(
    name="search-sup",
    templates=(
        _search("real", 2, 3, 8, ["inf", "inf"], "1", "2,2", 256),
        _search("complex", 2, 3, 6, ["inf", "inf"], "1", "2,2", 256),
        _search("real", 3, 2, 4, ["inf"] * 3, "1", "2,2,2", 192),
        _search("complex", 3, 2, 3, ["inf"] * 3, "2", "2,2,2", 192),
    ),
    batch_cycles=24,
)

SEARCH_LP = Workload(
    name="search-lp",
    templates=(
        _search("complex", 2, 3, 3, ["4/3", 2], "4/3", "2,1", 4, jmax=4),
        _search("real", 2, 3, 3, [1, 2], "1", "2,1", 8, jmax=4),
        _search("real", 2, 2, 2, [1, 2], "1", "2,1", 8, jmax=4),
        _experiment("4/3", "2", 2, 2, 4, "complex"),
        _experiment("1", "2", 3, 3, 8, "real"),
    ),
    batch_cycles=10,
)

WORKLOADS = {w.name: w for w in (VERIFY_SWEEP, SEARCH_SUP, SEARCH_LP)}
