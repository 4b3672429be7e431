"""In-memory span tracing of the summability modules, installed from outside.

The tracer wraps the public functions (``__all__``) of ``spaces``, ``norms``,
``forms``, ``rademacher`` and ``summing`` plus ``cli.main``, and rebinds each
wrapper under every name in every ``summability`` module that binds the
original, so that calls between modules and inside one module are both seen.
Two hot accessors are counted without spans: ``Exponent.value`` and the
``VectorSeq`` constructor. Nothing under ``src/`` is edited; ``uninstall``
restores every original binding.

A span is (name, start, end, parent, command id) plus an ``exact`` flag and a
work figure for the calls whose results carry them. Spans stay in flat
arrays until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

TRACED_MODULES = ("spaces", "norms", "forms", "rademacher", "summing")


def enumeration_work(form, budget: int = 1 << 22) -> int:
    """Patterns ``forms.op_norm`` enumerates for ``form``; 0 off that path.

    Mirrors the selection in ``op_norm``: real forms whose domains are all
    sup-norm or l_1 spaces, at least one of them sup-norm, with the largest
    sup-norm slot solved in closed form and the work inside ``budget``.
    Computed here from dims and domains, not read from the program.
    """
    domains = form.domains
    if form.field.is_complex or all(d.exponent.recip == 1 for d in domains):
        return 0
    if not all(d.is_sup or d.exponent.recip == 1 for d in domains):
        return 0
    dims = form.dims
    free = max((i for i, d in enumerate(domains) if d.is_sup), key=lambda i: dims[i])
    work = dims[free]
    for i, d in enumerate(domains):
        if i != free:
            work *= (1 << d.dim) if d.is_sup else d.dim
    return work if work <= budget else 0


def _exact_of(result) -> int:
    return 1 if result.exact else 0


def _op_norm_work(args, kwargs, result) -> float:
    return float(enumeration_work(args[0], kwargs.get("budget", 1 << 22)))


def _rademacher_patterns(args, kwargs, result) -> float:
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "exact")
    return float(1 << np.asarray(args[0]).shape[0]) if mode == "exact" else 0.0


# name -> (exact flag from the result, work figure from args and result)
_ANNOTATE = {
    "norms.weak_lp_norm": (_exact_of, None),
    "forms.op_norm": (_exact_of, _op_norm_work),
    "summing.summing_lower_bound": (_exact_of, None),
    "rademacher.rademacher_average": (None, _rademacher_patterns),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.cmd: array = array("i")
        self.exact: array = array("b")
        self.work: array = array("d")
        self.counters = {"spaces.Exponent.value": 0, "norms.VectorSeq": 0}
        self.command = -1
        self._stack: list[int] = []
        self._bindings = self._collect_bindings()

    # -- installation -------------------------------------------------------

    def _collect_bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every traced name."""
        import summability.cli as cli
        from summability.norms import VectorSeq
        from summability.spaces import Exponent

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "summability" or k.startswith("summability.")]
        targets = []
        for short in TRACED_MODULES:
            mod = sys.modules[f"summability.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((f"{short}.{attr}", fn))
        targets.append(("cli.main", cli.main))
        bindings = []
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        bindings.append((mod, attr, fn, wrapper))

        counters = self.counters
        value_prop = Exponent.__dict__["value"]
        fget = value_prop.fget

        def counted_value(exp):
            counters["spaces.Exponent.value"] += 1
            return fget(exp)

        post_init = VectorSeq.__dict__["__post_init__"]

        def counted_post_init(seq):
            counters["norms.VectorSeq"] += 1
            post_init(seq)

        bindings.append((Exponent, "value", value_prop, property(counted_value)))
        bindings.append((VectorSeq, "__post_init__", post_init, counted_post_init))
        return bindings

    def install(self) -> None:
        for owner, attr, _, replacement in self._bindings:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        exact_fn, work_fn = _ANNOTATE.get(name, (None, None))
        stack = self._stack
        arrays = (self.name_id, self.start, self.end, self.parent, self.cmd,
                  self.exact, self.work)
        name_id, start, end, parent, cmd, exact, work = arrays

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            cmd.append(self.command)
            exact.append(-1)
            work.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if exact_fn is not None:
                exact[idx] = exact_fn(result)
            if work_fn is not None:
                work[idx] = work_fn(args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cmd": np.frombuffer(self.cmd, dtype=np.int32).copy(),
            "exact": np.frombuffer(self.exact, dtype=np.int8).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def layer_metrics(spans: dict[str, np.ndarray], counters: dict[str, int]) -> dict:
    """Per-layer counts, self times, exact shares and work from the spans."""
    names = list(spans["names"])
    nid = spans["name_id"]
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_s = dur - covered
    exact = spans["exact"]

    def select(*wanted):
        ids = [names.index(w) for w in wanted if w in names]
        return np.isin(nid, ids)

    def share(mask):
        n = int(mask.sum())
        return float((exact[mask] == 1).sum() / n) if n else 0.0

    weak = select("norms.weak_lp_norm")
    op = select("forms.op_norm")
    rad = select("rademacher.rademacher_average")
    slb = select("summing.summing_lower_bound")
    verify = np.isin(nid, [i for i, n in enumerate(names)
                           if n.startswith("summing.verify_")])
    lp = select("norms.lp_norm")
    return {
        "norms.weak_lp_norm.calls": int(weak.sum()),
        "norms.weak_lp_norm.self_s": float(self_s[weak].sum()),
        "norms.weak_lp_norm.exact_share": share(weak),
        "norms.weak_lp_norm.heuristic.self_s": float(self_s[weak & (exact == 0)].sum()),
        "norms.lp_norm.calls": int(lp.sum()),
        "norms.lp_norm.self_s": float(self_s[lp].sum()),
        "norms.mixed_norm.self_s": float(self_s[select("norms.mixed_norm")].sum()),
        "norms.VectorSeq.calls": counters["norms.VectorSeq"],
        "forms.op_norm.calls": int(op.sum()),
        "forms.op_norm.self_s": float(self_s[op].sum()),
        "forms.op_norm.exact_share": share(op),
        "forms.op_norm.heuristic.self_s": float(self_s[op & (exact == 0)].sum()),
        "forms.op_norm.enum_work": float(spans["work"][op].sum()),
        "rademacher.rademacher_average.calls": int(rad.sum()),
        "rademacher.rademacher_average.self_s": float(self_s[rad].sum()),
        "rademacher.patterns": float(spans["work"][rad].sum()),
        "summing.random_family_search.self_s":
            float(self_s[select("summing.random_family_search")].sum()),
        "summing.summing_lower_bound.calls": int(slb.sum()),
        "summing.summing_lower_bound.self_s": float(self_s[slb].sum()),
        "summing.cert_exact_share": share(slb),
        "summing.verify.calls": int(verify.sum()),
        "summing.verify.self_s": float(self_s[verify].sum()),
        "summing.lift_family.self_s": float(self_s[select("summing.lift_family")].sum()),
        "spaces.Exponent.value.calls": counters["spaces.Exponent.value"],
        "cli.main.self_s": float(self_s[select("cli.main")].sum()),
        "trace.spans": int(len(nid)),
    }
