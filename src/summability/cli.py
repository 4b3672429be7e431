"""Batch front end: load tensors, run verifier suites and searches, emit reports.

JSON in, JSON or CSV out. Identical configuration and inputs produce byte
identical report bodies (reports carry no timestamps), and exit codes follow
a fixed contract: 0 when nothing hard-failed, 2 on any hard failure, 3 on
IO or schema errors, negative counts, non-finite input values, a report or
norm holding a non-finite number (reports are strict JSON), or a random
suite whose forms could exceed the coefficient budget.

A verify suite runs the summing verifiers on the given files or checks
seeded random instances, ``--random`` of them (``--random 0`` runs none):
two generators seeded from ``--seed`` draw their shapes, then their normal
numbers, instance after instance, and each chunk of instances is checked
as stacks, its forms' operator norms from one kernel call and its lhs from
one call per padding class. Each command,
suite and norm kind takes only the options its handler reads, and a
report's ``config`` echoes them. Every command writes its document through
one renderer.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from ._codec import decode_values
from ._signs import _ENUM_BUDGET, sign_count
from .demos import evaluate_claims
from .forms import FormTensor, _ball_sup, op_norm
from .norms import (_FOUR_THIRDS, _L1, _L2, NormEstimate, VectorSeq, _lp_rows, _mixed_rows,
                    _sum_class, lp_norm, mixed_norm, weak_lp_norm)
from .rademacher import rad_p_norm
from .spaces import INF, Exponent, ExponentTuple, ScalarField
from .summing import (
    _CONSTANTS,
    RatioCertificate,
    TestFamily,
    VerificationReport,
    _as_family,
    _extended_exponents,
    _extended_report,
    _versus_op_norm,
    lift_families,
    random_family_search,
    summing_experiment,
    verify_almost_summing,
    verify_bh,
    verify_defant_voigt,
    verify_extended_littlewood,
    verify_general_littlewood,
    verify_littlewood_43,
)

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_SCHEMA = 3

# random verify suites draw at most this many coefficients per form, and
# hold at most this many in a chunk of drawn instances
RANDOM_COEFF_BUDGET = 1 << 22
# verify inclusion lifts at most this many instances at once: each holds its
# families and certificates (about 3 KB) until its chunk is lifted
LIFT_CHUNK = 1 << 10

CSV_COLUMNS = ["check", "field", "p", "q", "lhs", "rhs", "ratio", "bound",
               "exact_norm", "status"]


class SchemaError(Exception):
    """Malformed input file or option value."""


class Parser(argparse.ArgumentParser):
    """An argparse parser, and the class of every subparser, that takes an
    option only by its full name and exits 3 on an error."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# input files


def _load(path: str, what: str, parse):
    """``parse`` applied to the JSON document in ``path``; any failure is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad {what}: {exc}") from exc


def load_form(path: str) -> FormTensor:
    return _load(path, "form tensor", FormTensor.from_json)


def load_family(path: str) -> TestFamily:
    return _load(path, "test family", TestFamily.from_json)


def load_vector_seq(path: str) -> VectorSeq:
    return _load(path, "vector sequence", VectorSeq.from_json)


def _parse_matrix(data: dict) -> np.ndarray:
    """Matrix files: {"field": "real"|"complex", "entries": [[row], ...]}."""
    if "entries" in data:
        field = ScalarField(data.get("field", "real"))
        entries = decode_values(data["entries"], field.is_complex)
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        return entries
    form = FormTensor.from_json(data)
    if form.order != 2:
        raise ValueError("matrix file must be 2-d")
    return form.coeffs


def load_matrix(path: str) -> np.ndarray:
    return _load(path, "matrix", _parse_matrix)


def _at_least(low: int):
    """argparse type of an integer option whose smallest value is ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_count = _at_least(0)  # instance, record and sample counts, and seeds


def _parse_exponent(text: str) -> Exponent:
    try:
        return Exponent.of(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad exponent {text!r}: {exc}") from exc


def _parse_exponent_list(text: str) -> tuple[Exponent, ...]:
    return tuple(_parse_exponent(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# report documents


# namespace keys that are not options a report echoes: the route to the
# handler, the input paths and the output
_UNECHOED = frozenset({"command", "handler", "file", "files", "beta", "out", "format"})
# the options that only draw seeded instances, which a suite given files does not read
_SEEDING = frozenset({"random", "m", "order", "seed", "field", "jmax"})


def _header(args) -> dict:
    """The keys every document starts with; ``config`` echoes every option
    the command reads, under its dest name: those it takes but its paths
    and output, and, for a verify suite given files, not the seeding ones."""
    unechoed = _UNECHOED | _SEEDING if vars(args).get("files") else _UNECHOED
    return {
        "tool": "summability",
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in unechoed},
    }


def _report(args, reports: list[VerificationReport], **extra) -> int:
    """Write the document of ``reports`` (then ``extra``'s keys) and return
    the exit code."""
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    doc = _header(args)
    doc["reports"] = [r.to_dict() for r in reports]
    doc["summary"] = {"total": len(reports), **counts}
    _emit({**doc, **extra}, args)
    return EXIT_FAIL if any(r.status == "fail" for r in reports) else EXIT_OK


def _strict_json(doc: dict, **kwargs) -> str:
    try:
        return json.dumps(doc, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"report holds a non-finite number ({exc})") from exc


def _render(doc: dict, fmt: str) -> str:
    """JSON, or CSV of the reports (fixed columns) or records (their keys)."""
    if fmt == "json":
        return _strict_json(doc, indent=2) + "\n"
    _strict_json(doc)  # the CSV cells come from the same numbers
    if "records" in doc:
        rows = doc["records"]
        columns = list(rows[0]) if rows else []
    else:
        rows, columns = doc["reports"], CSV_COLUMNS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(col) is None else row[col] for col in columns])
    return buf.getvalue()


def _emit(doc: dict, args) -> None:
    text = _render(doc, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.out}: {exc}") from exc
        summary = (doc["summary"] if "summary" in doc
                   else f"{len(doc['records'])} records")
        print(f"wrote {args.out}: {summary}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# norm commands


def _print_norm(kind: str, value: float, label: str) -> int:
    if not math.isfinite(value):
        raise SchemaError(f"the {kind} norm is not finite ({value!r})")
    print(f"{value!r} {label}")
    return EXIT_OK


def cmd_lp(args) -> int:
    seq = load_vector_seq(args.file)
    if seq.length != 1:
        raise SchemaError("lp expects a single-vector sequence file")
    return _print_norm("lp", lp_norm(seq.vectors[0], _parse_exponent(args.p)), "exact")


def cmd_mixed(args) -> int:
    M = load_matrix(args.file)
    value = mixed_norm(M, _parse_exponent(args.p), _parse_exponent(args.q))
    return _print_norm("mixed", value, "exact")


def cmd_weak(args) -> int:
    est = weak_lp_norm(load_vector_seq(args.file), _parse_exponent(args.p))
    return _print_norm("weak", est.value, "exact" if est.exact else "lower-bound")


def cmd_rad(args) -> int:
    seq = load_vector_seq(args.file)
    value = rad_p_norm(seq, _parse_exponent(args.p), args.mode,
                       samples=args.samples, seed=args.seed)
    return _print_norm("rad", value, "exact" if args.mode == "exact" else "monte-carlo")


def cmd_opnorm(args) -> int:
    est = op_norm(load_form(args.file))
    return _print_norm("opnorm", est.value, "exact" if est.exact else "lower-bound")


# ---------------------------------------------------------------------------
# verify commands


def _refuse_over_coefficient_budget(args, order: int) -> None:
    """Refuse forms of ``order`` slots and dims up to ``args.m`` over the coefficient budget."""
    # order * log2(m), not m ** order: a huge --order stays cheap
    if order * math.log2(args.m) > math.log2(RANDOM_COEFF_BUDGET):
        raise SchemaError(
            f"{args.command} draws forms of order {order} and dimension up to "
            f"{args.m}, which need up to {args.m}^{order} coefficients, over the "
            f"budget {RANDOM_COEFF_BUDGET}")


def _drawn(args, order: int, field: ScalarField, extra=(), layout=lambda row: [row],
           least: int = 1):
    """The ``args.random`` seeded instances of a suite, whose forms have
    ``order`` slots and dims up to ``args.m``, in chunks of at most
    RANDOM_COEFF_BUDGET form coefficients (an instance counts as at least
    ``least``, and a chunk holds one instance at least). Forms that could
    exceed the budget are refused before any draw.

    Two generators draw them, one per child of ``SeedSequence(args.seed)``.
    The first draws, in one call, the shape row of every instance in turn:
    its dims in [2, m], then an integer in [1, high) for each ``high`` of
    ``extra``. An instance is the arrays of the shapes ``layout(row)``, its
    form first. The second draws the normal numbers of the instances in
    turn, a chunk's in one call: the real parts of an instance's arrays, one
    after another and each in C order, then for a complex ``field`` their
    imaginary parts. How calls split a draw moves no number, so an instance
    does not depend on the chunks. Each chunk is a list of groups, one per
    shape row: the indices of its instances (a list) and, per array, the
    stack of their arrays. One gather takes the real parts of every group
    of a chunk from its draw, and one more their imaginary parts; the
    stacks are views of what they gather. The gathers move no number, and
    neither does padding them by class later (:func:`_per_class`), so
    instance i is still the numbers after those of instances 0 to i - 1."""
    _refuse_over_coefficient_budget(args, order)
    shapes, normals = map(np.random.default_rng, np.random.SeedSequence(args.seed).spawn(2))
    lows, highs = [2] * order + [1] * len(extra), [args.m + 1] * order + list(extra)
    rows = list(map(tuple, shapes.integers(lows, highs, size=(args.random, len(lows))).tolist()))
    # per shape row, each array's first column among the real parts of an instance
    cols = {row: list(itertools.accumulate(map(math.prod, layout(row)), initial=0))
            for row in set(rows)}
    reals = np.array([cols[row][-1] for row in rows], int)
    per = 2 if field.is_complex else 1
    ends = np.concatenate(([0], np.cumsum(per * reals)))  # each instance's first number
    costs = np.cumsum([0] + [max(math.prod(row[:order]), least) for row in rows])
    lo = 0
    while lo < args.random:
        hi = max(lo + 1, int(np.searchsorted(costs, costs[lo] + RANDOM_COEFF_BUDGET, "right")) - 1)
        flat = normals.standard_normal(int(ends[hi] - ends[lo]))
        if not np.all(np.isfinite(flat)):
            raise ValueError("coefficients must be finite")
        groups = {}
        for i in range(lo, hi):
            groups.setdefault(rows[i], []).append(i)
        # the real parts of the chunk's instances, group after group
        by_group = np.array([i for idx in groups.values() for i in idx])
        n = reals[by_group]
        take = np.repeat(ends[by_group] - ends[lo] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        z = flat[take] if per == 1 else flat[take] + 1j * flat[take + np.repeat(n, n)]
        chunk, head = [], 0
        for row, idx in groups.items():
            at = cols[row]
            block = z[head:head + len(idx) * at[-1]].reshape(len(idx), at[-1])
            head += len(idx) * at[-1]
            chunk.append((idx, [block[:, a:b].reshape(len(idx), *shape)
                                for a, b, shape in zip(at, at[1:], layout(row))]))
        yield chunk
        lo = hi


def _per_class(stacks, rule) -> list:
    """``rule`` of the moduli of each item of ``stacks``, (T, *dims) stacks
    of one order and dtype, in one call per summation class of the last dim
    (:func:`norms._sum_class`): the stacks of a class are zero-padded at the
    end of each axis to its largest dims and taken at once. Padding moves
    no bit of an l_p or mixed norm (:func:`_lp_rows`, :func:`_mixed_rows`)
    whose outer sum runs along the last axis and whose inner sums run down
    a middle axis, in order. Returns the items' values in the order of the
    stacks."""
    heads = np.cumsum([0] + [len(a) for a in stacks]).tolist()
    classes, out = {}, np.empty(heads[-1])
    for g, a in enumerate(stacks):
        classes.setdefault(_sum_class(a.shape[-1]), []).append(g)
    for members in classes.values():
        at = [k for g in members for k in range(heads[g], heads[g + 1])]  # the class's items
        padded = stacks[members[0]]
        if len(members) > 1:
            dims = tuple(map(max, *(stacks[g].shape[1:] for g in members)))
            padded, lo = np.zeros((len(at),) + dims, padded.dtype), 0
            for g in members:
                a = stacks[g]
                padded[(slice(lo, lo + len(a)),) + tuple(map(slice, a.shape[1:]))] = a
                lo += len(a)
        out[at] = rule(np.abs(padded))
    return out.tolist()


def _drawn_reports(args, order: int, sides, report, **draw) -> list[VerificationReport]:
    """The report of each seeded instance (:func:`_drawn` with ``draw``),
    numbered in its witness: ``report(field, opn, *values)``, with ``opn``
    the operator norm of its form, from one kernel call per chunk on the
    stacks of its groups, and ``values`` its items of the lists that
    ``sides(field, stacks)`` takes at once from the chunk's list of stacks
    per group, in the order of the groups."""
    field, reports = ScalarField(args.field), [None] * args.random
    for groups in _drawn(args, order, field, **draw):
        stacks = [arrays for _, arrays in groups]
        values, exact, _ = _ball_sup([forms for forms, *_ in stacks], (INF,) * order,
                                     witness=False)
        idx = [i for group, _ in groups for i in group]
        for i, *items in zip(idx, map(NormEstimate, values.tolist(), exact),
                             *sides(field, stacks)):
            reports[i] = report(field, *items)
            reports[i].witness["instance"] = i
    return reports


def _coefficient_suite(args, verify, check: str, lhs, p: str, q=None, slots: int = 2,
                       **witness) -> int:
    """``verify`` of each form file, or the ``check`` of seeded random forms
    of ``slots`` slots: ``lhs`` takes the lhs of a chunk's forms from their
    stacks at once, and each report asserts the check's row of
    ``_CONSTANTS`` for bilinear forms and no bound above."""
    if args.files:
        return _report(args, [verify(load_form(path)) for path in args.files])
    const = _CONSTANTS[check, ScalarField(args.field)] if slots == 2 else None
    return _report(args, _drawn_reports(
        args, slots, lambda field, stacks: (lhs([forms for forms, in stacks]),),
        lambda field, opn, side: _versus_op_norm(check, field, opn, side, const, p, q, **witness)))


def _lp_lhs(e: Exponent):
    """The l_e norm of the coefficients of each form of a list of stacks
    (:func:`_per_class` of their rows of coefficients)."""
    return lambda stacks: _per_class([a.reshape(len(a), -1) for a in stacks],
                                     lambda a: _lp_rows(a, e))


def _mixed_lhs(p: Exponent, q: Exponent):
    """The l_p(l_q) mixed norm of each matrix of a list of stacks (:func:`_per_class`)."""
    return lambda stacks: _per_class(stacks, lambda a: _mixed_rows(a, p, q))


# the handlers look the verifiers up by name when they run, so a rebinding
# of their module-level names (a tracer's) sees every call on files and
# every seeded dv instance
def cmd_littlewood(args) -> int:
    return _coefficient_suite(args, verify_littlewood_43, "littlewood_43",
                              _lp_lhs(_FOUR_THIRDS), "4/3")


def cmd_general(args) -> int:
    return _coefficient_suite(args, verify_general_littlewood, "general_littlewood",
                              _mixed_lhs(_L1, _L2), "1", "2")


def cmd_bh(args) -> int:
    t = Exponent.of(f"{2 * args.order}/{args.order + 1}")
    return _coefficient_suite(args, verify_bh, "bohnenblust_hille", _lp_lhs(t), str(t),
                              slots=args.order, order=args.order)


def cmd_extended(args) -> int:
    if args.files:
        verify = functools.partial(verify_extended_littlewood, p=_parse_exponent(args.p))
        forms = [(path, load_form(path)) for path in args.files]
        beta = None if args.beta == "identity" else load_matrix(args.beta)
        return _report(args, [verify(A, _beta_for(A, path, beta, args.beta))
                              for path, A in forms])
    pe, qe = _extended_exponents(_parse_exponent(args.p))
    # each form's beta has rows in [1, m] and a column per row of the form
    # beta @ A per group: padding could move the bits of the products
    return _report(args, _drawn_reports(
        args, 2, lambda field, stacks: (
            _mixed_lhs(pe, qe)([beta @ A for A, beta in stacks]),
            _mixed_lhs(INF, _L2)([beta for _, beta in stacks])),
        functools.partial(_extended_report, pe=pe, qe=qe), extra=(args.m + 1,),
        layout=lambda row: [row[:2], (row[2], row[0])]))


def _family_layout(row: tuple) -> list[tuple]:
    """The arrays of an instance of a form and a family of length J, given
    its dims and then J: the form, then the family's columns, one (J, m)
    array per dim m."""
    return [row[:-1], *((row[-1], m) for m in row[:-1])]


def _pairs(field: ScalarField, stacks) -> list[tuple[FormTensor, TestFamily]]:
    """The (form, family) instances of a group drawn by :func:`_family_layout`."""
    forms = [FormTensor.on_linf(a, field) for a in stacks[0]]
    return [(A, _as_family(A, [c[j] for c in stacks[1:]])) for j, A in enumerate(forms)]


def cmd_dv(args) -> int:
    if args.files:
        if len(args.files) != 2:
            raise SchemaError("dv expects a form file and a family file")
        return _report(args, [verify_defant_voigt(load_form(args.files[0]),
                                                  load_family(args.files[1]))])
    if sign_count(min(args.jmax, 64)) > _ENUM_BUDGET:  # min: a huge --jmax stays cheap
        raise SchemaError(f"--jmax {args.jmax}: a family may have 2^{args.jmax - 1} sign "
                          f"patterns, over the budget {_ENUM_BUDGET}")
    return _report(args, _drawn_reports(
        args, args.order, lambda field, stacks: (
            [pair for arrays in stacks for pair in _pairs(field, arrays)],),
        lambda field, opn, pair: verify_defant_voigt(*pair, opn=opn), extra=(args.jmax + 1,),
        layout=_family_layout))


def cmd_almost(args) -> int:
    A, fam = load_form(args.files[0]), load_family(args.files[1])
    cert = verify_almost_summing(A, fam, k=args.curry)
    return _report(args, [_certificate_report("almost_summing", A, cert)])


def cmd_inclusion(args) -> int:
    """Random certificate lifts; status is the monotonicity of the lift. A lift
    below its source rests on a heuristic weak norm (``lift_families`` raises
    when every weak norm is exact), so it is inconclusive, never a fail. The
    instances are real forms and families of length 1 to 4, lifted in chunks
    of at most RANDOM_COEFF_BUDGET form coefficients and LIFT_CHUNK instances
    (and at least one instance), one ``lift_families`` call a chunk; a lift
    does not depend on the others of its chunk."""
    source = ExponentTuple(2, (2, 2))
    target = ExponentTuple(1, (Exponent.of(1), Exponent.of(2)))
    p, q, reports = str(source), str(target), [None] * args.random
    for groups in _drawn(args, 2, ScalarField.REAL, (5,), _family_layout,
                         RANDOM_COEFF_BUDGET // LIFT_CHUNK):
        idx = [i for group, _ in groups for i in group]
        pairs = [pair for _, stacks in groups for pair in _pairs(ScalarField.REAL, stacks)]
        for i, (A, fam), res in zip(idx, pairs, lift_families(pairs, source, target)):
            reports[i] = VerificationReport(
                "inclusion_lift", str(A.field), p, q, lhs=res.source.ratio, rhs=res.derived.ratio,
                ratio=res.derived.ratio / res.source.ratio if res.source.ratio > 0 else None,
                bound=None, exact_norm=res.source.exact and res.derived.exact,
                status="pass" if res.monotone else "inconclusive",
                witness={"instance": i, "length": fam.length})
    return _report(args, reports)


def _beta_for(A: FormTensor, path: str, beta, beta_path: str) -> np.ndarray:
    """The beta matrix applied to the form of ``path``: the identity on its
    first slot when ``beta`` is None, else ``beta`` if it has one column per
    row of the form."""
    if beta is None:
        return np.eye(A.dims[0])
    if beta.ndim != 2 or beta.shape[1] != A.dims[0]:
        raise SchemaError(f"{beta_path}: a beta of shape {beta.shape} does not fit "
                          f"the form of {path}, whose first slot has dim {A.dims[0]}")
    return beta


def _certificate_report(check: str, A: FormTensor,
                        cert: RatioCertificate) -> VerificationReport:
    return VerificationReport(
        check=check,
        field=str(A.field),
        p=str(cert.exponents.p),
        q=",".join(str(q) for q in cert.exponents.qs),
        lhs=cert.lhs,
        rhs=cert.denominator,
        ratio=cert.ratio,
        bound=None,
        exact_norm=cert.exact,
        status="pass" if np.isfinite(cert.ratio) else "fail",
        witness={"weak_norms": [r.value for r in cert.rhs_norms]},
    )


# ---------------------------------------------------------------------------
# search, experiment and demos commands


def cmd_search(args) -> int:
    A = load_form(args.file)
    exps = ExponentTuple(_parse_exponent(args.p), _parse_exponent_list(args.qs))
    cert = random_family_search(A, exps, budget=args.budget, seed=args.seed,
                                j_max=args.jmax)
    return _report(args, [_certificate_report("search", A, cert)],
                   certificate=cert.to_dict())


def cmd_experiment(args) -> int:
    _refuse_over_coefficient_budget(args, 2)
    doc = _header(args)
    doc["records"] = summing_experiment(
        _parse_exponent(args.p),
        _parse_exponent(args.q),
        m=args.m,
        count=args.count,
        budget=args.budget,
        seed=args.seed,
        j_max=args.jmax,
        field=ScalarField(args.field),
    )
    _emit(doc, args)
    return EXIT_OK


def cmd_demos(args) -> int:
    rows = evaluate_claims()
    failed = sum(row["status"] == "fail" for row in rows)
    _emit({**_header(args), "claims": rows,
           "summary": {"total": len(rows), "pass": len(rows) - failed, "fail": failed}}, args)
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


# every option of every command; a command names the ones its handler reads
# and may change their settings (its own default, say)
_OPTIONS = {
    "--random": dict(type=_count, default=100,
                     help="number of seeded random instances when no files are given"),
    "--m": dict(type=_at_least(2), default=4, help="largest dimension"),
    "--order": dict(type=_at_least(2), default=3, help="form order of the random instances"),
    "--seed": dict(type=_count, default=0, help="master seed"),
    "--field": dict(choices=["real", "complex"], help="scalar field of the random forms"),
    "--jmax": dict(type=_at_least(1), default=16, help="largest random family length"),
    "--p": dict(default="2", help="exponent (decimal or fraction)"),
    "--q": dict(default="2", help="second exponent"),
    "--qs": dict(required=True, help="comma-separated inner exponents, e.g. 2,2"),
    "--beta": dict(default="identity", help="'identity' or a matrix file"),
    "--curry": dict(type=int, help="head length of the curried form"),
    "--budget": dict(type=int, default=256, help="random trial count"),
    "--count": dict(type=_count, default=5, help="number of random forms"),
    "--mode": dict(choices=["exact", "mc"], default="exact"),
    "--samples": dict(type=_count, default=100_000),
    "--out": dict(help="report file (stdout when omitted)"),
    "--format": dict(choices=["json", "csv"], default="json"),
}
_REPORT = " --out --format"


def _command(parent, name: str, handler, options: str, help=None, **settings) -> Parser:
    """Command ``name`` of the subparsers ``parent``, with the ``options``
    (names separated by spaces) of _OPTIONS, each updated by
    ``settings[dest]`` where given."""
    p = parent.add_parser(name, help=help)
    for option in options.split():
        p.add_argument(option, **{**_OPTIONS[option],
                                  **settings.get(option[2:].replace("-", "_"), {})})
    # its command is the words after the tool's name: "verify littlewood"
    p.set_defaults(handler=handler, command=p.prog.partition(" ")[2])
    return p


@functools.lru_cache(maxsize=None)  # parsing leaves the parser as it was
def build_parser() -> Parser:
    parser = Parser(
        prog="summability",
        description="Verify summability inequalities of multilinear forms "
                    "on finite sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="compute one norm from a file").add_subparsers(
        required=True)
    for kind, handler, options in [("lp", cmd_lp, "--p"), ("mixed", cmd_mixed, "--p --q"),
                                   ("weak", cmd_weak, "--p"),
                                   ("rad", cmd_rad, "--p --mode --samples --seed")]:
        _command(norm, kind, handler, options).add_argument("file")
    _command(sub, "opnorm", cmd_opnorm, "",
             help="operator norm of a form file").add_argument("file")

    verify = sub.add_parser("verify", help="run an inequality suite").add_subparsers(
        required=True)
    for suite, handler, options, field in [
        ("littlewood", cmd_littlewood, "--random --m --seed --field", "real"),
        ("general", cmd_general, "--random --m --seed --field", "real"),
        ("extended", cmd_extended, "--random --m --seed --field --p --beta", "complex"),
        ("bh", cmd_bh, "--random --m --order --seed --field", "real"),
        ("dv", cmd_dv, "--random --m --order --seed --field --jmax", "real"),
    ]:
        # --p is extended's outer exponent, --jmax the longest family of dv
        _command(verify, suite, handler, options + _REPORT, field={"default": field},
                 p={"default": "4/3"}, jmax={"default": 8}).add_argument(
            "files", nargs="*", help="input files; omit to draw seeded random instances")
    _command(verify, "almost", cmd_almost, "--curry" + _REPORT).add_argument(
        "files", nargs=2, metavar="FILE", help="a form file, then a family file")
    _command(verify, "inclusion", cmd_inclusion, "--random --m --seed" + _REPORT)

    search = _command(sub, "search", cmd_search, "--p --qs --seed --budget --jmax" + _REPORT,
                      help="best ratio certificate for a form", p={"required": True})
    search.add_argument("file")
    _command(sub, "experiment", cmd_experiment,
             "--p --q --m --count --seed --budget --jmax --field" + _REPORT,
             help="empirical (p;2,1) ratios on l_p x l_q domains", p={"default": "4/3"},
             m={"type": _at_least(1), "default": 3}, field={"default": "complex"})

    _command(sub, "demos", cmd_demos, "",
             help="each sharp constant measured at the input that attains it").set_defaults(
        format="json", out=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
