"""Summing-norm lower bounds, inclusion machinery, and inequality verifiers.

A test family (one finite vector sequence per slot) witnesses a ratio
lhs / prod(weak norms) that certifies a lower bound on the corresponding
summing norm whenever every weak norm on the right is exact or an
over-estimate. The coefficient verifiers (the 4/3 inequality, its general
and mixed-norm forms, Bohnenblust-Hille) compute their coefficient side and
hand it to one check against constant times the operator norm, with a slack
policy that downgrades violations to "inconclusive" when the operator norm
is only a heuristic lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import chain

import numpy as np

from ._signs import sign_matrix
from .forms import (FormTensor, _ball_sup, _batch_contract, _gaussian, _polar,
                    compose_beta, curry, op_norm)
from .norms import NormEstimate, VectorSeq, _axis_norms, lp_norm, mixed_norm, weak_lp_norm
from .rademacher import rad_p_norm, rademacher_average
from .spaces import (
    ConstantsConfig,
    Exponent,
    ExponentLike,
    ExponentTuple,
    INF,
    ScalarField,
    SpaceSpec,
)

__all__ = [
    "TestFamily",
    "RatioCertificate",
    "VerificationReport",
    "summing_lower_bound",
    "random_family_search",
    "factor_sequence",
    "lift_family",
    "LiftResult",
    "verify_littlewood_43",
    "verify_general_littlewood",
    "verify_extended_littlewood",
    "verify_bh",
    "verify_defant_voigt",
    "verify_almost_summing",
    "tensor_weak_norm_estimate",
    "coincidence_region",
    "summing_experiment",
    "random_form",
]


# ---------------------------------------------------------------------------
# test families and certificates


@dataclass
class TestFamily:
    """n parallel vector sequences of common length, one per form slot."""

    __test__ = False  # despite the name, not a pytest class

    columns: tuple[VectorSeq, ...]

    def __post_init__(self):
        self.columns = tuple(self.columns)
        if not self.columns:
            raise ValueError("a family needs at least one column")
        lengths = {c.length for c in self.columns}
        if len(lengths) != 1:
            raise ValueError(f"columns have differing lengths {sorted(lengths)}")

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def length(self) -> int:
        return self.columns[0].length

    def check_against(self, A: FormTensor) -> None:
        if self.n != A.order:
            raise ValueError(f"family has {self.n} columns, form has {A.order} slots")
        for i, (col, dom) in enumerate(zip(self.columns, A.domains)):
            if col.space != dom:
                raise ValueError(
                    f"column {i} lives in {col.space}, form slot needs {dom}"
                )

    def values(self, A: FormTensor) -> np.ndarray:
        """The value sequence (A(x_j^1, ..., x_j^n))_j."""
        self.check_against(A)
        return _batch_contract(A.coeffs, [c.vectors for c in self.columns])

    def scaled(self, factors) -> "TestFamily":
        """Scale column i row-wise by factors[i]."""
        if len(factors) != self.n:
            raise ValueError("need one factor sequence per column")
        return TestFamily(
            tuple(col.scaled(f) for col, f in zip(self.columns, factors))
        )

    def to_json(self) -> dict:
        return {"columns": [c.to_json() for c in self.columns]}

    @classmethod
    def from_json(cls, data: dict) -> "TestFamily":
        return cls(tuple(VectorSeq.from_json(c) for c in data["columns"]))


@dataclass
class RatioCertificate:
    """Witnessed summing-norm lower bound: ratio = lhs / prod(weak norms)."""

    lhs: float
    rhs_norms: tuple[NormEstimate, ...]
    family: TestFamily
    exponents: ExponentTuple
    lhs_exact: bool = True
    denominator: float = dataclass_field(init=False)
    ratio: float = dataclass_field(init=False)

    def __post_init__(self):
        self.denominator = math.prod(r.value for r in self.rhs_norms)
        # a vanishing weak norm certifies nothing
        self.ratio = self.lhs / self.denominator if self.denominator > 0 else 0.0

    @property
    def exact(self) -> bool:
        return self.lhs_exact and all(r.exact for r in self.rhs_norms)

    def to_dict(self, include_family: bool = True) -> dict:
        out = {
            "exponents": str(self.exponents),
            "lhs": self.lhs,
            "weak_norms": [r.value for r in self.rhs_norms],
            "weak_norms_exact": [r.exact for r in self.rhs_norms],
            "ratio": self.ratio,
            "exact": self.exact,
        }
        if include_family:
            out["family"] = self.family.to_json()
        return out


def summing_lower_bound(
    A: FormTensor,
    exps: ExponentTuple,
    fam: TestFamily,
) -> RatioCertificate:
    """Evaluate one family: lhs at the outer exponent over weak norms at the inner ones."""
    if exps.n != A.order:
        raise ValueError(f"exponent tuple has {exps.n} slots, form has {A.order}")
    values = fam.values(A)
    lhs = lp_norm(values, exps.p)
    rhs = tuple(weak_lp_norm(col, q) for col, q in zip(fam.columns, exps.qs))
    return RatioCertificate(lhs, rhs, fam, exps)


def _basis(dim: int, k: int) -> np.ndarray:
    e = np.zeros(dim)
    e[k] = 1.0
    return e


def _structured_families(A: FormTensor, j_max: int) -> list[TestFamily]:
    dims = A.dims
    fams = []
    # spike at the largest coefficient
    idx = np.unravel_index(int(np.argmax(np.abs(A.coeffs))), dims)
    fams.append(
        TestFamily(
            tuple(
                VectorSeq(_basis(d.dim, k)[None, :], d)
                for d, k in zip(A.domains, idx)
            )
        )
    )
    # basis diagonal
    dmin = min(dims)
    fams.append(
        TestFamily(
            tuple(
                VectorSeq(np.eye(d.dim)[:dmin], d)
                for d in A.domains
            )
        )
    )
    # full basis grid, capped
    if int(np.prod(dims)) <= 4096:
        grid = np.indices(dims).reshape(A.order, -1).T
        fams.append(
            TestFamily(
                tuple(
                    VectorSeq(np.eye(d.dim)[grid[:, i]], d)
                    for i, d in enumerate(A.domains)
                )
            )
        )
    # repeated flat vector
    for reps in (1, min(4, max(1, j_max))):
        fams.append(
            TestFamily(
                tuple(
                    VectorSeq(np.ones((reps, d.dim)), d) for d in A.domains
                )
            )
        )
    return fams


def random_form(
    rng: np.random.Generator,
    dims,
    field: ScalarField = ScalarField.REAL,
    exponents=None,
) -> FormTensor:
    """Gaussian-coefficient form; sup-norm domains unless exponents given."""
    shape = tuple(int(m) for m in dims)
    coeffs = _gaussian(rng, shape, field.is_complex)
    if exponents is None:
        exponents = [INF] * len(shape)
    domains = tuple(SpaceSpec(m, Exponent.of(s)) for m, s in zip(shape, exponents))
    return FormTensor(coeffs, domains, field)


def _random_family(rng: np.random.Generator, A: FormTensor, j_max: int) -> TestFamily:
    J = int(rng.integers(1, j_max + 1))
    return TestFamily(tuple(VectorSeq(_gaussian(rng, (J, d.dim), A.field.is_complex), d)
                            for d in A.domains))


_SEARCH_STREAMS = 8


def random_family_search(
    A: FormTensor,
    exps: ExponentTuple,
    budget: int = 512,
    seed: int = 0,
    *,
    j_max: int = 16,
) -> RatioCertificate:
    """Best ratio certificate over structured plus seeded random families.

    The random budget is split over a fixed number of streams seeded from
    the master seed (the first ``budget % streams`` streams take one trial
    more). The structured families are tried first, then each stream in
    order, and the first maximal ratio wins, so the result depends only on
    the seed and the budget.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    streams = np.random.SeedSequence(seed).spawn(_SEARCH_STREAMS)
    random_families = (
        _random_family(rng, A, j_max)
        for w, rng in enumerate(map(np.random.default_rng, streams))
        for _ in range(budget // _SEARCH_STREAMS + (w < budget % _SEARCH_STREAMS))
    )
    best = None
    for fam in chain(_structured_families(A, j_max), random_families):
        cert = summing_lower_bound(A, exps, fam)
        if best is None or cert.ratio > best.ratio:
            best = cert
    return best


# ---------------------------------------------------------------------------
# inclusion machinery


def factor_sequence(alpha, r: ExponentLike, rs, *, tol: float = 1e-12) -> list[np.ndarray]:
    """Split a scalar sequence into a pointwise product of n sequences.

    With sum_k 1/r_k = 1/r the factors are |alpha_j|^(r/r_k), the phase going
    entirely to the first factor, so that the product recovers alpha and
    ||alpha^k||_{r_k} = ||alpha||_r^(r/r_k), whence the norms multiply back
    to ||alpha||_r.
    """
    re = Exponent.of(r)
    res = [Exponent.of(x) for x in rs]
    if not res:
        raise ValueError("need at least one factor exponent")
    total = sum(x.recip for x in res)
    if total != re.recip and abs(float(total - re.recip)) > tol:
        raise ValueError(
            f"exponent identity violated: sum 1/r_k = {total} but 1/r = {re.recip}"
        )
    mag, phase = _polar(np.asarray(alpha))
    mag = mag.astype(np.float64)
    if re.recip == 0:
        shares = [Fraction(1)] + [Fraction(0)] * (len(res) - 1)
    else:
        shares = [x.recip / re.recip for x in res]
    factors = []
    for k, share in enumerate(shares):
        exp = float(share)
        f = np.ones_like(mag) if exp == 0.0 else mag ** exp
        if k == 0:
            f = f * phase
        factors.append(f)
    return factors


@dataclass
class LiftResult:
    family: TestFamily
    source: RatioCertificate
    derived: RatioCertificate
    monotone: bool


def lift_family(
    A: FormTensor,
    fam: TestFamily,
    source: ExponentTuple,
    target: ExponentTuple,
    *,
    tol: float = 1e-10,
) -> LiftResult:
    """Transport a ratio certificate from a weaker exponent tuple to a stronger one.

    Requires componentwise target <= source and a target defect no larger
    than the source defect. The value sequence is turned into a unit-norm
    scalar sequence alpha with ||(alpha_j A_j)||_q = ||(A_j)||_p, alpha is
    factored across the slots, and the scaled family certifies a ratio at
    the target tuple at least the source ratio (up to rounding).
    """
    if source.n != target.n or source.n != A.order:
        raise ValueError("exponent tuples must match the form order")
    if target.p > source.p:
        raise ValueError("target outer exponent must satisfy q <= p")
    for qt, qs_ in zip(target.qs, source.qs):
        if qt > qs_:
            raise ValueError("target inner exponents must satisfy q_i <= p_i")
    if target.defect() > source.defect():
        raise ValueError(
            "inadmissible lift: target defect exceeds source defect "
            f"({target.defect()} > {source.defect()})"
        )

    source_cert = summing_lower_bound(A, source, fam)
    mag, phase = _polar(fam.values(A))
    recip_r = target.p.recip - source.p.recip

    if not np.any(mag > 0):
        derived_cert = summing_lower_bound(A, target, fam)
        return LiftResult(fam, source_cert, derived_cert, True)

    align = np.conj(phase)

    if recip_r == 0:
        alpha = np.ones_like(mag)
    elif source.p.is_inf:
        alpha = np.zeros(len(mag), dtype=align.dtype)
        j = int(np.argmax(mag))
        alpha[j] = align[j]
    else:
        p_over_r = float(recip_r / source.p.recip)
        norm_p = lp_norm(mag, source.p)
        alpha = align * (mag / norm_p) ** p_over_r

    slot_recips = [qt.recip - qs_.recip for qt, qs_ in zip(target.qs, source.qs)]
    total = sum(slot_recips)
    if recip_r == 0 or total == 0:
        factors = [alpha] + [np.ones_like(mag)] * (A.order - 1)
    else:
        scale = recip_r / total
        split = [Exponent(rc * scale) for rc in slot_recips]
        factors = factor_sequence(alpha, Exponent(recip_r), split)

    derived_fam = fam.scaled(factors)
    derived_cert = summing_lower_bound(A, target, derived_fam)
    monotone = derived_cert.ratio >= source_cert.ratio - tol
    if not monotone and source_cert.exact and derived_cert.exact:
        raise ArithmeticError(
            "lift produced a smaller ratio with exact weak norms: "
            f"{derived_cert.ratio} < {source_cert.ratio}"
        )
    return LiftResult(derived_fam, source_cert, derived_cert, monotone)


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerificationReport:
    """Per-instance record of one inequality check."""

    check: str
    field: str
    p: str | None
    q: str | None
    lhs: float
    rhs: float | None
    ratio: float | None
    bound: float | None
    exact_norm: bool
    status: str
    witness: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "field": self.field,
            "p": self.p,
            "q": self.q,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "bound": self.bound,
            "exact_norm": self.exact_norm,
            "status": self.status,
            "witness": self.witness,
        }


def _status(lhs: float, rhs: float, exact: bool, tolerance: float) -> str:
    eps = 1e-12 * max(1.0, abs(rhs))
    if lhs <= rhs + eps:
        return "pass"
    if not exact and lhs <= rhs * (1.0 + tolerance) + eps:
        return "inconclusive"
    return "fail"


def _ratio(lhs: float, denom: float) -> float:
    if denom > 0:
        return lhs / denom
    return 0.0 if lhs == 0 else math.inf


def _require_sup_bilinear(A: FormTensor, who: str) -> None:
    if A.order != 2:
        raise ValueError(f"{who} expects a bilinear form, got order {A.order}")
    if not all(d.is_sup for d in A.domains):
        raise ValueError(f"{who} expects sup-norm domains")


_FOUR_THIRDS = Exponent(Fraction(3, 4))


def _versus_op_norm(
    check: str,
    A: FormTensor,
    lhs: float,
    const: float | None,
    p: str,
    q: str | None,
    constants: ConstantsConfig,
    *,
    factor: float = 1.0,
    **witness,
) -> VerificationReport:
    """Report lhs <= const * ||A|| * factor, the shape of every coefficient check.

    ``const=None`` asserts no bound: the report fails only if lhs or the
    ratio is not finite. ``witness`` entries follow the operator norm.
    """
    opn = op_norm(A)
    ratio = _ratio(lhs, opn.value * factor)
    if const is None:
        rhs = None
        status = "pass" if math.isfinite(lhs) and math.isfinite(ratio) else "fail"
    else:
        rhs = const * opn.value * factor
        status = _status(lhs, rhs, opn.exact, constants.tolerance)
    return VerificationReport(
        check=check,
        field=str(A.field),
        p=p,
        q=q,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        bound=const,
        exact_norm=opn.exact,
        status=status,
        witness={"op_norm": opn.value, **witness},
    )


def verify_littlewood_43(
    A: FormTensor,
    *,
    constants: ConstantsConfig | None = None,
) -> VerificationReport:
    """(sum |a_jk|^{4/3})^{3/4} <= c ||A|| with c = sqrt(2) real, K_G complex."""
    constants = constants or ConstantsConfig()
    _require_sup_bilinear(A, "verify_littlewood_43")
    lhs = lp_norm(A.coeffs.reshape(-1), _FOUR_THIRDS)
    return _versus_op_norm("littlewood_43", A, lhs, constants.littlewood(A.field),
                           "4/3", None, constants)


def verify_general_littlewood(
    A: FormTensor,
    *,
    constants: ConstantsConfig | None = None,
) -> VerificationReport:
    """sum_k (sum_j |a_jk|^2)^{1/2} <= K_G ||A|| (the p = 1, q = 2 case)."""
    constants = constants or ConstantsConfig()
    _require_sup_bilinear(A, "verify_general_littlewood")
    lhs = mixed_norm(A.coeffs, 1, 2)
    return _versus_op_norm("general_littlewood", A, lhs, constants.kg(A.field),
                           "1", "2", constants)


def verify_extended_littlewood(
    A: FormTensor,
    beta,
    p: ExponentLike,
    *,
    constants: ConstantsConfig | None = None,
    allow_real_experimental: bool = False,
) -> VerificationReport:
    """Mixed-norm bound ||beta o a||_{l_p(l_q)} <= K_G ||A|| ||beta||_{l_inf(l_2)}.

    Stated for complex scalars with 1 <= p <= 2 and 1/q = 1/2 + 1/p'. The
    real mode is experimental and asserts nothing: its reports always come
    back "inconclusive".
    """
    constants = constants or ConstantsConfig()
    _require_sup_bilinear(A, "verify_extended_littlewood")
    pe = Exponent.of(p)
    if not Fraction(1, 2) <= pe.recip <= 1:
        raise ValueError(f"p must lie in [1, 2], got {pe}")
    if not A.field.is_complex and not allow_real_experimental:
        raise ValueError(
            "the extended inequality is asserted for complex scalars; "
            "pass allow_real_experimental=True to report real instances"
        )
    qe = Exponent(Fraction(1, 2) + (1 - pe.recip))
    b = np.asarray(beta)
    lhs = mixed_norm(compose_beta(b, A.coeffs), pe, qe)
    beta_norm = mixed_norm(b, INF, 2)
    report = _versus_op_norm("extended_littlewood", A, lhs, constants.kg(A.field),
                             str(pe), str(qe), constants,
                             factor=beta_norm, beta_norm=beta_norm)
    if not A.field.is_complex:
        report.status = "inconclusive"
    return report


def verify_bh(
    A: FormTensor,
    *,
    constants: ConstantsConfig | None = None,
) -> VerificationReport:
    """Coefficient sum at exponent 2n/(n+1) against the operator norm.

    For n = 2 the classical constants are asserted; for n >= 3 only the
    existence of a constant is known, so the ratio is reported without a
    bound (the report fails only if the ratio is not finite).
    """
    constants = constants or ConstantsConfig()
    n = A.order
    if n < 2:
        raise ValueError("needs a form of order at least 2")
    if not all(d.is_sup for d in A.domains):
        raise ValueError("verify_bh expects sup-norm domains")
    t = Exponent(Fraction(n + 1, 2 * n))
    lhs = lp_norm(A.coeffs.reshape(-1), t)
    const = constants.littlewood(A.field) if n == 2 else None
    return _versus_op_norm("bohnenblust_hille", A, lhs, const, str(t), None,
                           constants, order=n)


def verify_defant_voigt(
    A: FormTensor,
    fam: TestFamily,
    *,
    constants: ConstantsConfig | None = None,
    rad_budget: int = 1 << 22,
) -> VerificationReport:
    """sum_j |A(x_j^1, ..., x_j^n)| <= ||A|| prod_i Rad_2(column_i).

    Also records the weaker classical bound with weak-l_1 norms on the right
    (the worst-case sign combination equals the weak-l_1 norm). Linear forms
    are refused: for them the Rad_2 bound is false (e_1* on J copies of e_1
    gives J on the left and sqrt(J) on the right).
    """
    constants = constants or ConstantsConfig()
    if A.order < 2:
        raise ValueError("verify_defant_voigt needs a form of order at least 2")
    fam.check_against(A)
    if (1 << fam.length) > rad_budget:
        raise ValueError("family too long for exact Rademacher averaging")
    lhs = float(np.abs(fam.values(A)).sum())
    rads = [rad_p_norm(col, 2, "exact", budget=rad_budget) for col in fam.columns]
    report = _versus_op_norm("defant_voigt", A, lhs, 1.0, "1", "2", constants,
                             factor=math.prod(rads), rad2_norms=rads)
    weak1 = [weak_lp_norm(col, 1) for col in fam.columns]
    weak_rhs = report.witness["op_norm"] * math.prod(w.value for w in weak1)
    weak_exact = report.exact_norm and all(w.exact for w in weak1)
    report.witness["weak_l1_rhs"] = weak_rhs
    report.witness["weak_l1_status"] = _status(lhs, weak_rhs, weak_exact,
                                               constants.tolerance)
    return report


def verify_almost_summing(
    A: FormTensor,
    fam: TestFamily,
    *,
    k: int | None = None,
) -> RatioCertificate:
    """Rad_2 of the value sequence over weak-l_2 norms of the inputs.

    The ratio is a certified lower bound on the almost-summing norm when the
    weak norms are exact. With ``k`` set, the form is curried after slot k,
    the family feeds the head, and the values are the tail forms measured in
    their operator norm. Without it every slot is in the head and the values
    are scalars measured by |.|.
    """
    k = A.order if k is None else curry(A, k).k  # curry checks 1 <= k < order
    if fam.n != k:
        raise ValueError(f"head family needs {k} columns, got {fam.n}")
    for i, col in enumerate(fam.columns):
        if col.space != A.domains[i]:
            raise ValueError(f"column {i} does not match head domain")
    tails = _batch_contract(A.coeffs, [c.vectors for c in fam.columns],
                            keep=range(k, A.order))
    balls = tuple(d.exponent for d in A.domains[k:])
    flags = []
    if len(balls) <= 1:
        # with no tail slot the values are scalars: |.| is every l_s norm
        sd = balls[0].dual if balls else INF

        def norm_fn(rows: np.ndarray) -> np.ndarray:
            return _axis_norms(np.abs(rows.reshape(len(rows), -1)), sd, axis=1)
    else:
        def norm_fn(rows: np.ndarray) -> np.ndarray:
            out = np.empty(rows.shape[0])
            for i, row in enumerate(rows):
                est = _ball_sup(row, balls, witness=False)
                flags.append(est.exact)
                out[i] = est.value
            return out

    rad = rademacher_average(tails, norm_fn, 2, "exact")
    rhs = tuple(weak_lp_norm(col, 2) for col in fam.columns)
    exps = ExponentTuple(Exponent.of(2), tuple(Exponent.of(2) for _ in fam.columns))
    return RatioCertificate(rad, rhs, fam, exps, lhs_exact=all(flags))


# ---------------------------------------------------------------------------
# projective tensor weak norm (dual-ball estimate)


def tensor_weak_norm_estimate(
    seq1: VectorSeq,
    seq2: VectorSeq,
    p: ExponentLike,
    *,
    budget: int = 64,
) -> tuple[float, float]:
    """Weak-l_p norm of (x_j^1 (x) x_j^2)_j in the projective tensor product.

    The dual unit ball is the set of bilinear forms B with ||B|| <= 1, so the
    target is sup_B (sum_j |B(x_j^1, x_j^2)|^p)^{1/p}. Returns a certified
    lower bound (structured and sampled B, normalized by an exact norm or a
    coefficient upper bound) and a heuristic ascent value: 150 projected
    ascent steps from each of the 8 best candidates.
    """
    if seq1.length != seq2.length:
        raise ValueError("sequences must have a common length")
    m1, m2 = seq1.dim, seq2.dim
    if m1 * m2 > budget:
        raise ValueError(f"dimension product {m1 * m2} exceeds the budget {budget}")
    pe = Exponent.of(p)
    X1, X2 = seq1.vectors, seq2.vectors
    is_complex = seq1.is_complex or seq2.is_complex
    field = ScalarField.COMPLEX if is_complex else ScalarField.REAL
    domains = (seq1.space, seq2.space)

    def seq_value(B: np.ndarray) -> float:
        v = np.einsum("ab,ja,jb->j", B, X1, X2)
        return lp_norm(v, pe)

    def certified_norm(B: np.ndarray) -> tuple[float, bool]:
        est = op_norm(FormTensor(B, domains,
                                 ScalarField.COMPLEX if np.iscomplexobj(B) else field))
        if est.exact:
            return est.value, True
        return float(np.abs(B).sum()), True  # coefficient sum dominates the norm

    rng = np.random.default_rng(0)
    candidates: list[np.ndarray] = []
    for a in range(m1):
        for b in range(m2):
            E = np.zeros((m1, m2))
            E[a, b] = 1.0
            candidates.append(E)
    if m1 * m2 <= 16:
        for row in sign_matrix(m1 * m2):
            candidates.append(row.reshape(m1, m2))
    else:
        for _ in range(256):
            candidates.append(rng.choice([-1.0, 1.0], size=(m1, m2)))
    eye = np.zeros((m1, m2))
    for i in range(min(m1, m2)):
        eye[i, i] = 1.0
    candidates.append(eye)
    for _ in range(64):
        candidates.append(_gaussian(rng, (m1, m2), is_complex))

    lower = 0.0
    scored: list[tuple[float, np.ndarray]] = []
    for B in candidates:
        nrm, _ = certified_norm(B)
        if nrm == 0:
            continue
        val = seq_value(B) / nrm
        scored.append((val, B))
        lower = max(lower, val)

    # heuristic refinement: ascent on coefficients with norm renormalization
    scored.sort(key=lambda t: -t[0])
    heuristic = lower
    pv = pe.value if not pe.is_inf else None
    for _, B0 in scored[:8]:
        B = B0.astype(np.complex128 if is_complex else np.float64).copy()
        step = 0.25
        for _ in range(150):
            est = op_norm(FormTensor(B, domains, field))
            nrm = est.value if est.value > 0 else 1.0
            B = B / nrm
            v = np.einsum("ab,ja,jb->j", B, X1, X2)
            val = lp_norm(v, pe)
            heuristic = max(heuristic, val)
            mag = np.abs(v)
            if pv is None:
                w = np.zeros_like(v)
                j = int(np.argmax(mag))
                w[j] = 1.0 if mag[j] == 0 else v[j] / mag[j]
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    w = np.where(mag > 1e-300, pv * mag ** (pv - 2.0) * v, 0.0)
            G = np.einsum("j,ja,jb->ab", w, X1.conj(), X2.conj())
            gn = float(np.abs(G).max())
            if gn == 0:
                break
            B = B + step * G / gn
        est = op_norm(FormTensor(B, domains, field))
        if est.value > 0:
            heuristic = max(heuristic, seq_value(B) / est.value)
    return lower, heuristic


# ---------------------------------------------------------------------------
# coincidence arithmetic


def _as_exponent_tuple(x, n: int | None = None) -> ExponentTuple:
    if isinstance(x, ExponentTuple):
        t = x
    else:
        p, qs = x
        t = ExponentTuple(Exponent.of(p), tuple(Exponent.of(q) for q in qs))
    if n is not None and t.n != n:
        raise ValueError(f"expected {n} inner exponents, got {t.n}")
    return t


def coincidence_region(
    rule: str,
    n: int,
    *,
    p: ExponentLike | None = None,
    q: ExponentLike | None = None,
    qs=None,
    k: int | None = None,
    r: ExponentLike | None = None,
    source=None,
    target=None,
) -> bool:
    """Pure exponent arithmetic for the admissibility rules.

    dv2:       every form is (p; q_1, ..., q_n)-summing when
               sum 1/q_i - 1/p >= n - 1 (floors: p, q_i >= 1).
    inclusion: the summing class at ``source`` embeds in the one at
               ``target`` when source <= target componentwise fails nowhere
               and the defect sum 1/q_i - 1/q does not decrease.
    cotype2:   exchange identity on k cotype-2 slots,
               sum_{i<=k} 1/q_i - 1/q = k - 1/p with p <= q, 1 <= q_i <= 2.
    even_odd:  lifted tuple of a bilinear (1; r, r) coincidence,
               (1; r, ..., r) for even n and (r; r, ..., r) for odd n >= 3.
    """
    if rule == "dv2":
        if p is None or qs is None:
            raise ValueError("dv2 needs p and qs")
        pe = Exponent.of(p)
        qes = [Exponent.of(x) for x in qs]
        if len(qes) != n:
            raise ValueError(f"expected {n} inner exponents")
        if pe.recip > 1 or any(x.recip > 1 for x in qes):
            raise ValueError("dv2 applies for exponents >= 1")
        return sum(x.recip for x in qes) - pe.recip >= n - 1

    if rule == "inclusion":
        if source is None or target is None:
            raise ValueError("inclusion needs source and target tuples")
        src = _as_exponent_tuple(source, n)
        tgt = _as_exponent_tuple(target, n)
        if src.p > tgt.p:
            return False
        if any(a > b for a, b in zip(src.qs, tgt.qs)):
            return False
        return src.defect() <= tgt.defect()

    if rule == "cotype2":
        if k is None or p is None or q is None or qs is None:
            raise ValueError("cotype2 needs k, p, q and qs")
        if not 1 <= k <= n:
            raise ValueError("k must lie in 1..n")
        pe, qe = Exponent.of(p), Exponent.of(q)
        qes = [Exponent.of(x) for x in qs]
        if len(qes) != k:
            raise ValueError(f"expected {k} inner exponents")
        if any(not Fraction(1, 2) <= x.recip <= 1 for x in qes):
            raise ValueError("cotype2 applies for 1 <= q_i <= 2")
        if pe > qe:
            return False
        return sum(x.recip for x in qes) - qe.recip == k - pe.recip

    if rule == "even_odd":
        if r is None or p is None or qs is None:
            raise ValueError("even_odd needs r, p and qs")
        re_ = Exponent.of(r)
        pe = Exponent.of(p)
        qes = [Exponent.of(x) for x in qs]
        if len(qes) != n:
            raise ValueError(f"expected {n} inner exponents")
        if not Fraction(1, 2) <= re_.recip <= 1:
            raise ValueError("even_odd applies for 1 <= r <= 2")
        if n < 2:
            raise ValueError("even_odd needs n >= 2")
        if any(x != re_ for x in qes):
            return False
        if n % 2 == 0:
            return pe.recip == 1
        return n >= 3 and pe == re_

    raise ValueError(f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# mixed-domain ratio experiment


def summing_experiment(
    domain_p: ExponentLike,
    domain_q: ExponentLike,
    *,
    m: int = 3,
    count: int = 5,
    budget: int = 200,
    seed: int = 0,
    j_max: int = 8,
    field: ScalarField = ScalarField.COMPLEX,
    target: ExponentTuple | None = None,
) -> list[dict]:
    """Empirical (p; 2, 1) ratios for bilinear forms on l_p x l_q domains.

    No bound is asserted; the records report the best witnessed ratio, the
    (heuristic) operator norm, and their quotient, deterministically per seed.
    """
    dp, dq = Exponent.of(domain_p), Exponent.of(domain_q)
    exps = target or ExponentTuple(dp, (Exponent.of(2), Exponent.of(1)))
    seeds = np.random.SeedSequence(seed).spawn(count)
    records = []
    for i in range(count):
        rng = np.random.default_rng(seeds[i])
        A = random_form(rng, (m, m), field, exponents=(dp, dq))
        cert = random_family_search(
            A, exps, budget=budget, seed=seed + 7919 * i, j_max=j_max,
        )
        opn = op_norm(A)
        records.append(
            {
                "instance": i,
                "domains": f"l_{dp}^{m} x l_{dq}^{m}",
                "exponents": str(exps),
                "best_ratio": cert.ratio,
                "weak_norms_exact": cert.exact,
                "op_norm": opn.value,
                "op_norm_exact": opn.exact,
                "normalized_ratio": _ratio(cert.ratio, opn.value),
            }
        )
    return records
