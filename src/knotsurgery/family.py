"""Family sweeps and machine-checkable unboundedness certificates.

A certificate is a strictly increasing sequence of family indices whose
basic-class lower bounds also strictly increase, ending above a stated
target.  Since every target admits one, the bounds are unbounded over the
family, which is what rules out a finite set of diffeomorphism types.  The
certificate never claims any specific pair of manifolds is distinct; only
the unboundedness is certified, exactly as much as the bounds support.

Verification recomputes every bound from the polynomial pipeline and
trusts nothing stored in the certificate.  The bounds do not depend on the
E(n) parameter, so neither a certificate nor its verification names one.
"""

from __future__ import annotations

from .knots import alexander_torus, genus_torus
from .laurent import (
    LaurentPoly,
    _dumps_indent2,
    _Frozen,
    _json_int,
    _json_loads,
    _require_int,
    _require_json_object,
)
from .surgery import LinkFamilyMember, basic_class_lower_bound

__all__ = [
    "DEFAULT_P_CAP",
    "CERTIFICATE_SCHEMA_VERSION",
    "CapExhaustedError",
    "FamilyRow",
    "FamilyReport",
    "Witness",
    "UnboundednessCertificate",
    "analyze_family",
    "certify_unbounded",
    "verify_certificate",
]

DEFAULT_P_CAP = 1000
CERTIFICATE_SCHEMA_VERSION = 1

CSV_COLUMNS = ("p", "lower_bound", "lemma63_ok", "genus", "span", "delta_gamma")


class CapExhaustedError(ValueError):
    """The scan hit the index cap before the target was exceeded.

    The lower bound is 2p - 1, so a target t is first exceeded at
    p = (t + 1) // 2 + 1; a cap below that is a usage error, not a fault of
    the pipeline.
    """


class FamilyRow(_Frozen):
    def __init__(
        self, p: int, delta_gamma: LaurentPoly, lower_bound: int, lemma63_ok: bool,
        genus: int, span: int
    ):
        self._store(
            p=p, delta_gamma=delta_gamma, lower_bound=lower_bound, lemma63_ok=lemma63_ok,
            genus=genus, span=span
        )

    def to_json_dict(self) -> dict:
        """The row's fields; delta_gamma stays a LaurentPoly."""
        return {
            "p": self.p,
            "lower_bound": self.lower_bound,
            "lemma63_ok": self.lemma63_ok,
            "genus": self.genus,
            "span": self.span,
            "delta_gamma": self.delta_gamma,
        }


class FamilyReport(_Frozen):
    def __init__(self, n: int, rows: tuple[FamilyRow, ...]):
        self._store(n=n, rows=rows)

    def to_json_dict(self) -> dict:
        """n and the rows' documents, whose polynomials stay LaurentPoly."""
        return {"n": self.n, "rows": [row.to_json_dict() for row in self.rows]}

    def to_json(self) -> str:
        return _dumps_indent2(self.to_json_dict())

    def to_csv(self) -> str:
        # no field is quoted, since none can hold a comma, quote or newline:
        # ints, true/false, and polynomials over identifier names
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            flag = "true" if row.lemma63_ok else "false"
            lines.append(
                f"{row.p},{row.lower_bound},{flag},{row.genus},{row.span},{row.delta_gamma}"
            )
        return "\n".join([*lines, ""])

    def to_text(self) -> str:
        lines = [f"family report for n = {self.n}"]
        for row in self.rows:
            flag = "ok" if row.lemma63_ok else "FAIL"
            lines.append(
                f"p={row.p} lower_bound={row.lower_bound} [{flag}] "
                f"genus={row.genus} span={row.span} delta={row.delta_gamma}"
            )
        return "\n".join([*lines, ""])


class Witness(_Frozen):
    def __init__(self, p: int, lower_bound: int):
        self._store(p=p, lower_bound=lower_bound)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "lower_bound": self.lower_bound}


class UnboundednessCertificate(_Frozen):
    """Witnesses that the basic-class lower bounds exceed a target.

    Construction does not validate the monotonicity claims; that is
    verify_certificate's job, which must be able to inspect broken
    certificates and report them false rather than refuse to hold them.
    """

    def __init__(self, target: int, witnesses: tuple[Witness, ...]):
        self._store(target=target, witnesses=witnesses)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": CERTIFICATE_SCHEMA_VERSION,
            "target": self.target,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }

    def to_json(self) -> str:
        return _dumps_indent2(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data) -> "UnboundednessCertificate":
        """Load exactly the documents that certificate.schema.json accepts."""
        _require_json_object(data, {"schema_version", "target", "witnesses"})
        version, raw = data["schema_version"], data["witnesses"]
        if isinstance(version, bool) or version != CERTIFICATE_SCHEMA_VERSION:
            raise ValueError(f"unsupported certificate schema version {version!r}")
        if not isinstance(raw, list) or not raw:
            raise ValueError("certificate witnesses must be a nonempty list")
        for w in raw:
            _require_json_object(w, {"p", "lower_bound"})
        witnesses = tuple(
            Witness(
                _json_int(w["p"], "certificate 'p'", 1),
                _json_int(w["lower_bound"], "certificate 'lower_bound'", 0),
            )
            for w in raw
        )
        target = _json_int(data["target"], "certificate 'target'", 0)
        return cls(target=target, witnesses=witnesses)

    @classmethod
    def from_json(cls, text: str) -> "UnboundednessCertificate":
        return cls.from_json_dict(_json_loads(text, ValueError, "certificate is not valid JSON"))


def analyze_family(
    n: int, p_min: int, p_max: int, p_cap: int = DEFAULT_P_CAP
) -> FamilyReport:
    """One row per family index in [p_min, p_max], sorted by p.

    The lower bound per row does not depend on n: the E(n) prefactor
    contributes no t_G terms.  n is carried through to the report so the
    emitted artifact names the manifold family it describes.
    """
    _require_int(n, "E(n) parameter", 1)
    for name, value in (("p_min", p_min), ("p_max", p_max), ("p_cap", p_cap)):
        _require_int(value, name)
    if not (1 <= p_min <= p_max <= p_cap):
        raise ValueError(
            f"need 1 <= p_min <= p_max <= {p_cap}, got p_min={p_min} p_max={p_max}"
        )
    rows = []
    for p in range(p_min, p_max + 1):
        spec = LinkFamilyMember(p).gamma
        delta = alexander_torus(spec)
        bound = delta.term_count()
        genus = genus_torus(spec)
        rows.append(
            FamilyRow(
                p=p,
                delta_gamma=delta,
                lower_bound=bound,
                lemma63_ok=bound >= p,
                genus=genus,
                # alexander_torus raises unless span(delta) = (p-1)(q-1) = 2 * genus
                span=2 * genus,
            )
        )
    return FamilyReport(n=n, rows=tuple(rows))


def certify_unbounded(
    target: int, p_cap: int = DEFAULT_P_CAP
) -> UnboundednessCertificate:
    """Greedy scan for witnesses with strictly increasing lower bounds.

    Each index whose bound beats the running maximum becomes a witness; the
    scan stops as soon as the bound exceeds the target.  Since the bound is
    at least p, the scan always finishes by p = target + 1 unless p_cap cuts
    it off first, which raises CapExhaustedError.
    """
    _require_int(target, "target", 0)
    _require_int(p_cap, "p_cap", 1)
    witnesses: list[Witness] = []
    best = None
    for p in range(1, p_cap + 1):
        bound = basic_class_lower_bound(p)
        if best is None or bound > best:
            witnesses.append(Witness(p=p, lower_bound=bound))
            best = bound
            if best > target:
                return UnboundednessCertificate(target=target, witnesses=tuple(witnesses))
    raise CapExhaustedError(
        f"no lower bound above {target} found for p <= {p_cap}"
    )


def verify_certificate(c: UnboundednessCertificate) -> bool:
    """Recompute every witness bound and re-check the certificate's claims.

    Returns False on any discrepancy instead of raising: index sequence not
    strictly increasing, bounds not strictly increasing, a recorded bound
    that does not match recomputation (or cannot be recomputed, as when
    T(p, p+1) needs exponents beyond 64 bits), or a final bound at or
    below the target.  The bounds do not depend on the E(n) parameter, so
    verification takes none.
    """
    if not c.witnesses:
        return False
    previous_p = 0
    previous_bound = None
    for w in c.witnesses:
        if not isinstance(w.p, int) or w.p <= previous_p:
            return False
        try:
            recomputed = basic_class_lower_bound(w.p)
        except (ValueError, TypeError, OverflowError):
            return False
        if w.lower_bound != recomputed:
            return False
        if previous_bound is not None and w.lower_bound <= previous_bound:
            return False
        previous_p = w.p
        previous_bound = w.lower_bound
    return previous_bound > c.target
