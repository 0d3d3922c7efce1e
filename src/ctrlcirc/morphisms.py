"""Structure-preserving maps between circuits.

A morphism carries variables, units and flows of one circuit into another so
that every structure map commutes and types are preserved. A boundary
condition keeps embeddings honest: a variable whose image gains flows from
units outside the image must sit on the source circuit's interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Collection, Iterable, Mapping

from .errors import StructureError, ValidationError
from .model import Circuit, _flowless


@dataclass(frozen=True)
class CircuitMorphism:
    """Component maps of a circuit morphism.

    The class checks nothing itself: ``validate_morphism`` checks the maps
    and builds one; builders that make a morphism by construction build it directly.
    The maps are read-only ``Mapping``s and may be shared, so never mutate
    one: a gluing's left leg is a view over its left operand's ids, each
    mapped to itself (or to the id it was merged into), not a dict.
    """

    src: Circuit
    dst: Circuit
    f_v: Mapping[str, str]
    f_u: Mapping[str, str]
    f_i: Mapping[str, str]
    f_o: Mapping[str, str]


def _check_total(name: str, mapping: Mapping[str, str], domain: AbstractSet[str], codomain: Collection[str]) -> None:
    """``mapping`` is defined exactly on ``domain`` and lands in ``codomain``.

    The codomain is only probed for membership, never copied: the maps
    checked most often have small sources and large codomains.
    """
    if mapping.keys() != domain:
        keys = set(mapping)
        missing = sorted(set(domain) - keys)
        extra = sorted(keys - set(domain))
        raise StructureError(f"{name} must be total on its domain (missing={missing}, extra={extra})")
    bad = sorted(set(mapping.values()).difference(codomain))
    if bad:
        raise StructureError(f"{name} maps into undeclared elements: {bad}")


def _neighbours(c: Circuit, vs: Collection[str]) -> dict[str, tuple[set[str], set[str]]]:
    """Each of ``vs``'s producer and consumer units, from one pass over each of ``c``'s flow maps."""
    near = {v: (set(), set()) for v in vs}
    if not near.keys() <= c.var_types.keys():
        raise KeyError(min(near.keys() - c.var_types.keys()))
    for f in c.out_flows.values():
        if f.dst in near:
            near[f.dst][0].add(f.src)
    for f in c.in_flows.values():
        if f.src in near:
            near[f.src][1].add(f.dst)
    return near


def _boundary_gains(src: Circuit, dst: Circuit, f_v: Mapping[str, str], f_u: Mapping[str, str], vs: Iterable[str]):
    """Those of ``vs`` whose image gains producers (resp. consumers) not in the image.

    Walks the flows of ``src`` and ``dst`` once each and keeps nothing:
    O(|src| + |dst|). An image outside ``dst`` raises ``KeyError``.
    """
    img = {v: f_v[v] for v in vs}
    here, there = _neighbours(src, img), _neighbours(dst, set(img.values()))
    gain_in = frozenset(v for v, w in img.items() if there[w][0] - {f_u[u] for u in here[v][0]})
    gain_out = frozenset(v for v, w in img.items() if there[w][1] - {f_u[u] for u in here[v][1]})
    return gain_in, gain_out


def boundary_sets(src: Circuit, dst: Circuit, f_v: Mapping[str, str], f_u: Mapping[str, str]):
    """Variables whose image gains producers (resp. consumers) not in the image.

    Returns the pair of source-variable sets used by the boundary condition.
    """
    return _boundary_gains(src, dst, f_v, f_u, src.var_types)


def check_morphism(
    src: Circuit,
    dst: Circuit,
    f_v: Mapping[str, str],
    f_u: Mapping[str, str],
    f_i: Mapping[str, str],
    f_o: Mapping[str, str],
) -> list[str]:
    """Every violated morphism condition, by name (empty list means valid)."""
    _check_total("f_v", f_v, src.vars, dst.var_types)
    _check_total("f_u", f_u, src.units, dst.units)
    _check_total("f_i", f_i, src.in_flows.keys(), dst.in_flows)
    _check_total("f_o", f_o, src.out_flows.keys(), dst.out_flows)

    bad: list[str] = []
    if any(dst.var_types[f_v[v]] is not src.var_types[v] for v in src.var_types):
        bad.append("type-change-forbidden")
    elif not (src.sigma <= dst.sigma):
        # types preserved pointwise but a declared type is missing downstream
        bad.append("type-change-forbidden")
    for i, fl in src.in_flows.items():
        if dst.in_flows[f_i[i]].src != f_v[fl.src]:
            bad.append("source-square-broken")
            break
    for i, fl in src.in_flows.items():
        if dst.in_flows[f_i[i]].dst != f_u[fl.dst]:
            bad.append("input-unit-square-broken")
            break
    for o, fl in src.out_flows.items():
        if dst.out_flows[f_o[o]].src != f_u[fl.src]:
            bad.append("output-unit-square-broken")
            break
    for o, fl in src.out_flows.items():
        if dst.out_flows[f_o[o]].dst != f_v[fl.dst]:
            bad.append("target-square-broken")
            break

    # Trivial sources have no flows at all, so the boundary condition is vacuous.
    if src.units or src.in_flows or src.out_flows:
        gain_in, gain_out = boundary_sets(src, dst, f_v, f_u)
        boundary = src.invars | src.outvars
        if not (gain_in | gain_out) <= boundary:
            bad.append("boundary-condition-violated")
    return bad


def validate_morphism(
    src: Circuit,
    dst: Circuit,
    f_v: Mapping[str, str],
    f_u: Mapping[str, str],
    f_i: Mapping[str, str],
    f_o: Mapping[str, str],
) -> CircuitMorphism:
    violations = check_morphism(src, dst, f_v, f_u, f_i, f_o)
    if violations:
        raise ValidationError(violations, subject="morphism")
    return CircuitMorphism(src, dst, dict(f_v), dict(f_u), dict(f_i), dict(f_o))


def identity_morphism(c: Circuit) -> CircuitMorphism:
    ident = lambda xs: {x: x for x in xs}
    return CircuitMorphism(c, c, ident(c.vars), ident(c.units), ident(c.in_flows), ident(c.out_flows))


def compose_morphisms(g: CircuitMorphism, f: CircuitMorphism) -> CircuitMorphism:
    """Componentwise composite ``g after f``."""
    if f.dst != g.src:
        raise StructureError("compose_morphisms: codomain of first argument != domain of second")
    return validate_morphism(
        f.src,
        g.dst,
        {x: g.f_v[y] for x, y in f.f_v.items()},
        {x: g.f_u[y] for x, y in f.f_u.items()},
        {x: g.f_i[y] for x, y in f.f_i.items()},
        {x: g.f_o[y] for x, y in f.f_o.items()},
    )


def is_mono(m: CircuitMorphism) -> bool:
    """True iff all component maps are injective."""
    for comp in (m.f_v, m.f_u, m.f_i, m.f_o):
        if len(set(comp.values())) != len(comp):
            return False
    return True


# ---------------------------------------------------------------------------
# adjoints: canonical embeddings of a circuit's interface


@dataclass(frozen=True)
class Adjoint:
    """A mono embedding of a trivial circuit onto exactly the invars or outvars."""

    kind: str  # "in" | "out"
    morphism: CircuitMorphism

    @property
    def domain(self) -> Circuit:
        return self.morphism.src


def _adjoint(c: Circuit, vs: frozenset[str], kind: str) -> Adjoint:
    # Domain variables reuse the codomain's interface ids, which makes "the"
    # adjoint an actual canonical object rather than one up to isomorphism.
    # An inclusion of a flowless circuit that keeps types is a mono morphism.
    dom = _flowless({v: c.var_types[v] for v in sorted(vs)})
    return Adjoint(kind, CircuitMorphism(dom, c, {v: v for v in dom.var_types}, {}, {}, {}))


def in_adjoint(c: Circuit) -> Adjoint:
    return _adjoint(c, c.invars, "in")


def out_adjoint(c: Circuit) -> Adjoint:
    return _adjoint(c, c.outvars, "out")
