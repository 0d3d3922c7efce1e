"""Claims that the builders guarantee by construction, checked here once.

``to_control``, ``relabel``, ``is_isomorphic``, ``mk_primitive``, the
interface adjoints and the operators build their results without
re-running the library's checks on them:

* every validated netlist imports to a valid, sound circuit whose flows
  and interface are exactly those its edges prescribe;
* ``relabel`` returns a valid circuit and a renaming that equals
  ``validate_morphism`` of its maps and is a bijection;
* every isomorphism witness validates as a morphism and is mono;
* ``mk_trivial`` refuses exactly the tag lists the model check refuses,
  with the same violations, and ``mk_primitive`` exactly the count tuples;
* an adjoint's domain is the flowless circuit the model check builds of
  the interface, and its inclusion is the morphism ``validate_morphism``
  builds.

The subjects are ``random_dag`` netlists, the benchmark's deep netlists,
spine netlists and synthesised family members for k = 0..8 on the one side,
and every fixture, random circuits and operator composites on the other.
The checker test makes each checker raise and runs the first three
builders, so none of them calls one; then it makes every checker but
``is_sound`` raise and builds a 40-inverter chain, a 40-inverter row, a
branch, a coproduct, a head iteration and the ``p53`` and ``flipflop``
fixtures.
The gluing kernel's own claims are checked in ``test_glue_local_checks.py``.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest

import ctrlcirc
from ctrlcirc import (
    BOOL,
    CTRL,
    Flow,
    IterationWiring,
    ValidationError,
    branch,
    circuit_violations,
    coproduct,
    in_adjoint,
    is_isomorphic,
    is_mono,
    is_sound,
    iterate_head,
    mk_primitive,
    mk_trivial,
    out_adjoint,
    parallel,
    relabel,
    sequence,
    validate_circuit,
    validate_morphism,
)
from ctrlcirc.model import revalidate
from ctrlcirc.fixtures import REGISTRY, build_buffer, build_eater, build_not, fixture
from ctrlcirc.nanddag import NodeKind, bool_var, ctrl_var, random_dag, synth_family, to_control
from ctrlcirc.serialize import loads_dag
from conftest import random_circuit
from test_differential import spine_netlist
from test_glue_differential import inverter_chain
from test_nanddag_differential import deep_netlist_doc


# -- subjects ------------------------------------------------------------------


def _netlists():
    rnd = random.Random(20261019)
    out = [(f"random{i}", random_dag(rnd, rnd.randint(2, 8), rnd.randint(1, 30))) for i in range(60)]
    gen = random.Random(3)
    out += [(f"deep{g}x{n}", loads_dag(deep_netlist_doc(g, n, gen))) for g, n in ((2, 2), (50, 3), (200, 2), (401, 5))]
    out += [(f"spine{g}", spine_netlist(g, n, random.Random(g))) for g, n in ((1, 2), (9, 3), (101, 6))]
    return out


def _members():
    rnd = random.Random(8)
    tables = {k: [rnd.randint(0, 1) for _ in range(2**k)] for k in range(9)}
    out = [(f"member{k}", m) for k, m in sorted(synth_family(tables).members.items())]
    for k, bit in ((0, 0), (0, 1), (3, 0), (3, 1)):
        out.append((f"constant{k}-{bit}", synth_family({k: [bit] * 2**k}).members[k]))
    return out


NETLISTS = _netlists()
MEMBERS = _members()


def buffer_loop():
    """The head iteration of three buffers and an eater (the flipflop fixture is a tail iteration)."""
    w = IterationWiring(
        entry=build_buffer(),
        body=build_buffer(),
        end=build_buffer(),
        exit=build_eater(1),
        head=(("c_out", "c_out", "c_in", "v1"), ("b_out", "b_out", "b_in", "v2")),
        tail=(("c_out", "c_in"), ("b_out", "b_in")),
    )
    return iterate_head(w).circuit


def _circuits():
    out = [(f"fixture:{name}", fixture(name)) for name in sorted(REGISTRY)]
    rnd = random.Random(0xB1)
    out += [(f"random{i}", random_circuit(rnd, extra_ops=4)) for i in range(30)]
    f = fixture
    wiring = [("c_in", "c_in"), ("b_in", "b_in")], [("c_out", "c_out"), ("b_out", "b_out")]
    out += [
        ("chain40", inverter_chain(40)),
        ("row", parallel(parallel(f("and"), f("or")), f("not"))),
        ("coproduct", coproduct(f("nand2"), f("nand2")).circuit),
        ("branch", branch(f("buffer"), f("buffer"), *wiring).circuit),
        ("buffer-loop", buffer_loop()),
        ("netlist", to_control(NETLISTS[0][1]).circuit),
        ("member4", MEMBERS[4][1].circuit),
    ]
    return out


CIRCUITS = _circuits()


def shuffled_copy(c, rnd: random.Random):
    """``c`` under a random renaming of every id, its dicts filled in a random order."""
    def fresh(ids, prefix):
        names = [f"{prefix}{k}" for k in range(len(ids))]
        rnd.shuffle(names)
        return dict(zip(ids, names))

    fv, fu = fresh(sorted(c.var_types), "x"), fresh(sorted(c.units), "n")
    fi, fo = fresh(sorted(c.in_flows), "a"), fresh(sorted(c.out_flows), "b")

    def shuffled(items):
        items = list(items)
        rnd.shuffle(items)
        return dict(items)

    return validate_circuit(
        shuffled((fv[v], t) for v, t in c.var_types.items()),
        [fu[u] for u in rnd.sample(sorted(c.units), len(c.units))],
        shuffled((fi[i], Flow(fv[fl.src], fu[fl.dst])) for i, fl in c.in_flows.items()),
        shuffled((fo[o], Flow(fu[fl.src], fv[fl.dst])) for o, fl in c.out_flows.items()),
        c.sigma,
    )


# -- to_control --------------------------------------------------------------


def assert_valid_and_sound(c):
    assert circuit_violations(c) == []
    assert revalidate(c) is c
    assert is_sound(c)


def assert_import_follows_the_edges(d, res):
    """The circuit holds exactly the variables, units, flows and interface the netlist's edges prescribe."""
    c, kinds = res.circuit, d.nodes
    gate = NodeKind.GATE
    assert c.var_types == {v: t for e in d.edges for v, t in ((ctrl_var(e), CTRL), (bool_var(e), BOOL))}
    assert c.units == frozenset(d.gates())
    in_flows = {(v, b) for a, b in d.edges if kinds[b] is gate for v in (ctrl_var((a, b)), bool_var((a, b)))}
    out_flows = {(a, v) for a, b in d.edges if kinds[a] is gate for v in (ctrl_var((a, b)), bool_var((a, b)))}
    assert sorted((f.src, f.dst) for f in c.in_flows.values()) == sorted(in_flows)
    assert sorted((f.src, f.dst) for f in c.out_flows.values()) == sorted(out_flows)
    from_inputs = {v for a, b in d.edges if kinds[a] is NodeKind.INPUT for v in (ctrl_var((a, b)), bool_var((a, b)))}
    into_outputs = {v for a, b in d.edges if kinds[b] is NodeKind.OUTPUT for v in (ctrl_var((a, b)), bool_var((a, b)))}
    assert c.invars == from_inputs and c.outvars == into_outputs


@pytest.mark.parametrize("d", [d for _, d in NETLISTS], ids=[name for name, _ in NETLISTS])
def test_every_validated_netlist_imports_to_a_valid_sound_circuit(d):
    res = to_control(d)
    assert_valid_and_sound(res.circuit)
    assert_import_follows_the_edges(d, res)


@pytest.mark.parametrize("m", [m for _, m in MEMBERS], ids=[name for name, _ in MEMBERS])
def test_every_synthesised_member_is_a_valid_sound_circuit(m):
    assert_valid_and_sound(m.circuit)
    if m.dag is not None:
        res = to_control(m.dag)
        assert res.circuit == m.circuit
        assert_import_follows_the_edges(m.dag, res)


# -- relabel -----------------------------------------------------------------


def name_choices(c, rnd: random.Random):
    picked = rnd.sample(c.sorted_vars(), rnd.randint(1, len(c.vars)))
    pool = [f"w{k}" for k in range(1, 4)] + [f"y{k}" for k in range(len(picked))]
    return [None, dict(zip(picked, rnd.sample(pool, len(picked))))]


@pytest.mark.parametrize("c", [c for _, c in CIRCUITS], ids=[name for name, _ in CIRCUITS])
def test_relabel_returns_a_valid_circuit_and_a_bijective_renaming(c):
    rnd = random.Random(len(c.vars))
    sizes = lambda x: (len(x.var_types), len(x.units), len(x.in_flows), len(x.out_flows))
    for var_names in name_choices(c, rnd):
        new, ren = relabel(c, var_names)
        assert circuit_violations(new) == []
        assert ren.src is c and ren.dst is new
        assert ren == validate_morphism(c, new, ren.f_v, ren.f_u, ren.f_i, ren.f_o)
        assert is_mono(ren)
        assert sizes(new) == sizes(c)
        assert all(ren.f_v[v] == n for v, n in (var_names or {}).items())


# -- is_isomorphic -------------------------------------------------------------


def assert_witness(a, b):
    w = is_isomorphic(a, b)
    assert w is not None
    assert w.src is a and w.dst is b
    assert w == validate_morphism(a, b, w.f_v, w.f_u, w.f_i, w.f_o)
    assert is_mono(w)


@pytest.mark.parametrize("c", [c for _, c in CIRCUITS], ids=[name for name, _ in CIRCUITS])
def test_every_isomorphism_witness_validates_and_is_mono(c):
    rnd = random.Random(len(c.units))
    for other in (c, relabel(c)[0], shuffled_copy(c, rnd), shuffled_copy(c, rnd)):
        assert_witness(c, other)
        assert_witness(other, c)


def test_witnesses_on_the_benchmark_subjects_validate():
    chain = inverter_chain(200)
    assert_witness(chain, relabel(chain)[0])
    assert_witness(chain, shuffled_copy(chain, random.Random(200)))


# -- no re-checks --------------------------------------------------------------


CHECKERS = (
    ctrlcirc.model.circuit_violations,
    ctrlcirc.model.is_sound,
    ctrlcirc.model.revalidate,
    ctrlcirc.morphisms.validate_morphism,
    ctrlcirc.morphisms.is_mono,
)


def refuse_everywhere(monkeypatch, checkers) -> set[str]:
    """Make every ``ctrlcirc`` module's name for each checker raise; returns the names patched."""
    def refuse(*args, **kwargs):
        raise AssertionError("a builder re-ran a check")

    patched = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ctrlcirc" or mod_name.startswith("ctrlcirc."):
            for name, obj in list(vars(mod).items()):
                if any(obj is checker for checker in checkers):
                    monkeypatch.setattr(mod, name, refuse)
                    patched.add(name)
    return patched


def test_builders_call_none_of_the_checkers(monkeypatch):
    netlists = [d for _, d in NETLISTS[::8]] + [m.dag for _, m in MEMBERS if m.dag is not None][:3]
    circuits = [c for _, c in CIRCUITS]
    copies = [shuffled_copy(c, random.Random(i)) for i, c in enumerate(circuits)]
    assert refuse_everywhere(monkeypatch, CHECKERS) == {checker.__name__ for checker in CHECKERS}

    for d in netlists:
        to_control(d)
    for c, copy in zip(circuits, copies):
        relabel(c)
        assert is_isomorphic(c, copy) is not None

    # Gluings test only the two control-interface rules, on an interface
    # derived from their operands', and never run the whole model check; the
    # operators hand checked variable pairs to the kernel and build no apex
    # monos, and ``mk_primitive`` checks nothing when both control counts are
    # positive. ``is_sound`` stays: the iterations check their operands with it.
    monkeypatch.undo()
    glue_checkers = [circuit_violations, revalidate, validate_morphism, is_mono]
    assert refuse_everywhere(monkeypatch, glue_checkers) == {checker.__name__ for checker in glue_checkers}
    inv, buf = build_not(), build_buffer()
    chain, c_out, b_out = inv, "v3", "v4"
    for _ in range(39):
        res = sequence(chain, inv, [(c_out, "v1"), (b_out, "v2")])
        chain, c_out, b_out = res.circuit, res.right_leg.f_v["v3"], res.right_leg.f_v["v4"]
    assert len(chain.units) == 40
    row = inv
    for _ in range(39):
        row = parallel(row, inv)
    assert len(row.units) == 40
    wiring = [("c_in", "c_in"), ("b_in", "b_in")], [("c_out", "c_out"), ("b_out", "b_out")]
    assert len(branch(buf, buf, *wiring).circuit.units) == 2 * len(buf.units)
    assert len(coproduct(row, row).circuit.units) == 80
    assert len(buffer_loop().units) == 3 * len(buf.units) + 1
    for name in ("p53", "flipflop"):
        assert fixture(name).units


@pytest.mark.parametrize("counts", list(itertools.product(range(3), repeat=4)), ids=str)
def test_a_primitive_is_refused_as_the_model_check_refuses_it(counts):
    """``mk_primitive`` checks only a zero control count; it builds what ``validate_circuit`` builds of its parts."""
    ci, bi, co, bo = counts
    tags = [CTRL] * ci + [BOOL] * bi + [CTRL] * co + [BOOL] * bo
    n_in = ci + bi
    parts = (
        {f"v{k + 1}": t for k, t in enumerate(tags)},
        ["u1"],
        {f"i{k + 1}": (f"v{k + 1}", "u1") for k in range(n_in)},
        {f"o{k + 1}": ("u1", f"v{n_in + k + 1}") for k in range(len(tags) - n_in)},
    )
    try:
        want = validate_circuit(*parts)
    except ValidationError as e:
        with pytest.raises(ValidationError) as got:
            mk_primitive(*counts)
        assert (got.value.violations, str(got.value)) == (e.violations, str(e))
    else:
        assert mk_primitive(*counts) == want


@pytest.mark.parametrize("name, c", CIRCUITS, ids=[name for name, _ in CIRCUITS])
def test_adjoint_domains_are_the_model_checked_flowless_circuits(name, c):
    for adj, vs in ((in_adjoint(c), c.invars), (out_adjoint(c), c.outvars)):
        dom = validate_circuit({v: c.var_types[v] for v in sorted(vs)})
        assert adj.morphism == validate_morphism(dom, c, {v: v for v in dom.var_types}, {}, {}, {})
        assert list(adj.domain.var_types) == list(dom.var_types)


@pytest.mark.parametrize("n", range(4))
def test_a_trivial_circuit_is_refused_as_the_model_check_refuses_it(n):
    """``mk_trivial`` tests only for a control tag; its refusals list what ``validate_circuit``'s do."""
    for tags in itertools.product((CTRL, BOOL, "ctrl", "bool"), repeat=n):
        try:
            want = validate_circuit({f"v{i + 1}": t for i, t in enumerate(tags)})
        except ValidationError as e:
            with pytest.raises(ValidationError) as got:
                mk_trivial(tags)
            assert (got.value.violations, str(got.value)) == (e.violations, str(e))
        else:
            assert mk_trivial(tags) == want
