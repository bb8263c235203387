"""Reflection functors: kernels, cokernels, dimension vectors, round trips."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from mckay import bgp, linalg, verify
from mckay.bgp import (QuiverRep, assembled_rank, dim_vector_reflect,
                       find_isomorphism, random_representation,
                       reflect_minus, reflect_plus, round_trip_isomorphism)
from mckay.chartab import dixon_character_table
from mckay.errors import PreconditionError
from mckay.groups import build_group, parse_descriptor
from mckay.heights import Arrow, OrientedQuiver, enumerate_heights
from mckay.mckaygraph import mckay_graph

DOUBLE = OrientedQuiver(2, (Arrow(1, 0, 0), Arrow(1, 0, 1)))
DOUBLE_N = [[0, 2], [2, 0]]

# sha256 of criterion 8's draws and admitted samples at verify.BGP_SEED
DRAWS_SHA = "b186c3ef010a033ae44825869e7df617d27db782a88d0b80eaa2098e1573dd00"
ADMITTED_SHA = "d0b7e5880bca8efdd89751f0f830e06d0f9c4eb97e5244ec37935532c3a82c89"
# sha256 of criterion 8's reflected maps, back reflections and intertwiners
REFLECTIONS_SHA = "8e9fbf675a1acc159753d1020612f9dfab8c218b539c330a17e4667aedc425f0"


def graph_for(label):
    g = build_group(parse_descriptor(label))
    return mckay_graph(g, dixon_character_table(g))


def make_rep(quiver, dims, matrices):
    """A representation with one integer matrix per arrow."""
    maps = tuple(tuple(tuple(Fraction(x) for x in row) for row in mat)
                 for mat in matrices)
    return QuiverRep(quiver, tuple(dims), maps)


def _dual(rep):
    """The dual representation: every arrow reversed, keeping its edge index,
    and every matrix transposed.  The oracle for S- = D S+ D."""
    arrows = rep.quiver.arrows
    quiver = OrientedQuiver(rep.quiver.size,
                            tuple(Arrow(a.tgt, a.src, a.edge) for a in arrows))
    maps = tuple(tuple(zip(*mat)) or ((),) * rep.dims[a.src]
                 for a, mat in zip(arrows, rep.maps))
    return QuiverRep(quiver, rep.dims, maps)


def direct_sum(a, b):
    """Block-diagonal sum of two representations of one quiver."""
    assert a.quiver == b.quiver
    maps = []
    for arrow, ma, mb in zip(a.quiver.arrows, a.maps, b.maps):
        pad_a = (Fraction(0),) * a.dims[arrow.src]
        pad_b = (Fraction(0),) * b.dims[arrow.src]
        maps.append(tuple(row + pad_b for row in ma) + tuple(pad_a + row for row in mb))
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    return QuiverRep(a.quiver, dims, tuple(maps))


def test_kernel_example_with_invertible_assembled_map():
    rep = make_rep(DOUBLE, (2, 1), [[[1], [0]], [[0], [1]]])
    reflected = reflect_plus(rep, 0)
    assert reflected.dims == (0, 1)
    assert dim_vector_reflect((2, 1), 0, DOUBLE_N) == (0, 1)


def test_simple_at_sink_reflects_to_zero():
    rep = make_rep(DOUBLE, (1, 0), [[[]], [[]]])
    assert reflect_plus(rep, 0).dims == (0, 0)


def test_one_dimensional_kernel_example():
    rep = make_rep(DOUBLE, (1, 1), [[[1]], [[3]]])
    reflected = reflect_plus(rep, 0)
    assert reflected.dims == (1, 1)
    # The reversed arrows carry the components of the kernel inclusion, so
    # composing with the original assembled map must give zero.
    a, b = reflected.maps[0][0][0], reflected.maps[1][0][0]
    assert (a, b) != (0, 0)
    assert rep.maps[0][0][0] * a + rep.maps[1][0][0] * b == 0


def test_simple_at_source_reflects_to_zero():
    quiver = OrientedQuiver(2, (Arrow(0, 1, 0), Arrow(0, 1, 1)))
    rep = make_rep(quiver, (1, 0), [[], []])
    assert reflect_minus(rep, 0).dims == (0, 0)


def test_reflect_requires_correct_vertex_type():
    rep = make_rep(DOUBLE, (1, 1), [[[1]], [[0]]])
    with pytest.raises(PreconditionError):
        reflect_plus(rep, 1)
    with pytest.raises(PreconditionError):
        reflect_minus(rep, 0)


def test_dim_vector_reflection_involution_and_delta():
    rng = random.Random(2)
    graph = graph_for("bd:2")
    n = [list(row) for row in graph.n]
    for _ in range(25):
        d = tuple(rng.randint(0, 5) for _ in range(graph.size))
        for v in range(graph.size):
            assert dim_vector_reflect(dim_vector_reflect(d, v, n), v, n) == d
    delta = graph.delta
    for v in range(graph.size):
        assert dim_vector_reflect(delta, v, n) == delta


@pytest.mark.parametrize("label", ["cyclic:4", "bd:2"])
def test_reflected_dims_follow_simple_reflections(label):
    graph = graph_for(label)
    n = [list(row) for row in graph.n]
    rng = random.Random(23)
    checked = 0
    for h in enumerate_heights(graph, 2)[:4]:
        quiver = h.quiver()
        for _ in range(25):
            rep = random_representation(quiver, rng)
            for v in quiver.sinks():
                if assembled_rank(rep, v) == rep.dims[v]:
                    assert reflect_plus(rep, v).dims == \
                        dim_vector_reflect(rep.dims, v, n)
                    checked += 1
            for v in quiver.sources():
                if assembled_rank(rep, v) == rep.dims[v]:
                    assert reflect_minus(rep, v).dims == \
                        dim_vector_reflect(rep.dims, v, n)
                    checked += 1
    assert checked > 50


def test_round_trip_isomorphism_at_sinks():
    graph = graph_for("cyclic:4")
    rng = random.Random(31)
    done = 0
    for h in enumerate_heights(graph, 2)[:3]:
        quiver = h.quiver()
        while done < 12:
            rep = random_representation(quiver, rng)
            sink = quiver.sinks()[0]
            if assembled_rank(rep, sink) != rep.dims[sink]:
                continue
            result = round_trip_isomorphism(rep, sink)
            assert result is not None
            back, phi = result
            assert back.dims == rep.dims
            done += 1
        done = 0


def _intertwiner_row_by_row(rep, back, vertex):
    """phi with phi . back_map = rep_map on the arrows into the vertex, one
    linalg.solve_many per row of phi; None when a row has no solution or phi
    is singular."""
    d = rep.dims[vertex]
    arrows = [(i, a) for i, a in enumerate(rep.quiver.arrows) if a.tgt == vertex]
    coeff = [[back.maps[i][m][c] for m in range(d)]
             for i, a in arrows for c in range(rep.dims[a.src])]
    phi = []
    for r in range(d):
        sols = linalg.solve_many(coeff, [[rep.maps[i][r][c] for i, a in arrows
                                          for c in range(rep.dims[a.src])]])
        if sols is None:
            return None
        phi.append(sols[0])
    return phi if linalg.inverse(phi) is not None else None


@pytest.mark.parametrize("label", ["cyclic:4", "bd:2"])
def test_round_trip_intertwiner_solves_each_row(label):
    graph = graph_for(label)
    rng = random.Random(41)
    found = missing = 0
    for h in enumerate_heights(graph, 2)[:4]:
        quiver = h.quiver()
        for _ in range(10):
            rep = random_representation(quiver, rng, low=-1, high=1)
            for sink in quiver.sinks():
                result = round_trip_isomorphism(rep, sink)
                back = reflect_minus(reflect_plus(rep, sink), sink)
                if back.dims != rep.dims or not rep.dims[sink]:
                    assert result == (None if back.dims != rep.dims else (back, []))
                    continue
                phi = _intertwiner_row_by_row(rep, back, sink)
                assert result == (None if phi is None else (back, phi))
                found += phi is not None
                missing += phi is None
    assert found > 20 and missing == 0


def test_round_trip_tests_invertibility_by_rank(monkeypatch):
    rep = make_rep(DOUBLE, (2, 1), [[[1], [0]], [[1], [1]]])
    expected = round_trip_isomorphism(rep, 0)
    assert expected is not None and expected[1]

    def refuse(*args):
        raise AssertionError("the round trip built an inverse")

    monkeypatch.setattr(linalg, "inverse", refuse)
    assert round_trip_isomorphism(rep, 0) == expected


def test_round_trip_general_intertwiner_search():
    rep = make_rep(DOUBLE, (2, 1), [[[1], [0]], [[1], [1]]])
    back = reflect_minus(reflect_plus(rep, 0), 0)
    iso = find_isomorphism(rep, back)
    assert iso is not None


def _doubled_first_block(rep, vertex):
    """reflect_minus with the first block at the vertex doubled."""
    out = reflect_minus(rep, vertex)
    idx = next(i for i, a in enumerate(out.quiver.arrows) if vertex in (a.src, a.tgt))
    maps = list(out.maps)
    maps[idx] = tuple(tuple(2 * x for x in row) for row in maps[idx])
    return QuiverRep(out.quiver, out.dims, tuple(maps))


def test_round_trip_refuses_a_scaled_cokernel_block(monkeypatch):
    """A back reflection whose first cokernel block is doubled has no
    intertwiner that is the identity off the vertex, at a sink with two or
    four arrows into it, when the reflected space is not zero (a zero one
    leaves the doubled map an isomorphism)."""
    quiver = next(q for q in (h.quiver() for h in enumerate_heights(graph_for("bd:2"), 2))
                  if 4 in q.sinks())  # vertex 4 of D4~ is the centre
    rng = random.Random(12)
    samples = [(make_rep(DOUBLE, (1, 2), [[[1, 0]], [[0, 1]]]), 0),
               (make_rep(DOUBLE, (2, 2), [[[1, 0], [0, 1]], [[1, 1], [0, 2]]]), 0)]
    while len(samples) < 12:
        rep = random_representation(quiver, rng)
        if assembled_rank(rep, 4) == rep.dims[4] and reflect_plus(rep, 4).dims[4]:
            samples.append((rep, 4))
    reflected = [reflect_plus(rep, vertex) for rep, vertex in samples]
    for (rep, vertex), out in zip(samples, reflected):
        assert bgp.round_trip_from(rep, out, vertex) is not None
    monkeypatch.setattr(bgp, "reflect_minus", _doubled_first_block)
    for (rep, vertex), out in zip(samples, reflected):
        assert bgp.round_trip_from(rep, out, vertex) is None


def test_intertwiner_search_tests_invertibility_by_rank(monkeypatch):
    rep = make_rep(DOUBLE, (2, 1), [[[1], [0]], [[1], [1]]])
    back = reflect_minus(reflect_plus(rep, 0), 0)
    expected = find_isomorphism(rep, back)
    assert expected is not None

    def refuse(*args):
        raise AssertionError("the intertwiner search built an inverse")

    monkeypatch.setattr(linalg, "inverse", refuse)
    assert find_isomorphism(rep, back) == expected


def _off_vertex_change(rep, vertex):
    """reflect_plus with one entry changed on the first arrow away from the
    vertex that has one."""
    out = reflect_plus(rep, vertex)
    idx = next((i for i, a in enumerate(out.quiver.arrows)
                if vertex not in (a.src, a.tgt) and out.maps[i] and out.maps[i][0]), None)
    if idx is None:
        return out
    maps = list(out.maps)
    first, *rest = maps[idx]
    maps[idx] = ((first[0] + 1,) + first[1:], *rest)
    return QuiverRep(out.quiver, out.dims, tuple(maps))


def test_round_trip_checks_the_identity_away_from_the_vertex(monkeypatch):
    """The round-trip intertwiner is the identity off the vertex, so a
    reflection that changes a matrix there has none."""
    rng = random.Random(8)
    quiver = next(q for q in (h.quiver() for h in enumerate_heights(graph_for("bd:2"), 2))
                  if 0 in q.sinks())  # vertex 0 of D4~ is a leaf
    rep = random_representation(quiver, rng)
    while assembled_rank(rep, 0) != rep.dims[0]:
        rep = random_representation(quiver, rng)
    assert round_trip_isomorphism(rep, 0) is not None
    monkeypatch.setattr(bgp, "reflect_plus", _off_vertex_change)
    assert round_trip_isomorphism(rep, 0) is None
    errors = _bgp_witness_errors(monkeypatch, "reflect_plus", _off_vertex_change)
    assert set(errors) == {"no invertible intertwiner"}


def _fraction_trials(a, b, seed=7):
    """find_isomorphism with each trial combined in Fractions: the same
    unknowns in the same order, the same kernel basis and the same draws."""
    if a.quiver != b.quiver or a.dims != b.dims:
        return None
    size = a.quiver.size
    offsets = list(accumulate((a.dims[v] * b.dims[v] for v in range(size)), initial=0))
    total = offsets.pop()
    if total == 0:
        return [[] for _ in range(size)]
    equations = []
    for idx, arrow in enumerate(a.quiver.arrows):
        s, t = arrow.src, arrow.tgt
        for r in range(a.dims[t]):
            for c in range(b.dims[s]):
                row = [Fraction(0)] * total
                for m in range(b.dims[t]):
                    row[offsets[t] + r * b.dims[t] + m] += b.maps[idx][m][c]
                for m in range(a.dims[s]):
                    row[offsets[s] + m * b.dims[s] + c] -= a.maps[idx][r][m]
                equations.append(row)
    basis = linalg.nullspace(equations) if equations else \
        [[Fraction(int(i == j)) for i in range(total)] for j in range(total)]
    if not basis:
        return None
    rng = random.Random(seed)
    for trial in range(bgp.ISO_ATTEMPTS):
        coeffs = [Fraction(1 if trial == 0 else rng.randint(-3, 3)) for _ in basis]
        vec = [sum((c * v[i] for c, v in zip(coeffs, basis)), Fraction(0))
               for i in range(total)]
        blocks = [[vec[offsets[v] + r * b.dims[v]:offsets[v] + (r + 1) * b.dims[v]]
                   for r in range(a.dims[v])] for v in range(size)]
        if all(linalg.rank(blocks[v]) == a.dims[v] for v in range(size)):
            return blocks
    return None


def test_intertwiner_search_matches_fraction_trials():
    """On round trips at sources, on a sum of two copies (where the first
    trial is often singular), on pairs of equal dimensions that are not
    isomorphic (every trial runs) and on representations with Fraction
    entries, the search returns what the Fraction combination of its trials
    returns."""
    rng = random.Random(1515)
    found = refused = 0
    for label in ("cyclic:2", "cyclic:4", "bd:2"):
        for quiver in list(dict.fromkeys(h.quiver() for h in
                                         enumerate_heights(graph_for(label), 2)))[:3]:
            vertex = quiver.sources()[0]
            rep = random_representation(quiver, rng, max_dim=3)
            back = reflect_plus(reflect_minus(rep, vertex), vertex)
            cut = QuiverRep(quiver, rep.dims, tuple(
                tuple(tuple(0 * x for x in row) for row in mat) if a.src == vertex else mat
                for a, mat in zip(quiver.arrows, rep.maps)))
            scaled = _fraction_rep(quiver, rng)
            pairs = ((rep, back), (back, rep), (direct_sum(rep, rep),) * 2,
                     (rep, cut), (scaled, scaled))
            for a, b in pairs:
                seed = rng.randint(1, 99)
                got = find_isomorphism(a, b, seed=seed)
                assert got == _fraction_trials(a, b, seed), (label, a, b)
                found += got is not None
                refused += got is None
    assert found > 20 and refused > 5


def test_reflection_distributes_over_direct_sums():
    graph = graph_for("bd:2")
    h = enumerate_heights(graph, 1)[0]
    quiver = h.quiver()
    rng = random.Random(4)
    a = random_representation(quiver, rng)
    b = random_representation(quiver, rng)
    v = quiver.sinks()[0]
    lhs = reflect_plus(direct_sum(a, b), v)
    rhs = direct_sum(reflect_plus(a, v), reflect_plus(b, v))
    assert lhs.dims == rhs.dims
    assert find_isomorphism(lhs, rhs) is not None


def test_quiver_rep_json_round_trip():
    rep = make_rep(DOUBLE, (2, 1), [[[1], [0]], [[0], [1]]])
    blob = rep.to_json()
    again = QuiverRep.from_json(blob)
    assert again.dims == rep.dims
    assert again.maps == rep.maps
    assert again.quiver.arrows == rep.quiver.arrows


def _window2_orientations():
    """Every window-2 orientation of cyclic:2, cyclic:4, bd:2 and 2T."""
    for label in ("cyclic:2", "cyclic:4", "bd:2", "2T"):
        yield from dict.fromkeys(h.quiver() for h in enumerate_heights(graph_for(label), 2))


def _fraction_rep(quiver, rng):
    """A seeded representation with dims 0..4 and entries p/q, |p| <= 2, q in {1, 3}."""
    dims = [rng.randint(0, 4) for _ in range(quiver.size)]
    return make_rep(quiver, dims, [
        [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 3)))
          for _ in range(dims[a.src])] for _ in range(dims[a.tgt])]
        for a in quiver.arrows])


def test_source_rank_is_the_sink_rank_of_the_dual():
    """At a source the stacked outgoing matrices have the rank of the
    assembled map into the same vertex, a sink, of the dual representation."""
    rng = random.Random(2024)
    checked = 0
    for quiver in _window2_orientations():
        for vertex in quiver.sources():
            for _ in range(25):
                rep = _fraction_rep(quiver, rng)
                assert assembled_rank(rep, vertex) == assembled_rank(_dual(rep), vertex)
                checked += 1
    assert checked > 500


def test_reflect_minus_is_the_dual_of_reflect_plus_on_the_dual():
    """S- = D S+ D at every source of every window-2 orientation, with zero
    dimensions and Fraction entries among the samples."""
    rng = random.Random(1973)
    checked = zero_at_vertex = 0
    for quiver in _window2_orientations():
        for vertex in quiver.sources():
            for _ in range(15):
                rep = _fraction_rep(quiver, rng)
                assert reflect_minus(rep, vertex) == \
                    _dual(reflect_plus(_dual(rep), vertex))
                checked += 1
                zero_at_vertex += rep.dims[vertex] == 0
    assert checked > 300 and zero_at_vertex > 30


def _randint_draw(quiver, rng, max_dim, low, high):
    """The reference draw: every value from rng.randint, the dimensions first,
    then each arrow's matrix row by row."""
    dims = tuple(rng.randint(1, max_dim) for _ in range(quiver.size))
    maps = tuple(tuple(tuple(rng.randint(low, high) for _ in range(dims[a.src]))
                       for _ in range(dims[a.tgt])) for a in quiver.arrows)
    return dims, maps


@pytest.mark.parametrize("max_dim", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("low, high", [(-2, 2), (-1, 1), (0, 0), (0, 3), (-3, 4)])
def test_draws_match_randint(max_dim, low, high):
    """random_representation gives what rng.randint gives, value for value,
    and leaves the generator in the same state, on every window-2
    orientation of bd:2.  A range of one value (max_dim 1, low == high) and
    ranges of 2, 4 and 8 values pin the bit-length rejection rule."""
    for i, quiver in enumerate(dict.fromkeys(
            h.quiver() for h in enumerate_heights(graph_for("bd:2"), 2))):
        rng, ref = random.Random(100 * max_dim + i), random.Random(100 * max_dim + i)
        for _ in range(4):
            rep = random_representation(quiver, rng, max_dim=max_dim, low=low, high=high)
            assert (rep.dims, rep.maps) == _randint_draw(quiver, ref, max_dim, low, high)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("kwargs", [{"max_dim": 0}, {"max_dim": -2},
                                    {"low": 1, "high": 0}, {"low": 3, "high": -3}])
def test_random_representation_refuses_an_empty_range(kwargs):
    """No dimension or no entry to draw is a PreconditionError, raised before
    the generator moves."""
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(PreconditionError):
        random_representation(DOUBLE, rng, **kwargs)
    assert rng.getstate() == state


def test_trusted_constructor_builds_what_the_dataclass_builds():
    """The draws and reflections built by bgp._make set every field of
    QuiverRep and pass its shape check when rebuilt through it."""
    names = {f.name for f in dataclasses.fields(QuiverRep)}
    rng = random.Random(8)
    built = 0
    for quiver in dict.fromkeys(h.quiver() for h in enumerate_heights(graph_for("bd:2"), 2)):
        for _ in range(3):
            rep = random_representation(quiver, rng)
            for out in [rep] + [reflect_plus(rep, v) for v in quiver.sinks()] \
                    + [reflect_minus(rep, v) for v in quiver.sources()]:
                assert set(vars(out)) == names
                assert QuiverRep(out.quiver, out.dims, out.maps) == out
                built += 1
    assert built > 100


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_criterion_8_draws_and_admitted_samples_are_pinned(monkeypatch):
    """Criterion 8 at BGP_SEED draws the same 3,326 representations and
    admits the same 2,200 (dims, vertex) samples: dim_vector_reflect is
    called once per admitted sample."""
    draws, admitted = [], []
    draw, reflect_dims = bgp.random_representation, bgp.dim_vector_reflect

    def recording_draw(quiver, rng):
        rep = draw(quiver, rng)
        draws.append([rep.dims, rep.maps])
        return rep

    def recording_reflect(dims, vertex, n_matrix):
        admitted.append([dims, vertex])
        return reflect_dims(dims, vertex, n_matrix)

    monkeypatch.setattr(bgp, "random_representation", recording_draw)
    monkeypatch.setattr(bgp, "dim_vector_reflect", recording_reflect)
    assert verify.check_bgp()["pass"]
    assert (len(draws), len(admitted)) == (3326, 2200)
    assert _sha256(draws) == DRAWS_SHA
    assert _sha256(admitted) == ADMITTED_SHA


def _q_maps(maps) -> list:
    """Matrices with every entry written as str(Fraction(x)), the same text
    for an int and for a Fraction of the same value."""
    return [[[str(Fraction(x)) for x in row] for row in mat] for mat in maps]


def test_criterion_8_reflections_are_pinned(monkeypatch):
    """Every admitted sample of criterion 8 at BGP_SEED reflects to the same
    dimensions and maps, and every admitted sink sample reflects back to the
    same maps with the same intertwiner phi."""
    records, last = [], []
    reflect_dims, round_trip = bgp.dim_vector_reflect, bgp.round_trip_from

    def keeping(reflect):
        def kept(rep, vertex):
            last[:] = [reflect(rep, vertex)]
            return last[0]
        return kept

    def recording_reflect(dims, vertex, n_matrix):
        records.append([vertex, last[0].dims, _q_maps(last[0].maps)])
        return reflect_dims(dims, vertex, n_matrix)

    def recording_round_trip(rep, reflected, vertex):
        result = round_trip(rep, reflected, vertex)
        back, phi = result
        records.append([_q_maps(back.maps), _q_maps([phi])])
        return result

    for name in ("reflect_plus", "reflect_minus"):
        monkeypatch.setattr(bgp, name, keeping(getattr(bgp, name)))
    monkeypatch.setattr(bgp, "dim_vector_reflect", recording_reflect)
    monkeypatch.setattr(bgp, "round_trip_from", recording_round_trip)
    assert verify.check_bgp()["pass"]
    round_trips = sum(len(r) == 2 for r in records)
    assert (len(records) - round_trips, round_trips) == (2200, 1100)
    assert _sha256(records) == REFLECTIONS_SHA


def test_check_bgp_builds_few_fractions(monkeypatch):
    """On warm contexts criterion 8 builds at most 7,000 Fractions (27,960
    when every kernel and solution entry was one): an integral entry stays an
    int."""
    for label in ("cyclic:4", "bd:2"):
        verify.context(label)
    built = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    record = verify.check_bgp()
    monkeypatch.undo()
    assert record["pass"]
    assert 0 < built[0] <= 7000


def _bgp_witness_errors(monkeypatch, name, mutant) -> list:
    monkeypatch.setattr(bgp, name, mutant)
    record = verify.check_bgp()
    assert not record["pass"]
    return [w.get("error") for w in record["witness"]]


def test_criterion_8_catches_a_doubled_block_at_a_source(monkeypatch):
    """A reflect_minus that doubles the first block at the vertex keeps every
    dimension, so only the round trip can see it."""
    errors = _bgp_witness_errors(monkeypatch, "reflect_minus", _doubled_first_block)
    assert set(errors) == {"no invertible intertwiner"}


def test_criterion_8_catches_a_kernel_one_too_large(monkeypatch):
    """A reflect_plus whose new space is the kernel plus a zero direction.
    Every sink sample then fails, so ten samples per orientation show it
    (each refusal draws the full 60 candidates)."""
    monkeypatch.setattr(verify, "BGP_SAMPLES", 10)
    def inflated(rep, vertex):
        out = reflect_plus(rep, vertex)
        dims = list(out.dims)
        dims[vertex] += 1
        maps = tuple(tuple(row + (Fraction(0),) for row in mat) if a.src == vertex else mat
                     for a, mat in zip(out.quiver.arrows, out.maps))
        return QuiverRep(out.quiver, tuple(dims), maps)

    assert _bgp_witness_errors(monkeypatch, "reflect_plus", inflated)


_GOLDEN_REFLECT = Path(__file__).parent / "golden" / "reflect.json"


def _golden_reflect_records() -> list[dict]:
    """reflect_plus at every sink and reflect_minus at every source of every
    window-2 orientation of cyclic:2, cyclic:4, bd:2 and 2T, with the
    assembled rank there, on seeded representations with dims 0..4 and
    entries -2..2 (the seed fixes the matrices; the record keeps the dims)."""
    rng = random.Random(1973)
    records = []
    for label in ("cyclic:2", "cyclic:4", "bd:2", "2T"):
        heights = enumerate_heights(graph_for(label), 2)
        for quiver in dict.fromkeys(h.quiver() for h in heights):
            at = ([(v, reflect_plus) for v in quiver.sinks()]
                  + [(v, reflect_minus) for v in quiver.sources()])
            for vertex, reflect in at:
                for _ in range(2):
                    dims = [rng.randint(0, 4) for _ in range(quiver.size)]
                    rep = make_rep(quiver, dims, [
                        [[rng.randint(-2, 2) for _ in range(dims[a.src])]
                         for _ in range(dims[a.tgt])] for a in quiver.arrows])
                    records.append({"group": label, "vertex": vertex, "dims": dims,
                                    "rank": assembled_rank(rep, vertex),
                                    "reflected": reflect(rep, vertex).to_json()})
    return records


def test_reflections_match_golden_record():
    assert _golden_reflect_records() == json.loads(_GOLDEN_REFLECT.read_text())


if __name__ == "__main__":
    lines = [json.dumps(r, sort_keys=True) for r in _golden_reflect_records()]
    _GOLDEN_REFLECT.write_text("[\n" + ",\n".join(lines) + "\n]\n")
