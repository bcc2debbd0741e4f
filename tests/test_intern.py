"""The intern table: each group table, ring table, module table, hom
kernel, End(M), decider verdict and ring check is built once per structure
and caps in a process, and every object of that structure shares it; names are
added only where output is written.  A build is counted as a miss of its
`interned` function, the `misses` fixture, which runs its body."""

import collections
import copy
import dataclasses
import pathlib
import pickle

import pytest

from pirick import homs, modules, properties, rings
from pirick.caps import StructureKey, caps_from_env
from pirick.cli import main
from pirick.errors import (AxiomViolation, BadIdentity, NotDistributive,
                           PirickError, SizeCapExceeded)
from pirick.families import zmod
from pirick.groups import FinAbGroup
from pirick.homs import end_ring, end_table, hom_set, idempotent_maps
from pirick.modules import free_module, module_make, ring_as_module
from pirick.properties import left_singular_ideal
from pirick.rings import (jacobson_radical, ring_idempotents, ring_make,
                          ring_units)

CAPS = caps_from_env()
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
# the interned builds counted below, by the name they are counted under
BUILDS = {rings._checked_mul: "ring", modules._checked_act: "module",
          modules.module_generators: "generators",
          modules.all_submodules: "lattice",
          properties.Facts.inner: "submodule",
          homs._kernel_basis: "kernel_basis", end_ring: "end_ring",
          end_table: "end_table"}


def _builds(misses) -> collections.Counter:
    """Ring and module validations, generator searches, lattice
    enumerations, submodules built as modules by `Facts.inner`, echelon
    bases of hom kernels, End(M) builds and End(M) ring tables among the
    misses,
    wherever pirick asked for them; a build refused at a cap is one each
    time it is asked."""
    names = {fn.__wrapped__: name for fn, name in BUILDS.items()}
    return collections.Counter(names[full[0]] for full in misses
                               if full[0] in names)


def test_a_second_object_of_a_known_structure_builds_nothing(misses,
                                                            fresh_intern):
    first = ring_as_module(zmod(4, CAPS), CAPS, name="first")
    first_kernel = homs._kernel(first, first)
    first_end = end_ring(first, CAPS)
    first_table = end_table(first_end)
    misses.clear()
    ring = ring_make(FinAbGroup((4,)), {(0, 0): 1}, 1, CAPS, "other_z4")
    second = ring_as_module(ring, CAPS, name="second")
    assert (ring.name, second.name, second.ring) == ("other_z4", "second",
                                                     ring)
    assert ring.mul_np is first.ring.mul_np
    assert second.act_np is first.act_np
    assert homs._kernel(second, first) is first_kernel
    assert end_ring(second, CAPS) is first_end
    assert end_table(end_ring(second, CAPS)) is first_table
    assert FinAbGroup((4,)).add_table() is first.add_group.add_table()
    assert misses == []


def test_the_codomain_is_matched_by_structure(misses, fresh_intern):
    """Two modules of one structure are one argument: hom_set and
    hom_count of (first, second) are served the kernel, its basis and the
    row shares that (first, first) built."""
    first = ring_as_module(zmod(4, CAPS), CAPS, name="first")
    first_homs = hom_set(first, first, CAPS)
    basis = homs._kernel_basis(first, first)
    count = homs.hom_count(first, first, CAPS)
    misses.clear()
    second = ring_as_module(zmod(4, CAPS), CAPS, name="second")
    assert second is not first and second.name != first.name
    assert second == first and hash(second) == hash(first)
    assert homs._kernel_basis(first, second) is basis
    assert hom_set(first, second, CAPS).tobytes() == first_homs.tobytes()
    assert homs.hom_count(first, second, CAPS) == count == len(first_homs)
    assert misses == []
    other = ring_as_module(zmod(2, CAPS), CAPS, name="first")
    assert other != first and first != first.ring


def test_copied_and_unpickled_groups_share_the_interned_tables(misses):
    ring = zmod(4, CAPS)
    table = ring.add_group.add_table()
    assert copy.copy(ring.add_group).add_table() is table
    back = pickle.loads(pickle.dumps(ring))
    assert back.add_group.add_table() is table
    assert (back.name, back.key) == (ring.name, ring.key)
    # a copied or unpickled structure key is the process's key again, so
    # the copies of a module find its hom kernel and End(M) in the cache
    module = ring_as_module(ring, CAPS)
    kernel, end = homs._kernel(module, module), end_ring(module, CAPS)
    misses.clear()
    for other in (copy.copy(module), copy.deepcopy(module),
                  pickle.loads(pickle.dumps(module)),
                  ring_as_module(pickle.loads(pickle.dumps(ring)), CAPS)):
        assert other.key is module.key and other.ring.key is ring.key
        assert homs._kernel(other, other) is kernel
        assert end_ring(other, CAPS) is end
    assert misses == []


def test_a_key_hashes_as_its_parts():
    """No key carries an id: its hash is that of its parts, whatever keys
    were made before it."""
    ring = zmod(6, CAPS)
    module = ring_as_module(ring, CAPS)
    for key in (ring.key, module.key):
        assert hash(key) == hash(key.parts)
        assert StructureKey(*key.parts) is key
    assert module.key.parts[0] is ring.key


def test_ranges_are_checked_on_every_call_once_the_structure_is_known(
        fresh_intern):
    group = FinAbGroup((4,))
    ring = ring_make(group, {(0, 0): 1}, 1, CAPS)
    module_make(ring, group, {(0, 0): 1}, CAPS)
    # a zero value is dropped from the key, but not from the range check
    with pytest.raises(PirickError, match=r"structure constant key \(1,0\) "
                                          "out of range"):
        ring_make(group, {(0, 0): 1, (1, 0): 0}, 1, CAPS)
    with pytest.raises(PirickError, match=r"action constant key \(0,3\) "
                                          "out of range"):
        module_make(ring, group, {(0, 0): 1, (0, 3): 0}, CAPS)
    assert sum(full[0] in (rings._checked_mul.__wrapped__,
                           modules._checked_act.__wrapped__)
               for full in fresh_intern) == 2


def test_a_constant_that_is_not_biadditive_fails_where_it_stands():
    """Biadditivity is checked once per structure, with the table, yet the
    first constant that fails any check names the error, as in one pass
    over the constants."""
    group = FinAbGroup((2, 4))
    ring = zmod(2, CAPS)
    bad, out = {(0, 1): 1}, {(2, 0): 0}           # ord(1) = 4 on Z_2 x Z_4
    with pytest.raises(NotDistributive):
        ring_make(group, {**bad, **out}, 5, CAPS)
    with pytest.raises(NotDistributive):
        ring_make(group, bad, 9, CAPS)
    with pytest.raises(PirickError, match="constant key \\(2,0\\) out of"):
        ring_make(group, {**out, **bad}, 5, CAPS)
    bad, out = {(0, 0): 1}, {(0, 2): 0}
    with pytest.raises(AxiomViolation, match="biadditivity"):
        module_make(ring, group, {**bad, **out}, CAPS)
    with pytest.raises(PirickError, match="action constant key \\(0,2\\)"):
        module_make(ring, group, {**out, **bad}, CAPS)


def test_shared_arrays_are_read_only(fresh_intern):
    module = free_module(zmod(2, CAPS), 2, CAPS)
    end = end_ring(module, CAPS)
    ring = end_table(end)
    for array in (module.add_group.add_table(), module.add_group
                  .coords_matrix(), module.ring.mul_np, module.act_np,
                  hom_set(module, module, CAPS), end.tables, end.gens,
                  idempotent_maps(end), ring.mul_np, ring_idempotents(ring),
                  ring_units(ring), jacobson_radical(ring),
                  left_singular_ideal(ring, CAPS)):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


def test_interned_witness_arrays_are_read_only(fresh_intern):
    """Every caller of one structure shares an interned Verdict, its
    witness arrays included."""
    module = free_module(zmod(2, CAPS), 2, CAPS)
    for v in (rings.ring_check(zmod(4, CAPS), "pi_regular"),
              properties.Facts(module, CAPS).verdict("dual_pi_rickart")):
        for array in (v.exponent, v.witness):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


def test_verify_corpus_builds_each_structure_once(monkeypatch, fresh_intern,
                                                  misses, capsys):
    deciders, refused = collections.Counter(), collections.Counter()
    for prop, decide in properties.DECIDERS.items():
        def counted(facts, prop=prop, decide=decide):
            deciders[prop, facts.key] += 1
            try:
                return decide(facts)
            except SizeCapExceeded:
                refused[prop, facts.key] += 1
                raise
        monkeypatch.setitem(properties.DECIDERS, prop, counted)
    checks = collections.Counter()
    for name, check in rings.RING_CHECKS.items():
        def counted(ring, name=name, check=check):
            checks[name, ring.key] += 1
            return check(ring)
        monkeypatch.setitem(rings.RING_CHECKS, name, counted)
    map_checks = collections.Counter()
    for name, check in homs.MAP_CHECKS.items():
        def counted(end, name=name, check=check):
            map_checks[name, end.key] += 1
            return check(end)
        monkeypatch.setitem(homs.MAP_CHECKS, name, counted)
    assert main(["verify", str(CORPUS)]) == 0
    assert "total=1157" in capsys.readouterr().out
    counts = _builds(misses)
    # Lattices are built only for the lattice deciders and entries, 20 of
    # them, and the one module over the lattice cap is refused at its gate
    # each of the 12 times it is asked, since no cap failure is stored
    # (once, and 21 calls in all, when one was).  The left singular ideal of End(M) is read off End(M)'s own
    # table: it builds no ring, no module and no lattice.  End(M) is built
    # as maps 89 times, and its ring table only for the 21 corpus modules, whose
    # registry entries read "end." ring checks.  32 ring structures are
    # validated: 17 from the corpus files, 8 corners, one 2x2 matrix ring
    # and 6 End(M) tables that no other ring shares (41 when all 89 End(M)
    # had a table).  Morphic, C2 and D2 read End(M)'s (Im, Ker) pairs and
    # build no module: 137 submodules are built as modules, 51 of them
    # only for the quasi-projective decider's Hom(M, N) (86 while it read
    # End(M)'s maps; 111, with 99 generator searches against 89, when those
    # three searched isomorphisms between built modules).  The 89 kernel
    # bases are End(M)'s, each cut once to span Hom(M, M), which is not
    # interned: End(M) keeps its maps.  The quasi-projective and
    # self-cogenerator deciders, P2.17 and End(M)'s construct gate, which
    # runs before Hom(M, M) is built, read only the order of a hom set,
    # which `hom_count` reads off the kernel of 282 pairs without building
    # a map (269 while the quasi-projective decider read End(M)'s maps,
    # 188 while the self-cogenerator decider read the kernels of Hom(M,
    # M)'s maps, 115 before the gate read it; 238 hom sets were built when
    # the first two and the self-cogenerator decider built them all).  Of
    # the 111 generator searches, 12 are of quotients M/N that only
    # Hom(M/N, M) takes as its domain and 10 of the submodules N, new
    # structures, whose inclusions `check_map` validates (89 while the
    # self-cogenerator decider read Hom(M, M), 91 when it built Hom(M/N, M)
    # for each quotient); those 10 are also the 10 new module validations.
    assert counts == {"ring": 32, "module": 112, "generators": 111,
                      "lattice": 32, "submodule": 137, "kernel_basis": 89,
                      "end_ring": 89, "end_table": 21}
    assert len(misses.of(homs._kernel)) == 282
    # One decider body per (structure, caps, property) that returns a
    # verdict, 348 of them; the 4 that stop at a cap run each time they are
    # asked, 11 times in all (once each when the failure was stored).  One
    # ring check per (ring
    # structure, name): 167, that is 32 pi_regular, 27 gen_left_pp and 23
    # strongly_pi_regular, plus 20 each of reduced, domain and local, 17
    # commutative and 8 nil_radical, which the registry's "ring." and
    # "end." predicates and L2.5.1 and L3.10.3 read.
    assert (sum(deciders.values()), len(deciders)) == (359, 352)
    assert (sum(refused.values()), len(refused)) == (11, 4)
    assert all(deciders[key] == 1 for key in deciders if key not in refused)
    assert (sum(checks.values()), len(checks)) == (167, 167)
    # One map check per (End(M) structure, name): the four names of
    # homs.MAP_CHECKS on each of the 21 corpus modules' End(M).
    assert (sum(map_checks.values()), len(map_checks)) == (84, 84)
    assert collections.Counter(name for name, _ in map_checks) == {
        name: 21 for name in homs.MAP_CHECKS}


def test_verify_corpus_solves_each_hom_kernel_once(misses, fresh_intern,
                                                   capsys):
    """The kernel of a pair of structures depends on no cap, so each is
    solved once, whether hom_count, hom_set or both read it: 282 solves
    for 282 pairs (269 for 269 before the quasi-projective decider read
    the orders of Hom(M, N) and Hom(M, M/N); 188 for 188 before the
    self-cogenerator decider read Hom(M/N, M)'s order; 277 for 188 when
    hom_count and hom_set each solved their own).  Each kernel that a hom
    set is spanned from is cut down to its echelon basis once."""
    assert main(["verify", str(CORPUS)]) == 0
    capsys.readouterr()
    pairs = collections.Counter((domain_key, codomain.key) for
                                _, domain_key, (codomain,)
                                in misses.of(homs._kernel))
    assert (sum(pairs.values()), len(pairs)) == (282, 282)
    bases = collections.Counter((domain_key, codomain.key) for
                                _, domain_key, (codomain,)
                                in misses.of(homs._kernel_basis))
    assert (sum(bases.values()), len(bases)) == (89, 89)


def test_other_lattice_or_hom_caps_rebuild_the_structure(misses,
                                                         fresh_intern):
    wide = dataclasses.replace(CAPS, hom=CAPS.hom + 1)
    narrow = dataclasses.replace(CAPS, lattice=2)
    for caps in (CAPS, CAPS, wide, narrow):
        module = ring_as_module(zmod(6, caps), caps)
        end_ring(module, caps)
    # CAPS once, then wide and narrow once more each.  The ring and module
    # tables are checked exactly whatever the caps, and the generating set
    # does not depend on caps: each is found once.
    # So is the kernel basis of Hom(M, M), since no cap bears on it.
    assert _builds(misses) == {"ring": 1, "module": 1, "generators": 1,
                               "kernel_basis": 1, "end_ring": 3}


def test_a_cap_failure_is_refused_again_without_rebuilding(misses,
                                                           fresh_intern):
    """No cap failure is stored: each call over the cap, for every object
    of the structure, is refused again by the hom gate, with the same
    message, before the kernel of the pair is solved."""
    tight = dataclasses.replace(CAPS, hom=2)
    first = free_module(zmod(2, CAPS), 2, CAPS, name="first")
    with pytest.raises(SizeCapExceeded) as err:
        hom_set(first, first, tight)
    assert str(err.value) == "hom-set enumeration: size 16 exceeds cap 2"
    misses.clear()
    second = free_module(zmod(2, CAPS), 2, CAPS, name="second")
    for module in (first, second):
        for build in (lambda: hom_set(module, module, tight),
                      lambda: end_ring(module, tight)):
            with pytest.raises(SizeCapExceeded) as again:
                build()
            assert str(again.value) == str(err.value)
    assert _builds(misses) == {"end_ring": 2}
    assert misses.of(homs._kernel) == []
    assert len(hom_set(second, second, CAPS)) == 16
    assert len(misses.of(homs._kernel)) == 1


def test_validation_errors_are_not_stored(misses, fresh_intern):
    """An identity out of range fails before the table is built; a
    constant that is not biadditive fails inside `_checked_mul`, on every
    call; neither stores anything."""
    for _ in range(2):
        with pytest.raises(PirickError, match="identity index"):
            ring_make(FinAbGroup((2,)), {(0, 0): 1}, 5, CAPS)
    assert misses.of(rings._checked_mul) == []
    for _ in range(2):
        with pytest.raises(NotDistributive):
            ring_make(FinAbGroup((2, 4)), {(0, 0): 1}, 0, CAPS)
    assert len(misses.of(rings._checked_mul)) == 2
    assert not any(full[0] is rings._checked_mul.__wrapped__
                   for full in fresh_intern)


def test_a_table_that_breaks_a_law_is_not_stored(misses, fresh_intern):
    """Z_2 with a zero product has no identity: its table is built and
    refused on every call, and nothing is stored for it."""
    for _ in range(2):
        with pytest.raises(BadIdentity):
            ring_make(FinAbGroup((2,)), {}, 1, CAPS)
    assert len(misses.of(rings._checked_mul)) == 2
    assert not any(full[0] is rings._checked_mul.__wrapped__
                   for full in fresh_intern)


@pytest.mark.parametrize("one", [-1, 2, 5])
def test_ring_make_range_checks_the_identity(one):
    with pytest.raises(PirickError, match=f"identity index {one} out of "
                                          "range for order 2"):
        ring_make(FinAbGroup((2,)), {(0, 0): 1}, one, CAPS)


def test_modules_of_one_structure_keep_their_names(tmp_path, capsys):
    (tmp_path / "z4.ring").write_text((CORPUS / "z4.ring").read_text())
    for name in ("first", "second"):
        (tmp_path / f"{name}.mod").write_text(
            f"module {name} over z4\nadd 4\nact 1 1 1\nend\n")
    outputs = []
    for name in ("first", "second"):
        path = str(tmp_path / f"{name}.mod")
        assert main(["module", "check", path, "--format", "machine"]) == 0
        assert main(["module", "endring", path, "--out",
                     str(tmp_path / f"end_{name}.ring")]) == 0
        outputs.append(capsys.readouterr().out)
        ring_file = (tmp_path / f"end_{name}.ring").read_text()
        assert ring_file.startswith(f"# endring-of: {name}\nring end_{name}\n")
    first, second = (out.replace(name, "NAME") for out, name in
                     zip(outputs, ("first", "second")))
    assert outputs[0].startswith("instance=first;")
    assert outputs[1].startswith("instance=second;")
    assert first == second
    maps = [(tmp_path / f"end_{name}.ring.maps").read_text()
            for name in ("first", "second")]
    assert maps[0] == maps[1]


def test_lattice_and_submodule_tables_are_shared_by_structure(
        misses, fresh_intern):
    tight = dataclasses.replace(CAPS, lattice=2)
    subs = []
    for name in ("first", "second"):
        module = ring_as_module(zmod(4, CAPS), CAPS, name=name)
        with pytest.raises(SizeCapExceeded, match="submodule lattice"):
            modules.all_submodules(module, tight)
        lattice = modules.all_submodules(module, CAPS)
        assert len(lattice) == 3
        inner, _ = modules.submodule_module(module, lattice[1], CAPS)
        assert inner.name == f"{name}|2"
        subs.append((lattice, inner))
    assert subs[0][0] is subs[1][0]
    assert subs[0][1].act_np is subs[1][1].act_np
    # once under CAPS, and the cap failure once for each object: nothing
    # is stored for it, and the lattice gate refuses it before any work;
    # the regular module and its submodule are each validated once
    counts = _builds(misses)
    assert counts["lattice"] == 3
    assert [full[1] for full in misses.of(modules._checked_act)] == \
        [module.key, inner.key]


@pytest.mark.parametrize("order", [("z2", "m2z2_c1"), ("m2z2_c1", "z2")])
def test_a_cap_message_names_the_callers_ring(tmp_path, monkeypatch, capsys,
                                              fresh_intern, order):
    """z2 and m2z2_c1 are one structure; under construct=8 their 2x2 matrix
    rings are over the cap, and each message names its own ring, in
    whichever order the two are verified in one process."""
    monkeypatch.setenv("PIRICK_CAPS", "construct=8")
    both = tmp_path / "both"
    both.mkdir()
    for name in order:
        (tmp_path / name).mkdir()
        for folder in (tmp_path / name, both):
            (folder / f"{name}.ring").write_text(
                (CORPUS / f"{name}.ring").read_text())
    for folder in (*order, "both"):
        assert main(["verify", str(tmp_path / folder)]) == 0
    lines = capsys.readouterr().out.splitlines()
    skips = [line.split("\t") for line in lines
             if line.split("\t")[1:2] in (["L3.10.2"], ["L3.10.3"],
                                          ["P2.23"])]
    expected = [[name, tid, "skipped", f"cap:matrix ring over {name}"]
                for name in (*order, "m2z2_c1", "z2")
                for tid in ("P2.23", "L3.10.2", "L3.10.3")]
    assert skips == expected
