import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frankl_lab import (SetFamily, complement, enumerate_union_closed, family_from_json,
                        family_to_json, frankl_witness, frequencies,
                        is_union_closed, max_frequency, random_union_closed,
                        union_closure)
from frankl_lab.families import element_planes, elements_of_mask, mask_from_elements

from conftest import (all_subfamilies, closure_reference,
                      is_union_closed_reference, to_setset)


@st.composite
def families(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12))
    return SetFamily.from_masks(n, masks)


# --- construction and validation -------------------------------------------

def test_masks_must_be_sorted_distinct_and_in_range():
    with pytest.raises(ValueError):
        SetFamily(2, (1, 1))
    with pytest.raises(ValueError):
        SetFamily(2, (2, 1))
    with pytest.raises(ValueError):
        SetFamily(2, (4,))
    with pytest.raises(ValueError):
        SetFamily(0, ())
    with pytest.raises(ValueError):
        SetFamily(17, ())
    with pytest.raises(ValueError):
        SetFamily.from_masks(3, [1, 1])
    with pytest.raises(ValueError):
        SetFamily.from_member_bits(2, 1 << 4)
    with pytest.raises(ValueError):
        SetFamily.from_member_bits(2, -1)


def test_empty_set_is_a_legal_member():
    fam = SetFamily.from_sets(1, [(), (1,)])
    assert fam.masks == (0, 1)
    assert len(fam) == 2


@given(families())
@settings(max_examples=50, deadline=None)
def test_membership_table_round_trip(fam):
    assert SetFamily.from_member_bits(fam.n, fam.member_bits) == fam


@pytest.mark.parametrize("n", range(1, 17))
def test_element_planes_match_their_definition(n):
    # plane e has bit m set iff mask m holds element e+1
    planes = element_planes(n)
    assert len(planes) == n
    for e, plane in enumerate(planes):
        table = bin(plane)[2:].zfill(1 << n)[::-1]
        assert table == "".join("1" if m >> e & 1 else "0" for m in range(1 << n))


def test_mask_element_round_trip():
    assert mask_from_elements((2, 4), 4) == 0b1010
    assert elements_of_mask(0b1010) == (2, 4)
    with pytest.raises(ValueError):
        mask_from_elements((5,), 4)


# --- is_union_closed ---------------------------------------------------------

def test_example_family_is_union_closed(example_family):
    assert is_union_closed(example_family)


def test_empty_family_is_union_closed_vacuously():
    assert is_union_closed(SetFamily.empty(3))


def test_missing_pair_union_detected():
    assert not is_union_closed(SetFamily.from_sets(2, [(1,), (2,)]))


def test_every_subfamily_of_the_cube_on_3_matches_the_oracle():
    count = 0
    for sets in all_subfamilies(3):
        fam = SetFamily.from_sets(3, sets)
        assert is_union_closed(fam) == is_union_closed_reference(sets)
        assert to_setset(union_closure(fam)) == closure_reference(sets)
        count += 1
    assert count == 256


@pytest.mark.parametrize("n", range(6, 12))
def test_closure_and_closedness_match_the_oracle_beyond_n5(n):
    # plane shifts reach 2^(n-1) bits, 1,024 at n = 11; each closure is
    # checked as it is, one member short and one mask over
    rng = random.Random(n)
    outcomes = set()
    for _ in range(6):
        seeds = SetFamily.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 6)))
        closed = union_closure(seeds)
        assert to_setset(closed) == closure_reference(to_setset(seeds))
        assert set(complement(closed).masks) == set(range(1 << n)) - set(closed.masks)
        gone = rng.choice(closed.masks)
        short = SetFamily(n, tuple(m for m in closed.masks if m != gone))
        over = SetFamily.from_masks(n, closed.masks + (rng.choice(complement(closed).masks),))
        for fam in (closed, short, over):
            closedness = is_union_closed(fam)
            assert closedness == is_union_closed_reference(to_setset(fam))
            outcomes.add(closedness)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [12, 14, 16])
def test_closedness_of_dense_tables(n):
    # a singleton is a union only of its own subsets, so the power set
    # stays closed without its singletons; without {1, 2} it misses {1} | {2}
    def power_set_minus(*gone):
        return SetFamily(n, tuple(m for m in range(1 << n) if m not in gone))

    assert is_union_closed(power_set_minus(*(1 << e for e in range(n))))
    assert not is_union_closed(power_set_minus(0b11))


# --- union_closure -----------------------------------------------------------

def test_closure_adds_missing_union():
    fam = SetFamily.from_sets(2, [(1,), (2,)])
    assert union_closure(fam).sets() == ((1,), (2,), (1, 2))


def test_closure_of_three_singletons_gives_all_nonempty_subsets():
    fam = SetFamily.from_sets(3, [(1,), (2,), (3,)])
    closed = union_closure(fam)
    assert to_setset(closed) == closure_reference([{1}, {2}, {3}])
    assert len(closed) == 7
    assert 0 not in closed.masks  # the empty set never appears from unions


@given(families())
@settings(max_examples=75, deadline=None)
def test_closure_matches_reference_and_is_idempotent_extensive(fam):
    closed = union_closure(fam)
    assert to_setset(closed) == closure_reference(to_setset(fam))
    assert is_union_closed(closed)
    assert set(fam.masks) <= set(closed.masks)
    assert union_closure(closed) == closed


@given(families(max_n=4), st.data())
@settings(max_examples=50, deadline=None)
def test_closure_is_monotone_under_inclusion(fam, data):
    extra = data.draw(st.sets(st.integers(0, (1 << fam.n) - 1), max_size=4))
    bigger = SetFamily.from_masks(fam.n, set(fam.masks) | extra)
    assert set(union_closure(fam).masks) <= set(union_closure(bigger).masks)


@given(families())
@settings(max_examples=50, deadline=None)
def test_removing_an_inclusion_minimal_member_keeps_closure(fam):
    closed = union_closure(fam)
    if not closed.masks:
        return
    minimal = next(m for m in closed.masks
                   if not any(o != m and o & m == o for o in closed.masks))
    rest = SetFamily(fam.n, tuple(x for x in closed.masks if x != minimal))
    assert is_union_closed(rest)


# --- frequencies / max_frequency --------------------------------------------

def test_power_set_frequencies():
    assert tuple(frequencies(SetFamily.power_set(3))) == (4, 4, 4)
    assert frequencies(SetFamily.power_set(16)) == (1 << 15,) * 16


def test_example_family_frequencies(example_family):
    assert tuple(frequencies(example_family)) == (3, 3, 3, 1)


def test_empty_family_frequencies_are_zero():
    assert tuple(frequencies(SetFamily.empty(4))) == (0, 0, 0, 0)


@given(families())
@example(random_union_closed(11, 7, Fraction(20, 1 << 11)))
@example(SetFamily.power_set(16))
@settings(max_examples=75, deadline=None)
def test_frequency_sum_equals_total_membership(fam):
    sets = fam.sets()
    assert sum(frequencies(fam)) == sum(len(s) for s in sets)
    assert frequencies(fam) == tuple(sum(e in s for s in sets) for e in range(1, fam.n + 1))


def test_max_frequency_of_pruned_power_set():
    fam = SetFamily.from_masks(4, [m for m in range(16) if bin(m).count("1") != 1])
    assert max_frequency(fam).count == 7  # 2^3 - 1


def test_max_frequency_conventions(example_family):
    assert max_frequency(SetFamily.from_masks(3, [0])) == (1, 0)
    assert max_frequency(example_family) == (1, 3)  # smallest index on ties


# --- complement ---------------------------------------------------------------

def test_complement_of_power_set_is_empty():
    assert complement(SetFamily.power_set(3)).masks == ()


def test_complement_of_empty_family_is_power_set():
    assert complement(SetFamily.empty(2)).masks == (0, 1, 2, 3)


def test_complement_of_pruned_power_set_is_the_singletons():
    fam = SetFamily.from_masks(3, [m for m in range(8) if bin(m).count("1") != 1])
    assert complement(fam).sets() == ((1,), (2,), (3,))


@given(families())
@settings(max_examples=75, deadline=None)
def test_complement_is_an_involution(fam):
    assert complement(complement(fam)) == fam


# --- frankl_witness ------------------------------------------------------------

def test_example_family_witness(example_family):
    assert frankl_witness(example_family) == 1


def test_family_of_just_the_empty_set_has_no_witness():
    assert frankl_witness(SetFamily.from_masks(2, [0])) is None


def test_witness_rejects_empty_family():
    with pytest.raises(ValueError):
        frankl_witness(SetFamily.empty(2))


def test_witness_threshold_is_exact_half():
    # 2 of 4 sets is exactly half and must count
    fam = SetFamily.from_sets(2, [(), (1,), (1, 2), (2,)])
    assert frankl_witness(fam) == 1


# --- JSON round trips ------------------------------------------------------------

def test_json_masks_form_round_trip(example_family):
    blob = family_to_json(example_family)
    assert blob == {"n": 4, "masks": [1, 6, 7, 15]}
    assert family_from_json(blob) == example_family
    assert family_from_json(json.dumps(blob)) == example_family


def test_json_sets_form_is_lexicographically_sorted():
    fam = SetFamily.from_masks(4, [0, 2, 3])  # {}, {2}, {1,2}
    blob = family_to_json(fam, form="sets")
    assert blob == {"n": 4, "sets": [[], [1, 2], [2]]}
    assert family_from_json(blob) == fam


def test_json_rejects_ambiguous_or_missing_encoding():
    with pytest.raises(ValueError):
        family_from_json({"n": 2})
    with pytest.raises(ValueError):
        family_from_json({"n": 2, "masks": [0], "sets": [[]]})
    with pytest.raises(ValueError):
        family_from_json({"n": 2, "masks": [0, 0]})


@pytest.mark.parametrize("blob", [
    {"n": True, "masks": [0]}, {"n": 2, "masks": [True]}, {"n": 2, "sets": [[True]]},
    {"n": 2.0, "masks": []}, {"n": 2, "sets": [[1.0]]}, {"n": 2, "masks": None},
    {"n": 2, "sets": [1]},
])
def test_json_rejects_non_integer_values(blob):
    # JSON booleans are not numbers here, and no malformed value gets as far as a TypeError
    with pytest.raises(ValueError):
        family_from_json(blob)


def _enumerate(n):
    return list(enumerate_union_closed(n))


@pytest.mark.parametrize("call,args,refusal", [
    (random_union_closed, (2.5, 1, "1/2"), "n and seed must be ints, got 2.5 and 1"),
    (random_union_closed, (2, 1.0, "1/2"), "n and seed must be ints, got 2 and 1.0"),
    (_enumerate, (2.0,), "n must be an int, got 2.0"),
    (_enumerate, (-1,), "needs 1 <= n <= 4, got -1"),  # once "negative shift count"
])
def test_family_constructors_refuse_bad_arguments(call, args, refusal):
    # each once raised a TypeError or a ValueError from a bit shift
    with pytest.raises(ValueError, match=refusal):
        call(*args)
