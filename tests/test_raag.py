"""Word parsing, normal forms, and the independent piling/BFS oracle."""

import textwrap

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from childproc import run_python
from cubemorse import raag
from cubemorse.raag import (
    DefiningGraph,
    GroupElement,
    Letter,
    MalformedExponent,
    MixedGraphs,
    UnknownGenerator,
    Word,
    WordError,
    ZeroExponent,
    _fold,
    _strip_left,
    _strip_right,
    distance,
    normal_form,
    parse_word,
    quotient,
)
from oracles import (
    NotInBall,
    _pile_key,
    bfs_oracle_distance,
    random_graphs,
    strip_left_by_scan,
)

letters_st = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=12
)


def elem(graph, letters):
    x = GroupElement.identity(graph)
    for g, s in letters:
        x = x.append_run(g, s)
    return x


class TestDefiningGraph:
    def test_round_trip(self, z3z):
        assert z3z.generators == ("a", "b", "c", "d")
        assert z3z.adjacent(0, 1) and z3z.adjacent(0, 2) and z3z.adjacent(1, 2)
        assert not z3z.adjacent(0, 3)
        assert z3z.link(3) == frozenset()

    def test_rejects_duplicate_generator(self):
        with pytest.raises(WordError):
            DefiningGraph.from_data({"generators": ["a", "a"]})

    def test_rejects_self_loop(self):
        with pytest.raises(WordError):
            DefiningGraph.from_data({"generators": ["a"], "edges": [["a", "a"]]})

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(UnknownGenerator):
            DefiningGraph.from_data({"generators": ["a"], "edges": [["a", "z"]]})

    def test_rejects_bad_name(self):
        with pytest.raises(WordError):
            DefiningGraph.from_data({"generators": ["A"]})


class TestParsing:
    def test_literal_expansion(self, z3z):
        assert list(parse_word("a^3 d", z3z)) == [Letter(0, 1)] * 3 + [Letter(3, 1)]

    def test_inverse_letter(self, z3z):
        assert list(parse_word("a b^-1", z3z)) == [Letter(0, 1), Letter(1, -1)]

    def test_empty_is_identity(self, z3z):
        assert len(parse_word("", z3z)) == 0

    def test_no_reduction(self, z3z):
        w = parse_word("a a^-1", z3z)
        assert len(w) == 2 and w.text() == "a a^-1"

    def test_unknown_generator(self, z3z):
        with pytest.raises(UnknownGenerator):
            parse_word("q", z3z)

    def test_malformed_exponent(self, z3z):
        with pytest.raises(MalformedExponent):
            parse_word("a^x", z3z)

    def test_zero_exponent(self, z3z):
        with pytest.raises(ZeroExponent):
            parse_word("a^0", z3z)

    def test_runs_merge_maximally(self, z3z):
        assert parse_word("a^2 a", z3z).runs == ((0, 3),)
        assert parse_word("a^2 a^-1", z3z).runs == ((0, 2), (0, -1))

    def test_indexing_and_slicing(self, z3z):
        w = parse_word("a^3 d b^-2", z3z)
        assert w[0] == Letter(0, 1)
        assert w[3] == Letter(3, 1)
        assert w[-1] == Letter(1, -1)
        assert w[1:5].text() == "a^2 d b^-1"

    def test_huge_exponent_stays_cheap(self, z3z):
        w = parse_word("a^999999999999 b", z3z)
        assert len(w) == 1000000000000
        assert len(w.runs) == 2


class TestWord:
    @seed(2803)
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_list_of_its_letters(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        runs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 3).filter(bool)), max_size=6)
        )
        w = Word(graph, runs)
        letters = [Letter(g, 1 if e > 0 else -1) for g, e in runs for _ in range(abs(e))]
        k = len(letters)
        assert len(w) == k and list(w) == letters
        assert [w[i] for i in range(-k, k)] == letters + letters
        for i in (k, -k - 1):
            with pytest.raises(IndexError):
                w[i]
        bounds = st.none() | st.integers(-k - 3, k + 3)
        for _ in range(6):
            a, b = data.draw(bounds), data.draw(bounds)
            assert w[a:b] == Word(graph, letters[a:b])
            assert list(w[a:b]) == letters[a:b]
        with pytest.raises(WordError):
            w[:: data.draw(st.sampled_from((-2, -1, 2, 3)))]
        # one run per letter merges back into the same maximal runs
        split = Word(graph, letters)
        assert split == w and hash(split) == hash(w)
        assert all(
            g1 != g2 or (e1 > 0) != (e2 > 0) for (g1, e1), (g2, e2) in zip(w.runs, w.runs[1:])
        )

    def test_slice_inside_a_huge_run_stays_cheap(self, z3z):
        w = Word(z3z, ((0, -(10**12)), (1, 2)))
        assert w[10**11 : 10**11 + 5].runs == ((0, -5),)
        assert w[-4:].runs == ((0, -2), (1, 2))
        assert w[10**12 - 1] == Letter(0, -1) and w[-2] == Letter(1, 1)

    def test_rejects_zero_and_out_of_range_runs(self, z3z):
        with pytest.raises(ZeroExponent):
            Word(z3z, ((0, 1), (1, 0)))
        with pytest.raises(WordError, match="out of range"):
            Word(z3z, ((4, 1),))


class TestNormalForm:
    # expected values frozen from the BFS oracle where marked
    def test_shortlex_examples(self, z3z):
        assert GroupElement.from_text(z3z, "b a c b^-1 b").text() == "a b c"
        assert GroupElement.from_text(z3z, "a a^-1").text() == ""
        assert GroupElement.from_text(z3z, "a d a^-1").text() == "a d a^-1"
        assert GroupElement.from_text(z3z, "a b a").text() == "a^2 b"
        assert GroupElement.from_text(z3z, "b a").text() == "a b"

    def test_slide_past_commuting_block(self, ck):
        # b commutes with a and c but not d; it slides to the front
        assert GroupElement.from_text(ck, "c a b").text() == "b c a"
        assert GroupElement.from_text(ck, "c a").text() == "c a"

    def test_sign_order_within_generator(self, z3z):
        assert GroupElement.from_text(z3z, "b^-1 a^-1").text() == "a^-1 b^-1"
        assert GroupElement.from_text(z3z, "b a^-1").text() == "a^-1 b"

    def test_idempotent_on_examples(self, z3z):
        for text in ("b a c b^-1 b", "d a d^-1 a^-1", "a^5 d^-3 a^2"):
            once = GroupElement.from_text(z3z, text)
            assert normal_form(once.normal) == once

    def test_big_exponent_cancellation(self, z3z):
        assert GroupElement.from_text(z3z, "a^999999999999 b a^-999999999998").text() == "a b"

    @given(letters=letters_st)
    def test_idempotent(self, z3z, letters):
        nf = normal_form(Word(z3z, letters))
        assert normal_form(nf.normal) == nf

    @given(letters=letters_st)
    def test_matches_piling_oracle(self, z3z, letters):
        nf = normal_form(Word(z3z, letters))
        assert _pile_key(z3z, letters) == _pile_key(z3z, list(nf.normal))
        beads = sum(1 for col in _pile_key(z3z, letters) for b in col if b)
        assert beads == nf.length

    @given(letters=letters_st)
    def test_matches_piling_oracle_path_graph(self, ck, letters):
        nf = normal_form(Word(ck, letters))
        assert _pile_key(ck, letters) == _pile_key(ck, list(nf.normal))

    @seed(2202)
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_piling_oracle_random_graphs(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        letters = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))), max_size=14)
        )
        nf = normal_form(Word(graph, letters))
        pile = _pile_key(graph, letters)
        assert pile == _pile_key(graph, list(nf.normal))
        assert sum(1 for col in pile for b in col if b) == nf.length
        assert normal_form(nf.normal) == nf


class TestGeodesics:
    def test_examples(self, z3z):
        # a word is geodesic iff its normal form is as long as it is
        def geodesic(text):
            return GroupElement.from_text(z3z, text).length == len(parse_word(text, z3z))

        assert geodesic("a a^-1") is False
        assert geodesic("a b a") is True  # equals a^2 b, same length
        assert geodesic("a d a^-1 d") is True


class TestGroupOps:
    def test_multiply_cancels(self, z3z):
        x = GroupElement.from_text(z3z, "a d")
        y = GroupElement.from_text(z3z, "d^-1 b")
        assert (x * y).text() == "a b"

    def test_invert(self, z3z):
        x = GroupElement.from_text(z3z, "a d b^2")
        assert x.inverse().text() == "b^-2 d^-1 a^-1"
        assert (x * x.inverse()).is_identity

    def test_pow(self, z3z):
        x = GroupElement.from_text(z3z, "a d")
        assert (x**3) == x * x * x
        assert (x**-2) == x.inverse() * x.inverse()
        assert (x**0).is_identity
        assert (GroupElement.from_text(z3z, "d") ** (10**12)).length == 10**12

    @given(data=st.data(), letters=letters_st)
    @settings(max_examples=40, deadline=None)
    def test_pow_matches_repeated_product(self, z3z, ck, data, letters):
        x = elem(data.draw(st.sampled_from((z3z, ck))), letters)
        for base, sign in ((x, 1), (x.inverse(), -1)):
            acc = GroupElement.identity(x.graph)
            for n in range(1, 51):
                acc = acc * base
                assert x ** (sign * n) == acc

    def test_pow_folds_in_one_pass(self, ck, monkeypatch):
        # P**n refolds n copies of P's syllables at once instead of forming
        # n - 1 products, each of which copies the growing word
        P = GroupElement.from_text(ck, "b c^3 d a b^2")  # the period of gamma
        calls = {"fold": 0, "append": 0}
        fold, append = raag._append_syllable, GroupElement.append_syllables

        def counted_fold(*args):
            calls["fold"] += 1
            return fold(*args)

        def counted_append(self, syllables):
            calls["append"] += 1
            return append(self, syllables)

        monkeypatch.setattr(raag, "_append_syllable", counted_fold)
        monkeypatch.setattr(GroupElement, "append_syllables", counted_append)
        power = P**20000
        assert calls["fold"] <= 20000 * P.length
        assert calls["append"] == 1
        assert power.length == 20000 * P.length

    def test_mixed_graphs_rejected(self, z3z, ck):
        with pytest.raises(MixedGraphs):
            GroupElement.from_text(z3z, "a") * GroupElement.from_text(ck, "a")
        with pytest.raises(MixedGraphs):
            distance(GroupElement.from_text(z3z, "a"), GroupElement.from_text(ck, "a"))
        with pytest.raises(MixedGraphs):
            quotient(GroupElement.from_text(z3z, "a"), GroupElement.from_text(ck, "a"))

    @given(a=letters_st, b=letters_st, c=letters_st)
    @settings(max_examples=60)
    def test_associative(self, z3z, a, b, c):
        x, y, z = elem(z3z, a), elem(z3z, b), elem(z3z, c)
        assert (x * y) * z == x * (y * z)

    @given(a=letters_st)
    def test_inverse_involution(self, z3z, a):
        x = elem(z3z, a)
        assert x.inverse().inverse() == x
        assert (x * x.inverse()).is_identity

    @seed(2403)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_quotient_matches_inverse_product(self, z3z, ck, data):
        # b = a·w, where w undoes a's tail after a drawn letter, inside a
        # syllable or not, and then adds a drawn word. So the common syllable
        # prefix takes every length, past the first probe 8 syllables short
        # of the end too, and its last syllable may match only in part
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-3, -2, -1, 1, 2, 3)))

        def words(most):
            # the size is drawn first: lists drawn directly are mostly short
            return st.integers(0, most).flatmap(
                lambda k: st.lists(syllable, min_size=k, max_size=k)
            )

        a = normal_form(Word(graph, data.draw(words(30))))
        cut = data.draw(st.integers(0, a.length))
        b = normal_form(a.normal[:cut]) * normal_form(Word(graph, data.draw(words(12))))
        assert quotient(a, b) == a.inverse() * b
        assert quotient(b, a) == b.inverse() * a


class TestBfsOracle:
    def test_frozen_example(self, z3z):
        # ground truth by construction
        assert bfs_oracle_distance(1, "a d a^-1 d^-1", 6, graph=z3z) == 4

    def test_not_in_ball(self, z3z):
        with pytest.raises(NotInBall):
            bfs_oracle_distance(1, "a d a^-1 d^-1", 3, graph=z3z)

    def test_zero_radius(self, z3z):
        assert bfs_oracle_distance(1, "a a^-1", 0, graph=z3z) == 0

    @given(letters=letters_st)
    @settings(max_examples=60, deadline=None)
    def test_norm_equals_oracle_distance(self, z3z, letters):
        w = Word(z3z, letters)
        nf = normal_form(w)
        assert nf.length == bfs_oracle_distance(1, w, 14, graph=z3z)

    @given(a=st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=5),
           b=st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_pairwise_distance(self, ck, a, b):
        x, y = elem(ck, a), elem(ck, b)
        assert distance(x, y) == bfs_oracle_distance(x, y, 12)

    @given(a=letters_st, b=letters_st)
    @settings(max_examples=60)
    def test_equality_iff_piles_agree(self, z3z, a, b):
        same_nf = normal_form(Word(z3z, a)) == normal_form(Word(z3z, b))
        same_pile = _pile_key(z3z, a) == _pile_key(z3z, b)
        assert same_nf == same_pile


def draw_strip_case(data, fixtures):
    """A graph (a fixture or a random one), an element and a generator mask."""
    graph = data.draw(st.sampled_from(fixtures) | random_graphs())
    n = len(graph.generators)
    letters = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))), max_size=14)
    )
    mask = data.draw(st.integers(0, (1 << len(graph.generators)) - 1))
    return graph, normal_form(Word(graph, letters)), mask


def assert_split(graph, x, head, tail, removed, mask):
    # neither half need be in normal form, so the product is refolded
    assert GroupElement(graph, _fold(graph, head + tail)) == x
    assert all((mask >> g) & 1 for g, _ in removed)


class TestStrip:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_strip_right_contract(self, z3z, ck, data):
        graph, x, mask = draw_strip_case(data, (z3z, ck))
        kept, removed = _strip_right(graph, x.syllables, mask)
        assert_split(graph, x, kept, removed, removed, mask)
        assert _strip_right(graph, kept, mask) == (kept, ())
        # Wall names its carrier coset by this kept half, so it is canonical
        assert _fold(graph, kept) == kept

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_strip_left_contract(self, z3z, ck, data):
        graph, x, mask = draw_strip_case(data, (z3z, ck))
        removed, kept = _strip_left(graph, x.syllables, mask)
        assert_split(graph, x, removed, kept, removed, mask)
        assert _strip_left(graph, kept, mask) == ((), kept)

    @given(data=st.data())
    @seed(2401)
    @settings(max_examples=300, deadline=None)
    def test_strip_left_matches_full_scan(self, z3z, ck, data):
        # stopping once every masked generator is blocked keeps what a scan
        # to the end of the word keeps, on a word and on its reversal
        graph, x, mask = draw_strip_case(data, (z3z, ck))
        for word in (x.syllables, x.syllables[::-1]):
            assert _strip_left(graph, word, mask) == strip_left_by_scan(graph, word, mask)

    @given(data=st.data())
    @seed(2402)
    @settings(max_examples=300, deadline=None)
    def test_strip_right_mirrors_strip_left(self, z3z, ck, data):
        # the scan from the end keeps the untouched prefix as one slice; it
        # must split exactly as _strip_left does on the reversed word
        graph, x, mask = draw_strip_case(data, (z3z, ck))
        for word in (x.syllables, x.syllables[::-1]):
            removed, kept = _strip_left(graph, word[::-1], mask)
            assert _strip_right(graph, word, mask) == (kept[::-1], removed[::-1])

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_halves_share_input_syllables(self, z3z, ck, data):
        # a wall or coset base cut from a word holds that word's own pairs
        graph, x, mask = draw_strip_case(data, (z3z, ck))
        ids = {id(s) for s in x.syllables}
        for halves in (_strip_left(graph, x.syllables, mask), _strip_right(graph, x.syllables, mask)):
            assert all(id(s) in ids for half in halves for s in half)


def test_cancellation_check_under_python_O():
    # the engine's geodesy invariant on the cancel-and-merge branch is an
    # explicit check, not an assert
    script = textwrap.dedent(
        """
        from cubemorse.raag import CertificateViolation, DefiningGraph, _append_syllable
        graph = DefiningGraph.from_json("tests/data/z3z.json")
        a, b = graph.gen_index("a"), graph.gen_index("b")
        # b a b^-1 is no normal form: a^-1 cancels a and leaves b b^-1
        try:
            _append_syllable(graph, [(b, 1), (a, 1), (b, -1)], a, -1)
        except CertificateViolation as e:
            print("raised:", e)
        """
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: cancellation broke geodesy\n", proc.stdout
