import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arec.data import DomainError, ParseError
from arec.losses import (
    DIST_FLOOR,
    MODALITY_TAGS,
    PROB_FLOOR,
    ModalityTable,
    clamp_probs,
    difference_loss,
    load_modality_features,
    logloss,
    logloss_d_logits,
    save_modality_features,
    similarity_loss,
    synthesize_modality_features,
)
from arec.numerics import Rng

from helpers import corruptions
from oracle import difference_loss_grad, finite_diff_grad, rel_error, similarity_loss_grad


def test_logloss_half_probability_is_ln2():
    assert abs(logloss([0.5, 0.5], [1.0, 0.0]) - math.log(2.0)) < 1e-12
    # independent of the labels when every prediction is 0.5
    gen = np.random.default_rng(0)
    labels = gen.integers(0, 2, size=50).astype(float)
    assert abs(logloss([0.5] * 50, labels) - math.log(2.0)) < 1e-12


def test_logloss_perfect_predictions_hit_clamp_floor():
    loss = logloss([1.0, 0.0], [1.0, 0.0])
    assert 0.0 < loss <= -math.log1p(-PROB_FLOOR) + 1e-15
    assert loss < 2e-7


def test_logloss_hand_computed_fixture():
    preds = [0.9, 0.2, 0.6, 0.35]
    labels = [1.0, 0.0, 0.0, 1.0]
    want = -(math.log(0.9) + math.log(0.8) + math.log(0.4) + math.log(0.35)) / 4.0
    assert abs(logloss(preds, labels) - want) < 1e-12


def test_logloss_shape_validation():
    with pytest.raises(DomainError):
        logloss([0.5, 0.5], [1.0])
    with pytest.raises(DomainError):
        logloss([], [])
    with pytest.raises(DomainError):
        logloss([[0.5]], [[1.0]])


def test_logloss_grad_zero_in_clamped_region():
    g = logloss_d_logits(np.array([1e-9, 1.0 - 1e-9, 0.4]), np.array([0.0, 1.0, 1.0]))
    assert g[0] == 0.0 and g[1] == 0.0 and g[2] != 0.0


def test_clamp_bounds():
    out = clamp_probs(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
    assert out[0] == PROB_FLOOR and out[-1] == 1.0 - PROB_FLOOR
    assert out[2] == 0.5


def test_similarity_identical_is_zero():
    x = Rng(2).normal((5, 7))
    assert similarity_loss(x, x.copy()) == 0.0


def test_similarity_single_pair_hand_case():
    assert abs(similarity_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - 1.0) < 1e-15


def test_similarity_matches_direct_loop():
    gen = np.random.default_rng(3)
    for _ in range(20):
        n, d = int(gen.integers(1, 6)), int(gen.integers(1, 8))
        a = gen.normal(size=(n, d))
        v = gen.normal(size=(n, d))
        direct = sum(float(np.sum((a[i] - v[i]) ** 2)) for i in range(n)) / (2.0 * n)
        assert abs(similarity_loss(a, v) - direct) < 1e-12


def test_similarity_shape_mismatch():
    with pytest.raises(DomainError):
        similarity_loss(np.ones((2, 3)), np.ones((2, 4)))


def test_similarity_grad_matches_finite_differences():
    gen = np.random.default_rng(4)
    a = gen.normal(size=(3, 5))
    v = gen.normal(size=(3, 5))
    da, dv = similarity_loss_grad(a, v)
    fd_a = finite_diff_grad(
        lambda x: similarity_loss(x.reshape(3, 5), v), a.ravel()
    ).reshape(3, 5)
    fd_v = finite_diff_grad(
        lambda x: similarity_loss(a, x.reshape(3, 5)), v.ravel()
    ).reshape(3, 5)
    assert rel_error(da, fd_a) < 1e-4
    assert rel_error(dv, fd_v) < 1e-4


def test_difference_identical_features_zero():
    x = Rng(5).normal((6,))
    y = Rng(6).normal((6,))
    assert difference_loss(x, x.copy(), y, y.copy()) == 0.0


def test_difference_positive_for_distinct_distributions():
    # sharply peaked private logits vs flat shared logits
    p = np.array([10.0, 0.0, 0.0])
    s = np.array([0.0, 0.0, 0.0])
    flat = np.zeros(3)
    assert difference_loss(p, s, flat, flat) > 0.5


def test_difference_matches_direct_oracle():
    gen = np.random.default_rng(7)
    for _ in range(20):
        d = int(gen.integers(2, 9))
        pa, sa, pv, sv = (gen.normal(size=d) for _ in range(4))

        def kl(pf, qf):
            p = np.exp(pf) / np.sum(np.exp(pf))
            q = np.exp(qf) / np.sum(np.exp(qf))
            p = np.maximum(p, DIST_FLOOR)
            q = np.maximum(q, DIST_FLOOR)
            return float(np.sum(p * np.log2(p / q)))

        want = kl(pa, sa) + kl(pv, sv)
        assert abs(difference_loss(pa, sa, pv, sv) - want) < 1e-10


def test_difference_nonnegative():
    gen = np.random.default_rng(8)
    for _ in range(50):
        d = int(gen.integers(2, 10))
        vecs = [gen.normal(size=d) * gen.uniform(0.1, 5.0) for _ in range(4)]
        assert difference_loss(*vecs) >= 0.0


def test_difference_dimension_mismatch():
    with pytest.raises(DomainError):
        difference_loss(np.ones(3), np.ones(4), np.ones(3), np.ones(3))


def test_difference_rows_equal_one_row_calls_bit_for_bit():
    # the trainer builds its per-item table with one row-wise call; every
    # row must round exactly as the one-row call does
    gen = np.random.default_rng(31)
    for d in range(1, 34):
        for scale in (0.1, 1.0, 7.0, 40.0):
            n = int(gen.integers(1, 12))
            vecs = [gen.normal(size=(n, d)) * scale for _ in range(4)]
            rows = difference_loss(*vecs)
            assert rows.shape == (n,)
            singles = [difference_loss(*(v[i] for v in vecs)) for i in range(n)]
            assert all(type(x) is float for x in singles)
            assert np.array_equal(rows, singles), (d, scale)


def test_difference_rows_shape_mismatch():
    rows = np.ones((4, 3))
    cases = [
        (rows, np.ones((4, 4)), rows, rows),  # audio width
        (rows, rows, rows, np.ones((5, 3))),  # visual row count
        (rows, rows, np.ones((5, 3)), np.ones((5, 3))),  # audio vs visual rows
        (rows, rows, np.ones(3), np.ones(3)),  # rows vs a single vector
        (np.float64(1.0), np.float64(1.0), np.ones(3), np.ones(3)),  # a scalar
    ]
    for case in cases:
        with pytest.raises(DomainError):
            difference_loss(*case)


def test_difference_grad_matches_finite_differences():
    gen = np.random.default_rng(9)
    for _ in range(10):
        d = int(gen.integers(2, 7))
        pa, sa, pv, sv = (gen.normal(size=d) for _ in range(4))
        grads = difference_loss_grad(pa, sa, pv, sv)
        args = [pa, sa, pv, sv]
        for slot in range(4):
            def f(x, slot=slot):
                probe = list(args)
                probe[slot] = x
                return difference_loss(*probe)

            fd = finite_diff_grad(f, args[slot])
            assert rel_error(grads[slot], fd) < 1e-4, slot


def test_modality_table_validation():
    ok = ModalityTable(["a", "b"], np.zeros((2, 4, 3)))
    assert ok.keys == ("a", "b") and ok.vectors.dtype == np.float64
    bad_shapes = [np.zeros((2, 3, 3)), np.zeros((1, 4, 3)), np.zeros((2, 4, 0)), np.zeros((2, 4))]
    for vectors in bad_shapes:
        with pytest.raises(DomainError):
            ModalityTable(["a", "b"], vectors)
    with pytest.raises(DomainError):
        ModalityTable([], np.zeros((0, 4, 3)))
    with pytest.raises(DomainError, match="share one length"):
        ModalityTable(["a"], [[np.zeros(2)] * 3 + [np.zeros(3)]])
    with pytest.raises(DomainError, match="repeat"):
        ModalityTable(["a", "a"], np.zeros((2, 4, 3)))
    for bad in (np.nan, np.inf):
        vectors = np.zeros((2, 4, 3))
        vectors[1, 2, 0] = bad
        with pytest.raises(DomainError, match="item b: non-finite"):
            ModalityTable(["a", "b"], vectors)


def _by_key(table):
    return dict(zip(table.keys, table.vectors))


def test_modality_file_roundtrip(tmp_path):
    table = synthesize_modality_features(["10", "11", "12"], dim=5, seed=3)
    path = tmp_path / "features.txt"
    save_modality_features(table, str(path))
    loaded = load_modality_features(str(path))
    assert loaded.keys == ("10", "11", "12")
    assert loaded.vectors.tobytes() == table.vectors.tobytes()  # repr round trip is exact


def test_modality_file_parse_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("10 sa 1.0,2.0\n10 sv\n")
    with pytest.raises(ParseError) as err:
        load_modality_features(str(p))
    assert ":2:" in str(err.value)
    p.write_text("10 xx 1.0\n")
    with pytest.raises(ParseError):
        load_modality_features(str(p))
    p.write_text("10 sa 1.0,oops\n")
    with pytest.raises(ParseError):
        load_modality_features(str(p))
    p.write_bytes(b"10 sa 1.0\n10 sv 1.\xff0\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2: not utf-8 text"):
        load_modality_features(str(p))
    for text in ("", "\n  \n"):
        p.write_text(text)
        with pytest.raises(ParseError, match=r"bad\.txt: no modality feature lines"):
            load_modality_features(str(p))


def test_modality_file_rules_are_checked_on_the_table(tmp_path):
    p = tmp_path / "features.txt"
    lines = [f"{item} {tag} 1.0,2.0" for item in ("7", "8") for tag in MODALITY_TAGS]
    p.write_text("\n".join(lines[:-1] + ["8 pv 1.0,2.0,3.0"]) + "\n")
    with pytest.raises(DomainError, match="share one length"):
        load_modality_features(str(p))
    p.write_text("\n".join(lines[:-1] + ["8 pv 1.0,1e999"]) + "\n")
    with pytest.raises(DomainError, match="item 8: non-finite"):
        load_modality_features(str(p))


def test_modality_file_later_line_wins(tmp_path):
    p = tmp_path / "features.txt"
    lines = [f"{item} {tag} 1.0,2.0" for item in ("9", "3") for tag in MODALITY_TAGS]
    p.write_text("\n".join(lines + ["9 pa 5.0,6.0", "  ", "3 sv 7.0,8.0"]) + "\n")
    loaded = load_modality_features(str(p))
    assert loaded.keys == ("9", "3")  # first appearance, not sorted
    want = np.ones((2, 4, 2)) * [1.0, 2.0]
    want[0, 2] = [5.0, 6.0]
    want[1, 1] = [7.0, 8.0]
    assert np.array_equal(loaded.vectors, want)


def test_modality_file_values_equal_per_token_float_bit_for_bit(tmp_path):
    gen = np.random.default_rng(5)
    edge = ["1_0", "+.5", "5.", "-0", "-.0", "1E3", "1e-400", "4.9e-324",
            "2.4703282292062328e-324", "0.000001e-308", "1.7976931348623157e308",
            "١٢", "1" + "0" * 30 + ".5", "0." + "3" * 60]
    values = gen.standard_normal(400) * 10.0 ** gen.integers(-300, 300, 400)
    random_tokens = [repr(float(v)) for v in values]
    random_tokens += [f"{v:.3e}" for v in values[:100]]
    random_tokens += ["".join(map(str, gen.integers(0, 10, int(k)))) + "." + "7" * int(k)
                      for k in gen.integers(1, 40, 100)]
    tokens = edge + random_tokens
    dim = len(edge)
    rows = [tokens[i : i + dim] for i in range(0, len(tokens) - dim + 1, dim)]
    path = tmp_path / "features.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for item, row in enumerate(rows):
            for tag in MODALITY_TAGS:
                fh.write(f"{item} {tag} {','.join(row)}\n")
    loaded = _by_key(load_modality_features(str(path)))
    for item, row in enumerate(rows):
        want = np.array([float(tok) for tok in row], dtype=np.float64)
        for vec in loaded[str(item)]:
            assert vec.tobytes() == want.tobytes(), (item, row)
    path.write_text("10 sa 1.0,0x1p3\n")  # float() rejects hex literals; so must the loader
    with pytest.raises(ParseError):
        load_modality_features(str(path))


def test_modality_file_missing_tag(tmp_path):
    p = tmp_path / "partial.txt"
    p.write_text("10 sa 1.0,2.0\n10 sv 1.0,2.0\n10 pa 1.0,2.0\n")
    with pytest.raises(DomainError) as err:
        load_modality_features(str(p))
    assert "pv" in str(err.value)


VALID_MODALITY = "".join(
    f"{item} {tag} {value},-{value}e-3\n"
    for item, value in (("4", "0.25"), ("17", "1.5")) for tag in MODALITY_TAGS
).encode("utf-8")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(blob=corruptions(VALID_MODALITY))
def test_a_damaged_modality_file_gives_a_table_or_an_input_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "modality_property.txt"
    path.write_bytes(blob)
    try:
        table = load_modality_features(str(path))
    except ParseError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    except DomainError:
        return
    assert isinstance(table, ModalityTable) and np.isfinite(table.vectors).all()


@pytest.mark.parametrize("keys", [["a b", "c"], ["", "c"], ["a\tb"], ["a\nb"], ["a\x1cb"],
                                  ["\udc80"], [1, "1"]])
def test_the_writer_rejects_keys_it_cannot_read_back(tmp_path, keys):
    table = synthesize_modality_features(keys, dim=2, seed=0)
    path = tmp_path / "features.txt"
    with pytest.raises(DomainError):
        save_modality_features(table, str(path))
    assert not path.exists()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(keys=st.lists(st.text(max_size=4) | st.integers(), min_size=1, max_size=4, unique=True),
       dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_every_table_the_writer_accepts_loads_back_equal(tmp_path_factory, keys, dim, seed):
    table = synthesize_modality_features(keys, dim=dim, seed=seed)
    path = tmp_path_factory.getbasetemp() / "modality_roundtrip.txt"
    path.unlink(missing_ok=True)
    try:
        save_modality_features(table, str(path))
    except DomainError:
        assert not path.exists()
        return
    loaded = load_modality_features(str(path))
    want = sorted(zip(map(str, table.keys), table.vectors), key=lambda kv: kv[0])
    assert loaded.keys == tuple(text for text, _ in want)
    assert loaded.vectors.tobytes() == np.array([vec for _, vec in want]).tobytes()


def test_synthesized_features_structure():
    table = synthesize_modality_features(["a", "b"], dim=64, seed=0)
    assert table.keys == ("a", "b") and table.vectors.shape == (2, 4, 64)
    sa, sv, pa, pv = table.vectors[0]
    # shared pair built from one base vector: strongly correlated
    corr = np.corrcoef(sa, sv)[0, 1]
    assert corr > 0.9
    # deterministic given the seed
    again = synthesize_modality_features(["a", "b"], dim=64, seed=0)
    assert again.vectors.tobytes() == table.vectors.tobytes()


def test_synthesized_features_draw_item_by_item():
    # the stream order of one `normal((dim,))` draw per vector: base, shared
    # audio noise, shared visual noise, private audio, private visual
    rng = Rng(4)
    want = []
    for _ in range(3):
        base = rng.normal((5,))
        want.append([base + 0.1 * rng.normal((5,)), base + 0.1 * rng.normal((5,)),
                     rng.normal((5,)), rng.normal((5,))])
    table = synthesize_modality_features(["x", "y", "x"], dim=5, seed=4)
    # a repeated key keeps its first place and its last draw
    assert table.keys == ("x", "y")
    assert table.vectors.tobytes() == np.array([want[2], want[1]]).tobytes()
