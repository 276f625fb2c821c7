"""Target distribution zoo: each structured family must agree exactly with
its dense form on masses, conditionals, and edge biases, and match the
closed-form functionals."""

import inspect
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from hypercube_tester import model, zoo
from hypercube_tester.harness import resolve_gaussian_source
from hypercube_tester.model import (
    HypercubeTarget,
    Restriction,
    all_sign_points,
    conditional_table,
    mean_vector,
    points_to_indices,
    subcube_mass,
    tv_to_uniform,
    uniform_signs,
)
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.zoo import (
    GaussianSource,
    HeavyAtomDistribution,
    JuntaMixDistribution,
    NoisyParityDistribution,
    TwoPointDistribution,
    instantiate,
    load_entry,
    parse_spec_string,
    save_entry,
    zoo_kinds,
)


def _families(n, rng):
    x = (2 * rng.integers(0, 2, n) - 1).astype(np.int8)
    inner = rng.dirichlet(np.ones(4))
    return [
        TwoPointDistribution(x),
        HeavyAtomDistribution(0.35, x),
        JuntaMixDistribution(n, 2, inner),
        NoisyParityDistribution(n, [0, 2], 0.2),
        NoisyParityDistribution(n, [1], 0.0),
    ]


def _random_restriction(rng, n, force_star=True):
    cells = rng.integers(-1, 2, n).astype(np.int8)
    if force_star and (cells != 0).sum() == n:
        cells[rng.integers(n)] = 0
    return Restriction(cells)


def _closed_form_mass(fam):
    """A family's masses in dense order from its closed form: the atoms of
    two_point and heavy_atom placed by index, the junta's inner PMF times
    the uniform rest, and the parity's 2^(1-n) (1 - delta) or 2^(1-n) delta."""
    n = fam.n
    if isinstance(fam, TwoPointDistribution):
        mass = np.zeros(1 << n)
        mass[points_to_indices(fam.x)] += 0.5
        mass[points_to_indices(-fam.x)] += 0.5
    elif isinstance(fam, HeavyAtomDistribution):
        mass = np.full(1 << n, (1.0 - fam.atom_mass) * 2.0**-n)
        mass[points_to_indices(fam.x)] += fam.atom_mass
    elif isinstance(fam, JuntaMixDistribution):
        return np.kron(fam.inner.mass, np.full(1 << (n - fam.k), 2.0 ** -(n - fam.k)))
    else:
        chi = all_sign_points(n)[:, list(fam.S)].prod(axis=1)
        return 2.0 ** (1 - n) * np.where(chi > 0, 1.0 - fam.delta, fam.delta)
    return mass


def test_dense_forms_are_valid_pmfs():
    # each family's dense form, read from its weight, is a PMF with its
    # masses in closed form to 1e-15 relative, a zero mass exactly zero;
    # with two families that put zero mass on points
    rng = stream(31, 0, 0)
    for n in (3, 4, 5, 8):
        zeros = [HeavyAtomDistribution(1.0, np.ones(n)), NoisyParityDistribution(n, [0], 1.0)]
        for fam in _families(n, rng) + zeros:
            mass = fam.dense().mass
            assert mass.min() >= 0
            assert mass.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(mass, _closed_form_mass(fam), rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "entry",
    [
        {"kind": "two_point"},
        {"kind": "heavy_atom", "mass": 0.5},
        {"kind": "junta_mix", "k": 2},
        {"kind": "noisy_parity", "S": [0, 1], "delta": 0.3},
        {"kind": "planted_product", "eps": 0.25},
    ],
    ids=lambda entry: entry["kind"],
)
def test_dense_refuses_past_the_cap_before_it_allocates(entry):
    # one past DENSE_CAP the masses alone would take 16 GiB
    target = instantiate(entry, model.DENSE_CAP + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"dimension {model.DENSE_CAP + 1} exceeds cap"):
            target.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_sample_law_matches_dense():
    rng = stream(32, 0, 0)
    n = 4
    for fam in _families(n, rng):
        dense = fam.dense()
        draws = fam.sample(stream(33, 0, 0), 60_000)
        freq = np.bincount(points_to_indices(draws), minlength=1 << n) / 60_000
        assert np.abs(freq - dense.mass).max() < 0.01, type(fam).__name__


def _check_cond_law(fam, rho, rng_key):
    """Oracle draws on rho follow the dense conditional, or the oracle's
    uniform fallback when the target reports a zero-mass subcube; returns
    whether the subcube had zero mass."""
    name = type(fam).__name__
    table, mass = conditional_table(fam.dense(), rho)
    k = rho.num_stars
    assert (fam.cond_sample(stream(*rng_key), rho, 1) is None) == (mass == 0.0), name
    o = ScondOracle(fam, stream(*rng_key))
    draws = o.cond_sample(rho, 30_000)
    assert draws.shape == (30_000, k), name
    if mass == 0.0:
        assert o.zero_support_hits == 30_000, name
        table = np.full(1 << k, 2.0**-k)
    else:
        assert o.zero_support_hits == 0, name
    freq = np.bincount(points_to_indices(draws), minlength=1 << k) / 30_000
    assert np.abs(freq - table).max() < 0.015, name
    return mass == 0.0


def test_cond_sample_law_matches_dense_conditional():
    rng = stream(34, 0, 0)
    n = 4
    x = np.array([1, -1, -1, 1], dtype=np.int8)
    # two more families that have zero-mass subcubes with stars: a point
    # mass, and a junta whose inner PMF puts no mass on x_0 = -1
    families = _families(n, rng) + [
        HeavyAtomDistribution(1.0, x),
        JuntaMixDistribution(n, 2, [0.0, 0.0, 0.25, 0.75]),
    ]
    every_rho = [
        Restriction(np.array(cells, dtype=np.int8))
        for cells in itertools.product((-1, 0, 1), repeat=n)
    ]
    zero_checked = set()
    for fam in families:
        for trial in range(6):
            _check_cond_law(fam, _random_restriction(stream(35, trial), n), (36, trial))
        dense = fam.dense()
        dead = [rho for rho in every_rho if rho.num_stars and subcube_mass(dense, rho) == 0.0]
        if dead:
            widest = max(dead, key=lambda rho: rho.num_stars)
            assert _check_cond_law(fam, widest, (36, 9))
            zero_checked.add(type(fam))
    assert zero_checked == {
        TwoPointDistribution,
        HeavyAtomDistribution,
        JuntaMixDistribution,
        NoisyParityDistribution,
    }


def test_targets_draw_only_through_cond_sample():
    targets = [
        cls
        for module in (model, zoo)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
        and cls is not HypercubeTarget
        and (
            issubclass(cls, HypercubeTarget)
            or {"cond_sample", "edge_bias", "weight"} & set(vars(cls))
        )
    ]
    assert {cls.__name__ for cls in targets} == {
        "DensePmf",
        "ProductDistribution",
        "TwoPointDistribution",
        "HeavyAtomDistribution",
        "JuntaMixDistribution",
        "NoisyParityDistribution",
    }
    for cls in targets:
        assert issubclass(cls, HypercubeTarget), cls.__name__
        assert "cond_sample" in vars(cls), cls.__name__
        assert "sample" not in vars(cls), cls.__name__
        # each target states its point mass, or a closed-form edge bias
        assert {"weight", "edge_bias"} & set(vars(cls)), cls.__name__
    assert "sample" in vars(HypercubeTarget)
    # only the product, whose point mass underflows past n of about 1074,
    # gives its edge biases in closed form; the parity's follow from weight
    assert {cls.__name__ for cls in targets if "edge_bias" in vars(cls)} == {"ProductDistribution"}


def test_edge_bias_matches_dense():
    rng = stream(37, 0, 0)
    n = 5
    # three more families with zero-mass points: two_point at n = 1, whose
    # only edge has both ends in the support, a junta whose inner PMF puts
    # no mass on x_1 = -1, and a parity that puts no mass on x_0 = +1
    families = _families(n, rng) + [
        TwoPointDistribution([1]),
        JuntaMixDistribution(n, 2, [0.0, 0.5, 0.0, 0.5]),
        NoisyParityDistribution(n, [0], 1.0),
    ]
    zero_checked = set()
    for fam in families:
        name = type(fam).__name__
        dense = fam.dense()
        # target draws, and uniform points, which reach zero-support edges
        for key, pts in (
            (0, fam.sample(stream(38, 0, 0), 400)),
            (2, uniform_signs(stream(38, 2, 0), (400, fam.n))),
        ):
            coords = stream(38, 1, key).integers(0, fam.n, 400)
            got_bias, got_zero = fam.edge_bias(pts, coords)
            want_bias, want_zero = dense.edge_bias(pts, coords)
            assert np.array_equal(got_zero, want_zero), name
            assert np.allclose(got_bias, want_bias, atol=1e-12), name
            if got_zero.any():
                zero_checked.add(type(fam))
    assert zero_checked == {TwoPointDistribution, JuntaMixDistribution, NoisyParityDistribution}


def _dense_bias_law(target, rho):
    """The law of (view coordinate, edge bias) of a pair on the view rho,
    its point drawn from the dense conditional PMF and its coordinate
    uniform over the stars, as {(coordinate, bias): probability}."""
    table, total = conditional_table(target.dense(), rho)
    assert total > 0.0
    k, stars = rho.num_stars, rho.stars
    points = np.empty((1 << k, rho.n), dtype=np.int8)
    points[:] = rho.cells
    points[:, stars] = all_sign_points(k)
    law = {}
    for j in range(k):
        bias, zero = target.edge_bias(points, np.full(1 << k, stars[j]))
        assert not zero[table > 0].any()
        for b, p in zip(bias[table > 0].tolist(), table[table > 0].tolist()):
            key = (j, round(b, 12))
            law[key] = law.get(key, 0.0) + p / k
    return law


def _spectrum_law(spectrum, k):
    """The same law read from an EdgeSpectrum: class j puts w_j / |stars|
    on each of its stars at its bias."""
    law = {}
    for (w, beta), coords in zip(spectrum.law, spectrum.coords):
        coords = range(k) if coords is None else coords.tolist()
        for j in coords:
            key = (j, round(beta, 12))
            law[key] = law.get(key, 0.0) + w / len(coords)
    return law


def test_edge_spectrum_matches_dense_edge_biases():
    # products with up to three distinct means and noisy parities with 0 to
    # 3 stars of S, at the root and on views that fix other cells, against
    # edge_bias averaged over the dense conditional PMF
    n = 6
    targets = [
        model.ProductDistribution(np.array([0.3, -0.5, 0.3, 0.0, 0.7, -0.5])),
        model.ProductDistribution(np.full(n, 0.25)),
        model.ProductDistribution.uniform(n),
        NoisyParityDistribution(n, [0, 2, 3], 0.2),
        NoisyParityDistribution(n, [1, 4], 0.9),
        NoisyParityDistribution(n, [0, 2, 3], 0.0),
    ]
    views = [
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, -1, 0, 0],
        [0, 1, -1, 1, 0, 1],
        [-1, -1, 0, 1, 1, 1],
        [1, -1, -1, 1, 0, 0],
        [1, 0, 1, -1, 0, 1],
    ]
    seen = set()
    for target in targets:
        for cells in views:
            rho = Restriction(np.array(cells, dtype=np.int8))
            spectrum = target.edge_spectrum(rho)
            if subcube_mass(target.dense(), rho) == 0.0:
                assert spectrum is None
                seen.add(None)
                continue
            assert sum(w for w, _ in spectrum.law) == pytest.approx(1.0, abs=1e-15)
            want = _dense_bias_law(target, rho)
            got = _spectrum_law(spectrum, rho.num_stars)
            assert got.keys() == {key for key, p in want.items() if p > 0}
            for key, p in got.items():
                assert p == pytest.approx(want[key], abs=1e-12)
            seen.add(len(spectrum.law))
    assert seen == {None, 1, 2, 3, 4}


def test_edge_spectrum_is_none_without_a_closed_form():
    root = Restriction.all_stars(4)
    # a mean of +-1 leaves subcubes without mass, and that product has no
    # column means either; the other zoo families. A product of many
    # distinct means has a class per mean
    pinned = model.ProductDistribution(np.array([0.2, 1.0, 0.0, 0.1]))
    assert pinned.edge_spectrum(root) is None and pinned.column_means(root) is None
    many = model.ProductDistribution(np.linspace(-0.5, 0.5, 9))
    assert len(many.edge_spectrum(Restriction.all_stars(many.n)).law) == 9
    for target in (TwoPointDistribution(np.ones(4)), HeavyAtomDistribution(0.5, np.ones(4))):
        assert target.edge_spectrum(root) is None
    # the uniform product gives the one shared uniform spectrum
    assert model.ProductDistribution.uniform(4).edge_spectrum(root) is model.UNIFORM_SPECTRUM


# ---------------------------------------------------------------------------
# closed forms


def test_two_point_tv_closed_form():
    for n in (2, 4, 6, 8):
        x = np.ones(n, dtype=np.int8)
        assert tv_to_uniform(TwoPointDistribution(x).dense()) == 1 - 2.0 ** (1 - n)


def test_two_point_mean_is_zero_and_biases_maximal():
    x = np.array([1, -1, 1, 1], dtype=np.int8)
    tp = TwoPointDistribution(x)
    assert np.allclose(mean_vector(tp.dense()), 0.0)
    pts = np.vstack([x, -x])
    bias, zero = tp.edge_bias(pts, np.array([2, 2]))
    assert not zero.any()
    assert bias.tolist() == [float(x[2]), float(-x[2])]


def test_heavy_atom_masses():
    x = np.ones(4, dtype=np.int8)
    ha = HeavyAtomDistribution(0.5, x)
    mass = ha.dense().mass
    # the atom keeps its uniform share of the remaining 0.5 plus the lump
    assert mass[-1] == pytest.approx(0.5 + 0.5 / 16)
    assert mass[0] == pytest.approx(0.5 / 16)
    assert tv_to_uniform(ha.dense()) == pytest.approx(0.5 * (1 - 1 / 16))


def test_junta_mix_is_inner_tensor_uniform():
    inner = np.array([0.1, 0.2, 0.3, 0.4])
    jm = JuntaMixDistribution(5, 2, inner)
    mass = jm.dense().mass
    expect = np.kron(inner, np.full(8, 1 / 8))
    assert np.allclose(mass, expect)


def test_noisy_parity_masses_and_tv():
    n, S, delta = 5, [0, 2], 0.15
    npar = NoisyParityDistribution(n, S, delta)
    mass = npar.dense().mass
    pts = all_sign_points(n)
    chi = pts[:, S].prod(axis=1)
    expect = np.where(chi == 1, (1 - delta) * 2.0 ** (1 - n), delta * 2.0 ** (1 - n))
    assert np.allclose(mass, expect)
    assert tv_to_uniform(npar.dense()) == pytest.approx(abs(1 - 2 * delta) / 2)


def test_noisy_parity_edge_bias_inside_support_set():
    npar = NoisyParityDistribution(4, [0, 3], 0.1)
    pts = np.array([[1, 1, 1, 1], [1, -1, 1, -1]], dtype=np.int8)
    bias, zero = npar.edge_bias(pts, np.array([0, 0]))
    # conditioned on the rest, coordinate 0 leans toward satisfying the parity
    assert not zero.any()
    assert bias[0] == pytest.approx(1 * (1 - 2 * 0.1))  # other S-coord +1
    assert bias[1] == pytest.approx(-1 * (1 - 2 * 0.1))  # other S-coord -1


def test_noisy_parity_pure_parity_zero_edges():
    npar = NoisyParityDistribution(3, [0, 1], 0.0)
    # flipping a coordinate outside S stays in the same parity class: bias 0
    pts = np.array([[1, 1, 1]], dtype=np.int8)
    bias, zero = npar.edge_bias(pts, np.array([2]))
    assert not zero[0] and bias[0] == 0.0
    # flipping inside S from a zero-mass point: the edge has one live endpoint
    dead = np.array([[1, -1, 1]], dtype=np.int8)  # chi = -1, mass 0 at delta=0
    bias2, zero2 = npar.edge_bias(dead, np.array([0]))
    assert not zero2[0]
    assert bias2[0] == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# entries, parsing, serialization


def test_zoo_kinds_lists_all():
    kinds = zoo_kinds()
    assert set(kinds) == {
        "uniform",
        "two_point",
        "planted_product",
        "heavy_atom",
        "junta_mix",
        "noisy_parity",
    }


def test_parse_spec_string_and_instantiate():
    assert parse_spec_string("uniform")["kind"] == "uniform"
    e = parse_spec_string("planted_product:0.25")
    assert e == {"kind": "planted_product", "eps": 0.25}
    prod = instantiate(e, 16)
    assert np.allclose(prod.mu, 0.25)
    e2 = parse_spec_string("noisy_parity:3:0.1")
    assert e2 == {"kind": "noisy_parity", "S": [0, 1, 2], "delta": 0.1}
    with pytest.raises(ValueError):
        parse_spec_string("planted_product")
    with pytest.raises(ValueError):
        parse_spec_string("no_such_kind:1")


def test_entry_roundtrip(tmp_path):
    e = {"kind": "heavy_atom", "mass": 0.4}
    path = tmp_path / "entry.json"
    save_entry(e, str(path))
    back = load_entry(str(path))
    assert back == e
    doc = json.loads(path.read_text())
    assert doc == {"kind": "heavy_atom", "mass": 0.4}


def test_load_entry_refuses_a_file_with_no_kind(tmp_path):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"eps": 0.1}))
    with pytest.raises(ValueError, match="'kind'"):
        load_entry(str(path))


def test_instantiate_validates():
    with pytest.raises(ValueError):
        instantiate({"kind": "two_point", "x": [1, 1]}, 3)
    with pytest.raises(ValueError):
        instantiate({"kind": "bogus"}, 3)
    # sign parameters are checked before the int8 cast, which would read
    # 1.5, 1.9 and 257 as 1
    with pytest.raises(ValueError):
        instantiate({"kind": "two_point", "x": [1.5, -1, 1]}, 3)
    with pytest.raises(ValueError):
        instantiate({"kind": "heavy_atom", "mass": 0.5, "x": [1, 0, 1]}, 3)
    with pytest.raises(ValueError):
        TwoPointDistribution(np.array([257, 1.7, -1]))
    with pytest.raises(ValueError):
        HeavyAtomDistribution(0.5, np.array([1.9, 1]))
    assert instantiate({"kind": "two_point", "x": [1.0, -1.0, 1.0]}, 3).x.tolist() == [1, -1, 1]
    # integer parameters are not truncated either: k=2.7 would build k=2 and
    # S=[1.5] would build S=(1,)
    with pytest.raises(ValueError):
        instantiate({"kind": "junta_mix", "k": 2.7}, 4)
    with pytest.raises(ValueError):
        instantiate({"kind": "noisy_parity", "S": [1.5], "delta": 0.1}, 4)
    with pytest.raises(ValueError):
        JuntaMixDistribution(4.5, 2, np.full(4, 0.25))
    with pytest.raises(ValueError):
        NoisyParityDistribution(4.5, [0], 0.1)
    assert instantiate({"kind": "junta_mix", "k": 2.0}, 4).k == 2
    assert instantiate({"kind": "noisy_parity", "S": [1.0, 3], "delta": 0.1}, 4).S == (1, 3)


def test_gaussian_source():
    src = GaussianSource(6, np.full(6, 0.5))
    draws = src.sample(stream(39, 0, 0), 20_000)
    assert draws.shape == (20_000, 6)
    assert np.abs(draws.mean(axis=0) - 0.5).max() < 0.03
    assert np.abs(draws.std(axis=0) - 1.0).max() < 0.03
    with pytest.raises(ValueError):
        GaussianSource(3, np.zeros(4))
    # a fractional dimension or a non-finite mean fails when the source is
    # built, not at the first draw
    with pytest.raises(ValueError):
        GaussianSource(2.5)
    # as for an experiment's n, a dimension below 1 fails here, not at a draw
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            GaussianSource(n)
    for bad in ("shift:nan", "shift:inf"):
        with pytest.raises(ValueError, match="finite"):
            resolve_gaussian_source(bad, 4)
    assert GaussianSource(4.0).n == 4


def test_gaussian_source_draws_standard_normals_plus_mean():
    mu = np.linspace(-1.0, 1.0, 5)
    draws = GaussianSource(5, mu).sample(stream(40, 0, 0), 300)
    expected = stream(40, 0, 0).standard_normal((300, 5)) + mu
    assert np.array_equal(draws, expected)


def test_gaussian_source_keeps_the_sign_law_of_its_means():
    mu = np.linspace(-1.5, 1.5, 7)
    src = GaussianSource(7, mu)
    # P(x_i >= 0) = Phi(mu_i), held read-only beside a read-only copy of mu
    assert src.phi == pytest.approx([0.5 * (1 + math.erf(m / math.sqrt(2))) for m in mu])
    assert src.phi[3] == 0.5
    mu[0] = 9.0
    assert src.mu[0] == -1.5
    for array in (src.mu, src.phi):
        with pytest.raises(ValueError):
            array[0] = 0.0


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: HeavyAtomDistribution(1.5, [1, 1]), "mass", id="atom-mass"),
        pytest.param(lambda: JuntaMixDistribution(3, 0, [1.0]), "k <= n", id="junta-k-low"),
        pytest.param(
            lambda: JuntaMixDistribution(3, 4, np.ones(16) / 16), "k <= n", id="junta-k-high"
        ),
        pytest.param(lambda: NoisyParityDistribution(4, [], 0.1), "nonempty", id="parity-empty"),
        pytest.param(lambda: NoisyParityDistribution(4, [4], 0.1), "range", id="parity-range"),
        pytest.param(lambda: NoisyParityDistribution(4, [0], 1.5), "delta", id="parity-delta"),
        pytest.param(lambda: instantiate({"eps": 0.1}, 3), "'kind'", id="entry-no-kind"),
        pytest.param(
            lambda: instantiate({"kind": "heavy_atom", "mass": 0.5, "x": [1, 1]}, 3),
            "length n",
            id="atom-x-length",
        ),
        pytest.param(
            lambda: instantiate({"kind": "two_point", "x": [1, -1]}, 3),
            "^two_point x must have length n$",
            id="two-point-x-length",
        ),
        # a default fills an optional parameter the entry leaves out, not
        # one it sets to null
        pytest.param(
            lambda: instantiate({"kind": "two_point", "x": None}, 3), "signs", id="two-point-null-x"
        ),
        pytest.param(
            lambda: instantiate({"kind": "heavy_atom", "mass": 0.5, "x": None}, 3),
            "signs",
            id="atom-null-x",
        ),
    ],
)
def test_zoo_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("k", [31, 62])
def test_junta_mix_checks_k_before_building_its_masses(k):
    # the default inner PMF has 2^k masses: 16 GiB at k = 31, past NumPy's
    # largest array at k = 62; a k past DENSE_CAP is refused first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="DENSE_CAP"):
            instantiate({"kind": "junta_mix", "k": k}, 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kind": "planted_product"}, "'planted_product' needs parameters ['eps']"),
        ({"kind": "noisy_parity"}, "'noisy_parity' needs parameters ['S', 'delta']"),
        (
            {"kind": "planted_product", "eps": 0.25, "epss": 3},
            "'planted_product' takes no parameters ['epss']",
        ),
        ({"kind": "two_point", "mass": 0.3}, "'two_point' takes no parameters ['mass']"),
        ({"kind": "uniform", "n": 6}, "'uniform' takes no parameters ['n']"),
    ],
    ids=["missing-eps", "missing-two", "misspelt-eps", "foreign-mass", "uniform-n"],
)
def test_instantiate_names_a_missing_or_unknown_parameter(doc, message):
    with pytest.raises(ValueError) as info:
        instantiate(doc, 6)
    assert str(info.value) == f"zoo kind {message}"


def test_a_kind_is_one_row_of_one_layout(monkeypatch):
    # hypercube and gaussian kinds share one row layout and one builder call
    for table in (zoo._KIND_DOCS, zoo._GAUSSIAN_KINDS):
        assert all(type(row) is zoo._Kind for row in table.values())
    with pytest.raises(ValueError, match="must be 'standard' or 'shift:NORM', got 'normal'"):
        resolve_gaussian_source("normal", 4)
    # a new kind needs its row alone: shorthand, checks and listing follow
    row = zoo._Kind(
        "every mean m; params: m",
        lambda n, m: model.ProductDistribution(np.full(n, m)),
        (("m", float),),
    )
    monkeypatch.setitem(zoo._KIND_DOCS, "flat", row)
    assert np.allclose(instantiate(parse_spec_string("flat:0.5"), 3).mu, 0.5)
    assert zoo_kinds()["flat"] == row.doc
    with pytest.raises(ValueError, match="'flat' needs parameters"):
        instantiate({"kind": "flat"}, 3)


def test_shorthands_and_optional_parameters_pass_the_check():
    specs = [
        "uniform",
        "two_point",
        "planted_product:0.1",
        "heavy_atom:0.3",
        "junta_mix:2",
        "noisy_parity:2:0.1",
    ]
    assert {parse_spec_string(s)["kind"] for s in specs} == set(zoo_kinds())
    for spec in specs:
        instantiate(parse_spec_string(spec), 4)
    assert parse_spec_string("junta_mix:2") == {"kind": "junta_mix", "k": 2}
    full = {
        "two_point": {"x": [1, -1, 1, -1]},
        "heavy_atom": {"mass": 0.3, "x": [1, -1, 1, -1]},
        "junta_mix": {"k": 1, "inner": [0.25, 0.75]},
    }
    for kind, params in full.items():
        assert instantiate({"kind": kind, **params}, 4).n == 4
