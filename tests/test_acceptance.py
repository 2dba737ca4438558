"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run `pytest -s tests/test_acceptance.py`
to see them) and asserts on the worst deviation observed over 64 random trials
at each of n = 2, 3, 4.
"""

import json
import subprocess
import sys

import numpy as np

from extcalc.algebra import (
    PRODUCT_KINDS,
    Frame,
    Metric,
    Multivector,
    basis_vectors,
    max_abs_diff,
    random_multivector,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from extcalc.calculus import DEFAULT_FD_STEP, MvFunction
from extcalc.catalog import (
    adjoint_image_functional,
    apply_functional,
    bivector_functional,
    blade_image_functional,
    det_functional,
    pair_product_functional,
    pseudoscalar_image_functional,
    trace_functional,
)
from extcalc.dual import exp, sin, value_of
from extcalc.extensor import Extensor, Outermorphism
from extcalc.functional import (
    InducedFunctional,
    component_partials,
    component_partials_fd,
    directional_from_partials,
    star_from_partials,
)
from extcalc.harness import HarnessConfig, report_dict, run_suite

DIMS = (2, 3, 4)
TRIALS = 64


def _report(name: str, max_dev: float, tol: float):
    status = "PASS" if max_dev <= tol else "FAIL"
    print(f"ACCEPTANCE {name}: {status}  (max deviation {max_dev:.3e}, tolerance {tol:.1e})")
    assert max_dev <= tol, f"{name}: deviation {max_dev:.3e} exceeds {tol:.1e}"


def _contexts(tag: int):
    """(metric, rng) per dimension, deterministically seeded per criterion."""
    for dim in DIMS:
        yield Metric.euclidean(dim), np.random.default_rng([tag, dim])


def _rand_vec(metric, rng):
    return random_multivector(metric, 1, rng)


def scalar_mv(metric, s):
    return Multivector.from_scalar(metric, s)


def test_criterion_01_pair_scalar_product_directional():
    # a-derivative of h(b).h(c) equals h((a.b) c + (a.c) b)
    dev_exact = dev_fd = 0.0
    for metric, rng in _contexts(1):
        for _ in range(TRIALS):
            h = Extensor.random_invertible(metric, rng)
            a, b, c = (_rand_vec(metric, rng) for _ in range(3))
            phi = pair_product_functional("scalar", b, c)
            rhs = h(scalar_value(a, b) * c + scalar_value(a, c) * b)
            dev_exact = max(dev_exact, max_abs_diff(phi.directional_derivative(h, a), rhs))
            fd = phi.directional_derivative(h, a, step=DEFAULT_FD_STEP)
            dev_fd = max(dev_fd, max_abs_diff(fd, rhs))
    _report("criterion-01 exact path", dev_exact, 1e-9)
    _report("criterion-01 fd path", dev_fd, 1e-5)


def test_criterion_02_pair_wedge_product_directional():
    # a-derivative of h(b)^h(c) equals (n-1) h_ext(a _| (b^c)); n = 2, 3, 4
    dev_exact = dev_fd = 0.0
    for metric, rng in _contexts(2):
        n = metric.dim
        for _ in range(TRIALS):
            h = Extensor.random_invertible(metric, rng)
            a, b, c = (_rand_vec(metric, rng) for _ in range(3))
            phi = pair_product_functional("wedge", b, c)
            rhs = (n - 1) * Outermorphism(h)(a.lcontract(b.wedge(c)))
            dev_exact = max(dev_exact, max_abs_diff(phi.directional_derivative(h, a), rhs))
            fd = phi.directional_derivative(h, a, step=DEFAULT_FD_STEP)
            dev_fd = max(dev_fd, max_abs_diff(fd, rhs))
    _report("criterion-02 exact path", dev_exact, 1e-9)
    _report("criterion-02 fd path", dev_fd, 1e-5)


def test_criterion_03_blade_image_directional_all_orders():
    # a-derivative of the extended image of a1^...^ak: (n-k+1) scaling, k = 1..n
    dev = 0.0
    for metric, rng in _contexts(3):
        n = metric.dim
        for _ in range(TRIALS):
            h = Extensor.random_invertible(metric, rng)
            a = _rand_vec(metric, rng)
            om = Outermorphism(h)
            for k in range(1, n + 1):
                vectors = [_rand_vec(metric, rng) for _ in range(k)]
                phi = blade_image_functional(vectors)
                rhs = (n - k + 1) * om(a.lcontract(wedge_all(metric, vectors)))
                dev = max(dev, max_abs_diff(phi.directional_derivative(h, a), rhs))
    _report("criterion-03 blade image", dev, 1e-9)


def test_criterion_04_vector_image_directional_and_star():
    # a-derivative of h(b) is n (a.b); curl = gradient = n b; divergences vanish
    dev = 0.0
    for metric, rng in _contexts(4):
        n = metric.dim
        for _ in range(TRIALS):
            h = Extensor.random_invertible(metric, rng)
            a, b = _rand_vec(metric, rng), _rand_vec(metric, rng)
            phi = apply_functional(b)
            dev = max(
                dev,
                max_abs_diff(
                    phi.directional_derivative(h, a), scalar_mv(metric, n * scalar_value(a, b))
                ),
            )
            table = phi.derivative_table(h, PRODUCT_KINDS)
            dev = max(dev, max_abs_diff(table["wedge"], n * b))
            dev = max(dev, max_abs_diff(table["geometric"], n * b))
            dev = max(dev, table["scalar"].norm_inf())
            dev = max(dev, table["lcontract"].norm_inf())
    _report("criterion-04 vector image", dev, 1e-10)


def test_criterion_05_adjoint_image_directional_and_star():
    # a-derivative of adjoint(h)(b) is the full geometric product b a;
    # curl b, scalar divergence 0, contracted divergence (1-n) b, gradient (2-n) b
    dev = 0.0
    for metric, rng in _contexts(5):
        n = metric.dim
        for _ in range(TRIALS):
            h = Extensor.random_invertible(metric, rng)
            a, b = _rand_vec(metric, rng), _rand_vec(metric, rng)
            phi = adjoint_image_functional(b)
            dev = max(dev, max_abs_diff(phi.directional_derivative(h, a), b.geometric(a)))
            table = phi.derivative_table(h, PRODUCT_KINDS)
            dev = max(dev, max_abs_diff(table["wedge"], b))
            dev = max(dev, table["scalar"].norm_inf())
            dev = max(dev, max_abs_diff(table["lcontract"], (1 - n) * b))
            # sign-sensitive at n = 2, where the gradient vanishes identically
            dev = max(dev, max_abs_diff(table["geometric"], (2 - n) * b))
    _report("criterion-05 adjoint image", dev, 1e-9)


def test_criterion_06_trace_and_bivector():
    dev = 0.0
    for metric, rng in _contexts(6):
        n = metric.dim
        for _ in range(TRIALS):
            t = Extensor.random(metric, rng)
            a = _rand_vec(metric, rng)
            tr = trace_functional(metric)
            dev = max(dev, max_abs_diff(tr.directional_derivative(t, a), a))
            table = tr.derivative_table(t, PRODUCT_KINDS)
            dev = max(dev, table["wedge"].norm_inf())
            for kind in ("scalar", "lcontract", "geometric"):
                dev = max(dev, max_abs_diff(table[kind], scalar_mv(metric, n)))
            biv = bivector_functional(metric)
            dev = max(dev, max_abs_diff(biv.directional_derivative(t, a), (n - 1) * a))
            table = biv.derivative_table(t, PRODUCT_KINDS)
            dev = max(dev, table["wedge"].norm_inf())
            for kind in ("scalar", "lcontract", "geometric"):
                dev = max(dev, max_abs_diff(table[kind], scalar_mv(metric, (n - 1) * n)))
    _report("criterion-06 trace and bivector", dev, 1e-10)


def test_criterion_07_pseudoscalar_image():
    # a-derivative of the extended image of I is the extension of a _| I;
    # rescaling I rescales everything consistently (I-independence of det)
    dev = 0.0
    for metric, rng in _contexts(7):
        for _ in range(TRIALS):
            h = Extensor.random_invertible(metric, rng)
            a = _rand_vec(metric, rng)
            lam = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.integers(2) else -1.0)
            pss = lam * unit_pseudoscalar(metric)
            phi = pseudoscalar_image_functional(pss)
            rhs = Outermorphism(h)(a.lcontract(pss))
            dev = max(dev, max_abs_diff(phi.directional_derivative(h, a), rhs))
            # the pseudoscalar image determines det independently of the scale
            det_from_pss = value_of(phi.evaluate(h).coeff(metric.size - 1)) / lam
            dev = max(dev, abs(det_from_pss - h.det()))
    _report("criterion-07 pseudoscalar image", dev, 1e-9)


def test_criterion_08_determinant_family():
    # a-derivative of det is det * adjoint-inverse applied to a; star forms in
    # terms of trace and bivector of the inverse; relative deviation
    dev = 0.0
    for metric, rng in _contexts(8):
        for _ in range(TRIALS):
            h = Extensor.random_invertible(metric, rng)
            a = _rand_vec(metric, rng)
            phi = det_functional(metric)
            d = h.det()
            hinv = h.inverse()
            hstar = hinv.adjoint()

            def rel(lhs, rhs):
                return max_abs_diff(lhs, rhs) / max(1.0, rhs.norm_inf())

            dev = max(dev, rel(phi.directional_derivative(h, a), d * hstar(a)))
            table = phi.derivative_table(h, PRODUCT_KINDS)
            tr_term = scalar_mv(metric, d * hinv.trace())
            biv_term = d * hinv.bivector()
            dev = max(dev, rel(table["scalar"], tr_term))
            dev = max(dev, rel(table["lcontract"], tr_term))
            dev = max(dev, rel(table["wedge"], biv_term))
            dev = max(dev, rel(table["geometric"], tr_term + biv_term))
    _report("criterion-08 determinant family", dev, 1e-8)


def _random_rule_setup(metric, rng):
    """Random scalar functional, companion functional, map, direction."""
    top = min(2, metric.dim)
    p = int(rng.integers(1, top + 1))
    q = int(rng.integers(1, top + 1))
    k = int(rng.integers(1, 3))
    anchors = tuple(random_multivector(metric, p, rng) for _ in range(k))
    t = Extensor.random(metric, rng, p, q)
    c = random_multivector(metric, q, rng)
    if k == 1:
        fn = MvFunction(1, q, 0, lambda x: x.scalar_product(c))
        gn = MvFunction(1, q, q, lambda x: x)
    else:
        fn = MvFunction(2, q, 0, lambda x, y: x.scalar_product(y))
        gn = MvFunction(2, q, q, lambda x, y: x * y.scalar_product(c).scalar_part())
    phi = InducedFunctional(fn, anchors, p)
    g = InducedFunctional(gn, anchors, p)
    direction = random_multivector(metric, p, rng)
    return phi, g, t, direction


def test_criterion_09_derivation_rules():
    dev = dev_chain = 0.0
    smooth = {"square": (lambda s: s * s, lambda v: 2.0 * v),
              "exp": (exp, lambda v: float(np.exp(v))),
              "sin": (sin, lambda v: float(np.cos(v)))}
    for metric, rng in _contexts(9):
        for trial in range(TRIALS):
            phi, g, t, a = _random_rule_setup(metric, rng)
            b = random_multivector(metric, phi.source_grade, rng)
            alpha, beta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            lam = float(rng.uniform(-2, 2))
            m = random_multivector(metric, int(rng.integers(0, metric.dim + 1)), rng)

            # linearity in the direction
            dev = max(dev, max_abs_diff(
                phi.directional_derivative(t, alpha * a + beta * b),
                alpha * phi.directional_derivative(t, a) + beta * phi.directional_derivative(t, b),
            ))
            # scaling
            dev = max(dev, max_abs_diff(
                phi.scaled(lam).directional_derivative(t, a),
                lam * phi.directional_derivative(t, a),
            ))
            # right multiplication by a constant
            dev = max(dev, max_abs_diff(
                phi.times_constant(m).directional_derivative(t, a),
                phi.directional_derivative(t, a).geometric(m),
            ))
            # additivity
            psi = InducedFunctional(
                MvFunction(phi.arity, phi.func.input_grade, 0,
                           lambda *xs: xs[0].scalar_product(xs[0])),
                phi.anchors, phi.source_grade,
            )
            dev = max(dev, max_abs_diff(
                (phi + psi).directional_derivative(t, a),
                phi.directional_derivative(t, a) + psi.directional_derivative(t, a),
            ))
            # Leibniz: scalar functional times functional
            dev = max(dev, max_abs_diff(
                phi.times_functional(g).directional_derivative(t, a),
                phi.directional_derivative(t, a).geometric(g.evaluate(t))
                + value_of(phi.evaluate(t).scalar_part()) * g.directional_derivative(t, a),
            ))
            # chain rule with a smooth scalar map
            name = ("square", "exp", "sin")[trial % 3]
            fn, dfn = smooth[name]
            dev_chain = max(dev_chain, max_abs_diff(
                phi.map_scalar(fn).directional_derivative(t, a),
                dfn(value_of(phi.evaluate(t).scalar_part())) * phi.directional_derivative(t, a),
            ))
    _report("criterion-09 derivation rules", dev, 1e-9)
    _report("criterion-09 chain rule", dev_chain, 1e-8)


def test_criterion_10_basis_independence():
    dev_frames = dev_intrinsic = 0.0
    for metric, rng in _contexts(10):
        basis = basis_vectors(metric)
        ortho = Frame.orthonormal(metric)
        for _ in range(TRIALS):
            phi, _, t, _ = _random_rule_setup(metric, rng)
            carrier = Extensor.random_invertible(metric, rng)
            skew = Frame.from_vectors([carrier(e) for e in basis])
            table = phi.derivative_table(t, PRODUCT_KINDS)
            for kind in PRODUCT_KINDS:
                via_ortho = phi.derivative_via_frame(t, kind, ortho)
                via_skew = phi.derivative_via_frame(t, kind, skew)
                dev_frames = max(dev_frames, max_abs_diff(via_ortho, via_skew))
                dev_intrinsic = max(dev_intrinsic, max_abs_diff(table[kind], via_ortho))
                dev_intrinsic = max(dev_intrinsic, max_abs_diff(table[kind], via_skew))
    _report("criterion-10 frame agreement", dev_frames, 1e-8)
    _report("criterion-10 intrinsic equivalence", dev_intrinsic, 1e-9)


def test_criterion_11_component_bridge():
    dev_fd = dev_alg = 0.0
    for metric, rng in _contexts(11):
        basis = basis_vectors(metric)
        ortho = Frame.orthonormal(metric)
        for trial in range(TRIALS):
            anchor, c = _rand_vec(metric, rng), _rand_vec(metric, rng)
            base = InducedFunctional(
                MvFunction(1, 1, 0, lambda x: x.scalar_product(c)), (anchor,), 1
            )
            phi = (base, base.map_scalar(lambda s: s * s), base.map_scalar(exp))[trial % 3]
            t = Extensor.random_invertible(metric, rng)
            if rng.integers(2):
                carrier = Extensor.random_invertible(metric, rng)
                frame = Frame.from_vectors([carrier(e) for e in basis])
            else:
                frame = ortho
            parts = component_partials(phi, t, frame)
            dev_fd = max(dev_fd, float(np.max(np.abs(
                parts - component_partials_fd(phi, t, frame, 1e-5)
            ))))
            a = _rand_vec(metric, rng)
            dev_alg = max(dev_alg, max_abs_diff(
                directional_from_partials(parts, a, frame),
                phi.directional_derivative(t, a),
            ))
            table = phi.derivative_table(t, PRODUCT_KINDS)
            for kind in PRODUCT_KINDS:
                dev_alg = max(dev_alg, max_abs_diff(
                    star_from_partials(parts, kind, frame), table[kind]
                ))
    _report("criterion-11 partials vs lifted fd", dev_fd, 1e-5)
    _report("criterion-11 bridge identities", dev_alg, 1e-8)


def test_criterion_12_oracle_coherence():
    # every derivative family used above, exact vs central differences
    dev = 0.0
    for metric, rng in _contexts(12):
        builders = (
            lambda: pair_product_functional("scalar", _rand_vec(metric, rng), _rand_vec(metric, rng)),
            lambda: pair_product_functional("wedge", _rand_vec(metric, rng), _rand_vec(metric, rng)),
            lambda: blade_image_functional(
                [_rand_vec(metric, rng) for _ in range(int(rng.integers(1, metric.dim + 1)))]
            ),
            lambda: apply_functional(_rand_vec(metric, rng)),
            lambda: adjoint_image_functional(_rand_vec(metric, rng)),
            lambda: trace_functional(metric),
            lambda: bivector_functional(metric),
            lambda: pseudoscalar_image_functional(
                float(rng.uniform(0.5, 2.0)) * unit_pseudoscalar(metric)
            ),
            lambda: det_functional(metric),
        )
        for trial in range(TRIALS):
            phi = builders[trial % len(builders)]()
            h = Extensor.random_invertible(metric, rng)
            a = _rand_vec(metric, rng)
            dev = max(dev, max_abs_diff(
                phi.directional_derivative(h, a),
                phi.directional_derivative(h, a, step=DEFAULT_FD_STEP),
            ))
            kind = PRODUCT_KINDS[trial % 4]
            fd = phi.derivative(h, kind, step=DEFAULT_FD_STEP)
            dev = max(dev, max_abs_diff(phi.derivative(h, kind), fd))
    _report("criterion-12 oracle coherence", dev, 1e-5)


def test_criterion_13_determinism_and_exit_codes(tmp_path):
    config = HarnessConfig(trials=4, seed=2024)
    first = json.dumps(report_dict(config, run_suite(config)), sort_keys=True)
    second = json.dumps(report_dict(config, run_suite(config)), sort_keys=True)
    identical = first == second

    ok = subprocess.run(
        [sys.executable, "-m", "extcalc", "--trials", "2", "--seed", "3", "--suite", "bridge"],
        capture_output=True,
    )
    forced = subprocess.run(
        [sys.executable, "-m", "extcalc", "--trials", "2", "--tol-exact", "1e-30",
         "--suite", "closed-form", "--out", str(tmp_path / "r.txt")],
        capture_output=True,
    )
    dev = 0.0 if (identical and ok.returncode == 0 and forced.returncode == 1) else 1.0
    _report("criterion-13 determinism and exit codes", dev, 0.5)
    assert identical
    assert ok.returncode == 0
    assert forced.returncode == 1
