"""Acceptance gate: one test per headline criterion, plus the property suites.

Each test prints a single PASS/FAIL line (visible with -s or -rA) and
asserts the criterion at its stated tolerance against the default
verification runs shared across the session.
"""

import math

import numpy as np
import scipy.linalg

from eigenmin import canonical, fem, mesh, verify

TORUS = canonical.clifford_torus()
SPHERE = canonical.equatorial_sphere(2)


def _by_id(report):
    return {c.id: c for c in report.checks}


def _line(cid, ok, detail):
    print("%s: %s (%s)" % (cid, "PASS" if ok else "FAIL", detail))
    assert ok, "%s failed: %s" % (cid, detail)


def test_C1_torus_lambda1(torus_report):
    report, elapsed = torus_report
    checks = _by_id(report)
    lam = checks["C1-lambda1"]
    cluster = checks["C1-cluster"]
    order = checks["C1-order"]
    ok = (
        lam.passed
        and abs(lam.measured - 2.0) <= 0.02
        and cluster.passed
        and cluster.measured == 4.0
        and order.passed
        and elapsed < 60.0
    )
    _line(
        "C1",
        ok,
        "lambda1=%.6f cluster=%d order=%.2f runtime=%.1fs"
        % (lam.measured, int(cluster.measured), order.measured, elapsed),
    )


def test_C2_sphere_lambda1(sphere_report):
    report, _ = sphere_report
    checks = _by_id(report)
    lam = checks["C2-lambda1"]
    cluster = checks["C2-cluster"]
    level2 = checks["C2-level2"]
    order = checks["C2-order"]
    ok = (
        lam.passed
        and abs(lam.measured - 2.0) <= 0.02
        and cluster.passed
        and cluster.measured == 3.0
        and level2.passed
        and order.passed
    )
    _line(
        "C2",
        ok,
        "lambda1=%.6f mult=%d level2-dev=%.4f order=%.2f"
        % (lam.measured, int(cluster.measured), level2.measured, order.measured),
    )


def test_C3_takahashi_residual(torus_report, sphere_report):
    parts = []
    ok = True
    for label, (report, _) in (("torus", torus_report), ("sphere", sphere_report)):
        checks = _by_id(report)
        res = checks["C3-residual"]
        trend = checks["C3-trend"]
        ok = ok and res.passed and res.measured <= 0.05 and trend.passed
        parts.append("%s=%.5f" % (label, res.measured))
    _line("C3", ok, "max residuals " + ", ".join(parts) + ", decreasing")


def test_C4_coordinate_orthogonality(torus_report, sphere_report):
    ok = True
    vals = []
    for report, _ in (torus_report, sphere_report):
        chk = _by_id(report)["C4-mean-zero"]
        ok = ok and chk.passed and chk.measured <= 1e-10
        vals.append("%.2e" % chk.measured)
    _line("C4", ok, "defects " + ", ".join(vals) + " <= 1e-10")


def test_C5_beta_sweep_limit(torus_report, sphere_report):
    ok = True
    vals = []
    for label, (report, _) in (("torus", torus_report), ("sphere", sphere_report)):
        checks = _by_id(report)
        lim = checks["C5-limit"]
        sup = checks["C5-sup-bound"]
        ok = (
            ok
            and lim.passed
            and abs(lim.measured - 2.0) <= 0.005 * 2.0
            and sup.passed
        )
        vals.append("%s=%.6f" % (label, lim.measured))
    _line("C5", ok, "rayleigh at beta=1024: " + ", ".join(vals) + ", sup bound exact")


def test_C6_willmore_energy(torus_report, sphere_report):
    t = _by_id(torus_report[0])["C6-willmore"]
    s = _by_id(sphere_report[0])["C6-willmore"]
    ok = (
        t.passed
        and abs(t.measured - 2.0 * math.pi**2) <= 0.02 * 2.0 * math.pi**2
        and s.passed
        and abs(s.measured - 4.0 * math.pi) <= 0.02 * 4.0 * math.pi
    )
    _line("C6", ok, "torus=%.4f (2pi^2=%.4f), sphere=%.4f (4pi=%.4f)"
          % (t.measured, 2.0 * math.pi**2, s.measured, 4.0 * math.pi))


def test_C7_pointwise_identity(torus_report, sphere_report):
    ok = True
    vals = []
    for label, (report, _) in (("torus", torus_report), ("sphere", sphere_report)):
        checks = _by_id(report)
        ident = checks["C7-identity"]
        order = checks["C7-order"]
        ok = ok and ident.passed and ident.measured <= 0.02 * 2.0 and order.passed
        vals.append("%s max-dev=%.2e" % (label, ident.measured))
    _line("C7", ok, ", ".join(vals) + " (identity holds exactly for P1)")


def test_C8_volume_bound(torus_report, sphere_report):
    t = _by_id(torus_report[0])
    s = _by_id(sphere_report[0])
    bound = t["C8-bound"]
    sbound = s["C8-bound"]
    odd = t["C8-odd-n"]
    ok = (
        bound.passed
        and "strict" in bound.description
        and sbound.passed
        and "attained" in sbound.description
        and abs(sbound.measured - sbound.expected) <= 0.01 * sbound.expected
        and odd.passed
        and odd.mode == "info"
    )
    _line("C8", ok, "torus strict (%.4f > %.4f), sphere attained (%.4f ~ %.4f)"
          % (bound.measured, bound.expected, sbound.measured, sbound.expected))


def test_C9_morse_index(torus_report, sphere_report):
    t = _by_id(torus_report[0])["C9-index"]
    s = _by_id(sphere_report[0])["C9-index"]
    ok = t.passed and t.measured == 5.0 and s.passed and s.measured == 1.0
    _line("C9", ok, "torus index=%d, sphere index=%d" % (int(t.measured), int(s.measured)))


def test_C10_conjecture_equality(torus_report, sphere_report):
    t = _by_id(torus_report[0])["C10-eigensum"]
    s = _by_id(sphere_report[0])["C10-eigensum"]
    ok = (
        t.passed
        and abs(t.measured - t.expected) <= 0.01 * max(abs(t.expected), 1.0)
        and s.passed
        and s.mode == "info"
    )
    _line("C10", ok, "torus (l1+l2)/2=%.6f vs 4pi^2/area=%.6f; sphere informational"
          % (t.measured, t.expected))


def test_C11_integrated_identity(torus_report, sphere_report):
    ok = True
    vals = []
    for label, (report, _) in (("torus", torus_report), ("sphere", sphere_report)):
        checks = _by_id(report)
        ident = checks["C11-identity"]
        order = checks["C11-order"]
        ok = ok and ident.passed and ident.measured <= 0.01 and order.passed
        vals.append("%s gap=%.5f order=%.2f" % (label, ident.measured, order.measured))
    _line("C11", ok, ", ".join(vals))


def test_P1_operator_invariants(ops64, ops_s4, ops16, sphere2):
    kernel = max(
        float(np.max(np.abs(ops.stiffness @ np.ones(ops.dim))))
        for ops in (ops64, ops_s4)
    )
    spd_min = min(
        float(scipy.linalg.eigvalsh(ops.mass.toarray()).min())
        for ops in (ops16, fem.assemble(sphere2))
    )
    ok = kernel <= 1e-10 and spd_min > 0.0
    _line("P1-operators", ok, "kernel defect %.2e <= 1e-10, min mass eig %.2e > 0"
          % (kernel, spd_min))


def test_P1_residual_certificates(ops64, torus_spectrum, ops_s4, sphere_spectrum):
    worst_res = 0.0
    worst_orth = 0.0
    for ops, sp in ((ops64, torus_spectrum), (ops_s4, sphere_spectrum)):
        worst_res = max(worst_res, float(sp.residuals.max() / sp.tolerance))
        V = sp.eigenvectors
        gram = V.T @ (ops.mass @ V)
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(V.shape[1])))))
    ok = worst_res <= 1.0 and worst_orth <= 1e-8
    _line("P1-residuals", ok, "residual/tol %.3f <= 1, orthonormality %.2e <= 1e-8"
          % (worst_res, worst_orth))


def test_P1_mesh_roundtrip(tmp_path):
    ok = True
    for name, m in (("torus", mesh.generate_torus(32)), ("sphere", mesh.generate_sphere(3))):
        path = tmp_path / (name + ".smesh")
        mesh.write_mesh(m, path)
        loaded = mesh.read_mesh(path)
        ok = ok and np.array_equal(loaded.vertices, m.vertices)
        ok = ok and np.array_equal(loaded.faces, m.faces)
    _line("P1-roundtrip", ok, "write/read bit-exact for torus32 and sphere3")


def test_P1_metric_axioms():
    rng = np.random.default_rng(31)
    count = 1000
    worst_sym = 0.0
    worst_tri = 0.0
    for surface in (TORUS, SPHERE):
        if surface.kind == "clifford":
            P, Q, R = (rng.uniform(-9.0, 9.0, size=(count, 2)) for _ in range(3))
        else:
            def sample():
                v = rng.normal(size=(count, 4))
                v[:, 3] = 0.0
                return v / np.linalg.norm(v, axis=1, keepdims=True)
            P, Q, R = sample(), sample(), sample()
        dpq = np.asarray(canonical.geodesic_distance(surface, P, Q))
        dqp = np.asarray(canonical.geodesic_distance(surface, Q, P))
        dqr = np.asarray(canonical.geodesic_distance(surface, Q, R))
        dpr = np.asarray(canonical.geodesic_distance(surface, P, R))
        dpp = np.asarray(canonical.geodesic_distance(surface, P, P))
        assert np.all(dpq >= 0.0)
        assert np.max(dpp) <= 1e-7
        worst_sym = max(worst_sym, float(np.max(np.abs(dpq - dqp))))
        worst_tri = max(worst_tri, float(np.max(dpr - (dpq + dqr))))
    ok = worst_sym <= 1e-12 and worst_tri <= 1e-9
    _line("P1-metric", ok, "symmetry defect %.1e, triangle slack %.1e on 1000 samples"
          % (worst_sym, worst_tri))


def test_P1_determinism(torus_report, sphere_report):
    torus_again = verify.run_all(TORUS)
    sphere_again = verify.run_all(SPHERE)
    ok = (
        verify.render_report(torus_again) == verify.render_report(torus_report[0])
        and verify.render_report(sphere_again) == verify.render_report(sphere_report[0])
        and verify.report_csv(torus_again) == verify.report_csv(torus_report[0])
    )
    _line("P1-determinism", ok, "reports byte-identical across independent runs")
